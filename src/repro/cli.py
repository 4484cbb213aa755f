"""Command-line interface.

``python -m repro`` exposes the assessor-facing outputs of the model without
writing any code:

* ``assess`` -- read a fault model from a JSON file (or use a built-in
  scenario) and print the full assessment report;
* ``gain`` -- print the diversity-gain summary as JSON;
* ``pmax-table`` -- print the Section 5.1 table for arbitrary ``p_max`` values;
* ``evaluate`` -- run any registered evaluation method (``repro methods``
  lists them) on a model and print the typed result as JSON; methods and
  their options resolve through the :class:`repro.api.MethodRegistry`, so a
  method registered via :func:`repro.api.register_method` is immediately
  available here with no CLI changes (``--method montecarlo`` runs the Monte
  Carlo engine);
* ``methods`` -- list the registered evaluation methods with their typed
  option schemas;
* ``study run`` / ``study show`` -- execute (or preview) a declarative
  parameter-sweep study (:mod:`repro.studies`): a JSON spec names a base
  scenario or model, sweep axes and methods; the runner evaluates the points
  in parallel against a content-addressed result cache and writes the tidy
  result table as JSON/JSONL/CSV;
* ``serve`` -- run the evaluation service (:mod:`repro.service`): an asyncio
  HTTP server that computes each request on arrival in a worker pool, with
  an LRU response cache optionally layered
  on a disk cache (``--cache-dir``) and on other shards' caches
  (``--cache-peer``);
* ``route`` -- run the shard router (:mod:`repro.cluster`): a consistent-hash
  front that spreads traffic across several ``serve`` shards, fails over
  around dead or saturated ones and fans batches out with order-preserving
  reassembly;
* ``loadgen`` -- drive a ``serve`` or ``route`` endpoint with deterministic
  open-loop traffic (cold/warm/duplicate-heavy phases) and print throughput
  and latency percentiles as JSON;
* ``cache info`` / ``cache clear`` -- inspect or empty a content-addressed
  result cache directory (shared by ``study run`` and ``serve``);
* ``trace summarize`` -- render per-span timing tables and per-request
  breakdowns from one or more telemetry trace captures (``repro serve
  --trace-file`` / ``repro study run --trace-file`` / a router's
  ``--collector-file``); several files are stitched into one fleet view;
* ``top`` -- live terminal dashboard over a router or shard ``/metrics``
  endpoint (throughput, latency percentiles, cache mix, shard health, SLO
  burn); ``--once`` prints a single frame for scripts and CI;
* ``scenarios`` -- list the built-in scenarios with their descriptions.

The JSON model format is the output of :meth:`repro.core.fault_model.FaultModel.to_dict`::

    {"p": [0.05, 0.02], "q": [1e-4, 5e-4], "names": ["fault a", "fault b"]}

Bad input (a missing or malformed model file, an invalid spec, out-of-range
parameters) exits with status 2 and a one-line ``error:`` message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Sequence

# Only what building the parser needs is imported here; each handler imports
# its own command's modules, so one command never compiles another's stack.
from repro.experiments.scenarios import scenario_names
from repro.studies.results import TABLE_FORMATS

if TYPE_CHECKING:
    from repro.core.fault_model import FaultModel

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reliability of 1-out-of-2 diverse systems via the fault-creation-process "
            "model (Popov & Strigini, DSN 2001)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    assess_parser = subparsers.add_parser("assess", help="print a full assessment report")
    _add_model_arguments(assess_parser)
    assess_parser.add_argument(
        "--confidence", type=float, default=0.99, help="confidence level for all bounds (default 0.99)"
    )
    assess_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON instead of text"
    )

    gain_parser = subparsers.add_parser("gain", help="print the diversity-gain summary as JSON")
    _add_model_arguments(gain_parser)
    gain_parser.add_argument(
        "--confidence", type=float, default=0.99, help="confidence level for the bound ratio"
    )

    table_parser = subparsers.add_parser(
        "pmax-table", help="print the Section 5.1 table of guaranteed bound reductions"
    )
    table_parser.add_argument(
        "pmax", type=float, nargs="*", default=[0.5, 0.1, 0.01], help="p_max values (default: the paper's)"
    )

    evaluate_parser = subparsers.add_parser(
        "evaluate",
        help="run one registered evaluation method and print the typed result as JSON",
    )
    _add_model_arguments(evaluate_parser)
    evaluate_parser.add_argument(
        "--method",
        required=True,
        help="registered method name (see 'repro methods')",
    )
    evaluate_parser.add_argument(
        "--set",
        dest="options",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "method option override (repeatable); VALUE is parsed as JSON "
            "(so 0.999, 50000, true, null), falling back to a plain string"
        ),
    )
    evaluate_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random seed for seed-consuming methods (default: the library seed)",
    )

    subparsers.add_parser(
        "methods", help="list registered evaluation methods with their option schemas"
    )

    study_parser = subparsers.add_parser(
        "study", help="run or preview a declarative parameter-sweep study"
    )
    study_subparsers = study_parser.add_subparsers(dest="study_command", required=True)

    study_run = study_subparsers.add_parser(
        "run", help="execute a study spec and write its result table"
    )
    study_run.add_argument("spec", help="path to a JSON study spec")
    study_run.add_argument(
        "--cache-dir",
        default=".repro-study-cache",
        help=(
            "content-addressed result cache directory (default .repro-study-cache); "
            "'none' disables caching"
        ),
    )
    study_run.add_argument(
        "--output-dir",
        default="study-output",
        help="directory for the result table and summary (default study-output)",
    )
    study_run.add_argument(
        "--formats",
        default=",".join(TABLE_FORMATS),
        help=f"comma-separated table formats to write (default {','.join(TABLE_FORMATS)})",
    )
    study_run.add_argument(
        "--jobs", type=int, default=1, help="worker processes for uncached points (default 1)"
    )
    study_run.add_argument(
        "--force", action="store_true", help="recompute every point even on a cache hit"
    )
    study_run.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "do not abort on a failing point: finish the study, emit typed error "
            "rows (status/error_type/error columns) for the failures and report "
            "their count in the summary; a warm re-run recomputes only the "
            "failed points"
        ),
    )
    study_run.add_argument(
        "--quiet", action="store_true", help="suppress the progress line on stderr"
    )
    study_run.add_argument(
        "--trace-file",
        default=None,
        help=(
            "capture telemetry spans into this JSONL file, pool workers' "
            "included (analyse with 'repro trace summarize')"
        ),
    )

    study_show = study_subparsers.add_parser(
        "show", help="expand a study spec and print its evaluation plan"
    )
    study_show.add_argument("spec", help="path to a JSON study spec")
    study_show.add_argument(
        "--points", type=int, default=10, help="number of sample points to print (default 10)"
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the evaluation service (async HTTP server)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8000, help="TCP port (default 8000)")
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "evaluation worker processes; 0 (the default) evaluates in server-side "
            "threads instead of a process pool"
        ),
    )
    serve_parser.add_argument(
        "--cache-dir",
        default="none",
        help=(
            "disk tier for the response cache (the content-addressed study-cache "
            "format); 'none' (the default) keeps the cache in memory only"
        ),
    )
    serve_parser.add_argument(
        "--lru-size",
        type=int,
        default=1024,
        help="in-process response cache capacity in entries (default 1024)",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help=(
            "admission control: evaluation requests allowed to run concurrently "
            "(default 64)"
        ),
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help=(
            "backpressure: admitted requests allowed to wait for a running slot "
            "before the server answers 429 with Retry-After (default 256)"
        ),
    )
    serve_parser.add_argument(
        "--request-timeout-ms",
        type=float,
        default=0.0,
        help=(
            "default per-request deadline in milliseconds; overrun requests answer "
            "504 (a request's own timeout_ms overrides this; 0, the default, "
            "disables the server-wide deadline)"
        ),
    )
    serve_parser.add_argument(
        "--trace-file",
        default=None,
        help=(
            "capture telemetry spans into this JSONL file, pool workers' "
            "included (analyse with 'repro trace summarize')"
        ),
    )
    serve_parser.add_argument(
        "--ship-traces",
        default=None,
        metavar="HOST:PORT",
        help=(
            "ship telemetry spans to a router's POST /v1/traces collector "
            "instead of a local file (batched, bounded queue, never blocks "
            "the request path); mutually exclusive with --trace-file"
        ),
    )
    serve_parser.add_argument(
        "--slow-request-ms",
        type=float,
        default=None,
        help=(
            "log any request slower than this many milliseconds to stderr with "
            "its trace id (default: no slow-request log)"
        ),
    )
    serve_parser.add_argument(
        "--cache-peer",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help=(
            "another shard whose GET /v1/cache/<digest> surface backs this "
            "server's response cache (repeatable); on a local LRU + disk miss "
            "the peers are probed in order before computing"
        ),
    )

    route_parser = subparsers.add_parser(
        "route",
        help="run the shard router (consistent-hash front for 'repro serve' shards)",
    )
    route_parser.add_argument(
        "--shard",
        action="append",
        default=None,
        metavar="HOST:PORT[@WEIGHT]",
        help=(
            "a backend 'repro serve' instance (repeatable; at least one "
            "required); an optional @WEIGHT scales its share of the ring "
            "(e.g. big-box:8001@2 owns twice the keyspace)"
        ),
    )
    route_parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    route_parser.add_argument("--port", type=int, default=8100, help="TCP port (default 8100)")
    route_parser.add_argument(
        "--replicas",
        type=int,
        default=64,
        help="virtual nodes per shard on the hash ring (default 64)",
    )
    route_parser.add_argument(
        "--probe-interval-ms",
        type=float,
        default=500.0,
        help=(
            "how often ejected shards are probed via /healthz; also the "
            "saturation cooldown when a shard sends no Retry-After (default 500)"
        ),
    )
    route_parser.add_argument(
        "--lru-size",
        type=int,
        default=1024,
        help="router-side read-through cache capacity in entries (default 1024)",
    )
    route_parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra full ring walks before giving up on a request (default 2)",
    )
    route_parser.add_argument(
        "--replication",
        type=int,
        default=1,
        metavar="R",
        help=(
            "replicate each request digest across the first R distinct "
            "healthy shards: computed results fan out (write-all) to every "
            "replica's cache, and reads fail over to the next replica that "
            "already holds the warm entry (default 1: no replication)"
        ),
    )
    route_parser.add_argument(
        "--peer-router",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help=(
            "another router behind the same shard set (repeatable); their "
            "GET /v1/health/peers views are merged last-writer-wins once per "
            "probe interval so both routers agree on ejections"
        ),
    )
    route_parser.add_argument(
        "--trace-file",
        default=None,
        help=(
            "capture telemetry spans into this JSONL file (analyse with "
            "'repro trace summarize')"
        ),
    )
    route_parser.add_argument(
        "--collector-file",
        default=None,
        metavar="PATH",
        help=(
            "also append spans received on POST /v1/traces (from shards "
            "running --ship-traces) to this JSONL file; without it the "
            "collector keeps a bounded in-memory ring only"
        ),
    )
    route_parser.add_argument(
        "--slo-config",
        default=None,
        metavar="PATH",
        help=(
            "JSON file of SLO objectives evaluated at GET /v1/slo (default: "
            "built-in 99.9%% availability + 99%% of requests under 500 ms)"
        ),
    )

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="drive a service or router with deterministic open-loop traffic",
    )
    loadgen_parser.add_argument("--host", default="127.0.0.1", help="target address (default 127.0.0.1)")
    loadgen_parser.add_argument("--port", type=int, default=8000, help="target port (default 8000)")
    loadgen_parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    loadgen_parser.add_argument(
        "--distinct",
        type=int,
        default=16,
        help="distinct payloads (each its own digest; default 16)",
    )
    loadgen_parser.add_argument(
        "--duplicate-factor",
        type=int,
        default=4,
        help="repeats per payload in the duplicate-heavy phase (default 4)",
    )
    loadgen_parser.add_argument(
        "--rate", type=float, default=50.0, help="offered requests per second (default 50)"
    )
    loadgen_parser.add_argument(
        "--workers", type=int, default=8, help="concurrent client threads (default 8)"
    )
    loadgen_parser.add_argument(
        "--replications",
        type=int,
        default=2_000,
        help="Monte Carlo replications per payload (default 2000)",
    )
    loadgen_parser.add_argument(
        "--phases",
        default="cold,warm,duplicates",
        help="comma-separated subset of cold,warm,duplicates (default all three)",
    )
    loadgen_parser.add_argument(
        "--soak-seconds",
        type=float,
        default=None,
        metavar="S",
        help=(
            "chaos-soak mode: self-host a replicated cluster (ignoring "
            "--host/--port) and drive open-loop load for S seconds, checking "
            "every response byte-identical against in-process ground truth"
        ),
    )
    loadgen_parser.add_argument(
        "--kill-shard-at",
        type=float,
        default=None,
        metavar="S",
        help=(
            "soak mode: kill the busiest shard S seconds into the soak "
            "(requires --soak-seconds)"
        ),
    )
    loadgen_parser.add_argument(
        "--restart-shard-at",
        type=float,
        default=None,
        metavar="S",
        help=(
            "soak mode: restart the killed shard on the same port S seconds "
            "into the soak (requires --kill-shard-at)"
        ),
    )
    loadgen_parser.add_argument(
        "--shards",
        type=int,
        default=3,
        help="soak mode: in-process shard count (default 3)",
    )
    loadgen_parser.add_argument(
        "--replication",
        type=int,
        default=2,
        metavar="R",
        help="soak mode: router replication factor (default 2)",
    )
    loadgen_parser.add_argument(
        "--slo-max-burn",
        type=float,
        default=None,
        metavar="X",
        help=(
            "soak mode: evaluate the built-in SLOs per phase and fail (exit "
            "1) if any phase burns error budget faster than X times the "
            "sustainable rate (e.g. 2.0: the degraded phase may consume "
            "budget at most twice as fast as the objective allows)"
        ),
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear a content-addressed result cache directory"
    )
    cache_subparsers = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_info = cache_subparsers.add_parser(
        "info", help="print entry count, total bytes and resolved path as JSON"
    )
    cache_info.add_argument(
        "--cache-dir",
        default=".repro-study-cache",
        help="cache directory to inspect (default .repro-study-cache)",
    )
    cache_clear = cache_subparsers.add_parser(
        "clear", help="delete every cache entry (requires --yes)"
    )
    cache_clear.add_argument(
        "--cache-dir",
        default=".repro-study-cache",
        help="cache directory to clear (default .repro-study-cache)",
    )
    cache_clear.add_argument(
        "--yes",
        action="store_true",
        help="confirm the deletion (refused otherwise)",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="analyse telemetry trace captures (JSONL span files)"
    )
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_subparsers.add_parser(
        "summarize",
        help="per-span timing tables and per-request breakdowns from a trace file",
    )
    trace_summarize.add_argument(
        "file",
        nargs="+",
        help=(
            "trace JSONL file(s) (from --trace-file or a router's "
            "--collector-file); several files are stitched into one summary, "
            "so 'summarize router.jsonl collector.jsonl' reassembles "
            "router->shard->worker trees"
        ),
    )
    trace_summarize.add_argument(
        "--top", type=int, default=10, help="slowest requests to list (default 10)"
    )
    trace_summarize.add_argument(
        "--json", action="store_true", help="emit the summary as JSON instead of tables"
    )

    top_parser = subparsers.add_parser(
        "top",
        help="live terminal dashboard over a router or shard /metrics endpoint",
    )
    top_parser.add_argument("--host", default="127.0.0.1", help="target address (default 127.0.0.1)")
    top_parser.add_argument("--port", type=int, default=8100, help="target port (default 8100)")
    top_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default 2)",
    )
    top_parser.add_argument(
        "--once",
        action="store_true",
        help="print one frame (no screen clearing) and exit; for scripts and CI",
    )
    top_parser.add_argument(
        "--scope",
        default="fleet",
        choices=("fleet", "local"),
        help=(
            "metrics scope to request; 'fleet' (default) falls back to "
            "'local' automatically against a bare shard"
        ),
    )
    top_parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after this many refreshes (default: run until interrupted)",
    )

    subparsers.add_parser(
        "scenarios", help="list built-in scenarios with their descriptions"
    )
    return parser


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", type=str, help="path to a JSON fault-model file")
    group.add_argument(
        "--scenario", type=str, choices=scenario_names(), help="use a built-in scenario"
    )


def _load_model(arguments: argparse.Namespace) -> FaultModel:
    from repro.core.fault_model import FaultModel
    from repro.experiments.scenarios import get_scenario

    if arguments.scenario is not None:
        return get_scenario(arguments.scenario)
    try:
        with open(arguments.model, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as error:
        raise ValueError(f"model file {arguments.model!r} is not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise ValueError(
            f"model file {arguments.model!r} must contain a JSON object, "
            f"got {type(data).__name__}"
        )
    try:
        return FaultModel.from_dict(data)
    except KeyError as error:
        raise ValueError(
            f"model file {arguments.model!r} is missing required key {error}"
        ) from error


# --------------------------------------------------------------------- #
# Command handlers
# --------------------------------------------------------------------- #
def _handle_scenarios(arguments: argparse.Namespace) -> int:
    from repro.experiments.scenarios import SCENARIOS

    width = max(len(name) for name in scenario_names())
    for name in scenario_names():
        print(f"{name.ljust(width)}  {SCENARIOS[name].description}")
    return 0


def _handle_pmax_table(arguments: argparse.Namespace) -> int:
    from repro.core.bounds import pmax_gain_table

    print(f"{'p_max':>10s}  {'bound reduction':>16s}  {'improvement':>12s}")
    for row in pmax_gain_table(arguments.pmax):
        print(f"{row.p_max:>10.4g}  {row.gain_factor:>16.4f}  {row.improvement_factor:>11.2f}x")
    return 0


def _handle_assess(arguments: argparse.Namespace) -> int:
    from repro.assessment.report import assess

    report = assess(_load_model(arguments), confidence=arguments.confidence)
    if arguments.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0


def _handle_gain(arguments: argparse.Namespace) -> int:
    from repro.core.gain import diversity_gain_summary

    summary = diversity_gain_summary(_load_model(arguments), confidence=arguments.confidence)
    print(json.dumps(summary.as_dict(), indent=2))
    return 0


def _parse_option_assignments(assignments: Sequence[str]) -> dict:
    """Parse repeated ``--set KEY=VALUE`` flags into an option mapping.

    Values are parsed as JSON so numbers, booleans and ``null`` arrive typed;
    anything that is not valid JSON is kept as a plain string.  Type and name
    validation is the registry's job, not the parser's.
    """
    options: dict = {}
    for assignment in assignments:
        key, separator, raw = assignment.partition("=")
        key = key.strip()
        if not separator or not key:
            raise ValueError(
                f"option {assignment!r} must have the form KEY=VALUE (e.g. level=0.999)"
            )
        try:
            options[key] = json.loads(raw)
        except json.JSONDecodeError:
            options[key] = raw
    return options


def _handle_evaluate(arguments: argparse.Namespace) -> int:
    from repro.api.evaluate import evaluate as api_evaluate

    model = _load_model(arguments)
    options = _parse_option_assignments(arguments.options)
    # Pass options as a mapping, not **kwargs: an option named like one of
    # evaluate()'s own parameters (e.g. "seed") must reach the registry's
    # "does not accept option" error, not collide with the signature.
    result = api_evaluate(model, arguments.method, seed=arguments.seed, options=options)
    print(json.dumps(result.to_dict(), indent=2))
    return 0


def _handle_methods(arguments: argparse.Namespace) -> int:
    from repro.api.registry import default_registry

    def render_default(value) -> str:
        return json.dumps(value)

    for definition in default_registry():
        seed_note = " (consumes the seed)" if definition.requires_seed else ""
        print(f"{definition.name}{seed_note}")
        if definition.description:
            print(f"  {definition.description}")
        for option in definition.options:
            kind = option.type + ("|null" if option.allow_none else "")
            if option.minimum is not None:
                kind += f" >= {option.minimum}"
            if option.maximum is not None:
                kind += f" <= {option.maximum}"
            line = f"  --set {option.name}=...  {kind}, default {render_default(option.default)}"
            if option.help:
                line += f"  -- {option.help}"
            print(line)
    return 0


def _handle_study(arguments: argparse.Namespace) -> int:
    from repro.studies.runner import plan_study, run_study
    from repro.studies.spec import StudySpec

    spec = StudySpec.from_file(arguments.spec)
    if arguments.study_command == "show":
        planned = plan_study(spec)
        distinct = len({entry.digest for entry in planned})
        print(f"study:       {spec.name}")
        if spec.description:
            print(f"description: {spec.description}")
        base = dict(spec.base)
        base_label = (
            f"scenario {base['scenario']!r}"
            if "scenario" in base
            else f"inline model ({len(base['model']['p'])} faults)"
        )
        print(f"base:        {base_label}")
        print(f"seed:        {spec.seed}")
        for axis in spec.grid:
            print(f"grid axis:   {axis.name} ({len(axis.values)} values: {_preview(axis.values)})")
        for axis in spec.zipped:
            print(f"zip axis:    {axis.name} ({len(axis.values)} values: {_preview(axis.values)})")
        for method in spec.methods:
            options = ", ".join(f"{key}={value}" for key, value in method.options)
            print(f"method:      {method.name} ({options})")
        print(f"points:      {len(planned)} ({distinct} distinct evaluations)")
        for entry in planned[: arguments.points]:
            params = ", ".join(f"{key}={value}" for key, value in entry.point.params)
            print(f"  {entry.digest[:12]}  {entry.point.method.name:<10s}  {params}")
        if len(planned) > arguments.points:
            print(f"  ... {len(planned) - arguments.points} more")
        return 0

    formats = tuple(part.strip() for part in arguments.formats.split(",") if part.strip())
    unknown = sorted(set(formats) - set(TABLE_FORMATS))
    if unknown or not formats:
        # Fail before running the study; discovering this only at save time
        # would waste the whole evaluation.
        problem = f"unknown table format(s) {', '.join(unknown)}" if unknown else "no table format given"
        raise ValueError(f"{problem}; available: {', '.join(TABLE_FORMATS)}")
    cache_dir = None if arguments.cache_dir.lower() == "none" else arguments.cache_dir

    if arguments.trace_file is not None:
        # Pool tasks send their spans home in their replies, and this
        # process writes them.
        from repro import telemetry

        telemetry.configure(arguments.trace_file)

    def progress(done: int, total: int, computed: int) -> None:
        if not arguments.quiet:
            print(f"\r{done}/{total} evaluations ({computed} computed)", end="", file=sys.stderr)

    result = run_study(
        spec,
        cache_dir=cache_dir,
        jobs=arguments.jobs,
        force=arguments.force,
        progress=progress,
        keep_going=arguments.keep_going,
    )
    if not arguments.quiet:
        print(file=sys.stderr)
    written = result.save(arguments.output_dir, formats=formats)
    summary = dict(result.summary)
    summary["files"] = {kind: str(path) for kind, path in written.items()}
    print(json.dumps(summary, indent=2))
    return 0


def _handle_serve(arguments: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import EvaluationServer

    if not 0 < arguments.port < 65536:
        raise ValueError(f"port must be in 1..65535, got {arguments.port}")
    if arguments.request_timeout_ms < 0.0:
        raise ValueError(
            f"--request-timeout-ms must be >= 0 (0 disables the deadline), "
            f"got {arguments.request_timeout_ms:g}"
        )
    cache_dir = None if arguments.cache_dir.lower() == "none" else arguments.cache_dir
    if arguments.trace_file is not None and arguments.ship_traces is not None:
        raise ValueError(
            "--trace-file and --ship-traces are mutually exclusive: spans go "
            "to a local file or to a collector, not both"
        )
    server = EvaluationServer(
        workers=arguments.workers,
        cache_dir=cache_dir,
        lru_size=arguments.lru_size,
        max_inflight=arguments.max_inflight,
        max_queue=arguments.max_queue,
        request_timeout_ms=arguments.request_timeout_ms or None,
        slow_request_ms=arguments.slow_request_ms,
        cache_peers=tuple(arguments.cache_peer or ()),
    )
    # Pool jobs send their spans home in their replies, and this process
    # writes or ships them with its own; a shipper counts into the
    # server's registry, so /metrics carries spans_shipped/spans_dropped.
    if arguments.trace_file is not None:
        from repro import telemetry

        telemetry.configure(arguments.trace_file)
    elif arguments.ship_traces is not None:
        from repro.telemetry.collector import configure_shipping

        configure_shipping(arguments.ship_traces, registry=server.registry)
    try:
        asyncio.run(server.serve_forever(arguments.host, arguments.port))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    except OSError as error:
        raise ValueError(f"cannot bind {arguments.host}:{arguments.port}: {error}") from error
    return 0


def _handle_route(arguments: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster.router import ShardRouter

    if not arguments.shard:
        raise ValueError("route needs at least one --shard HOST:PORT")
    if not 0 < arguments.port < 65536:
        raise ValueError(f"port must be in 1..65535, got {arguments.port}")
    collector = None
    if arguments.collector_file is not None:
        from repro.telemetry.collector import TraceCollector

        collector = TraceCollector(arguments.collector_file)
    slo_objectives = None
    if arguments.slo_config is not None:
        from repro.telemetry.slo import load_objectives

        slo_objectives = load_objectives(arguments.slo_config)
    router = ShardRouter(
        arguments.shard,
        replicas=arguments.replicas,
        replication=arguments.replication,
        probe_interval_ms=arguments.probe_interval_ms,
        lru_size=arguments.lru_size,
        retries=arguments.retries,
        peer_routers=tuple(arguments.peer_router or ()),
        collector=collector,
        slo_objectives=slo_objectives,
    )
    if arguments.trace_file is not None:
        from repro import telemetry

        telemetry.configure(arguments.trace_file)
    try:
        asyncio.run(router.serve_forever(arguments.host, arguments.port))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    except OSError as error:
        raise ValueError(f"cannot bind {arguments.host}:{arguments.port}: {error}") from error
    return 0


def _handle_loadgen(arguments: argparse.Namespace) -> int:
    from repro.cluster.loadgen import run_loadgen, run_soak

    if arguments.soak_seconds is None and (
        arguments.kill_shard_at is not None or arguments.restart_shard_at is not None
    ):
        raise ValueError("--kill-shard-at/--restart-shard-at require --soak-seconds")
    if arguments.slo_max_burn is not None and arguments.soak_seconds is None:
        raise ValueError("--slo-max-burn requires --soak-seconds")
    if arguments.slo_max_burn is not None and arguments.slo_max_burn <= 0.0:
        raise ValueError(
            f"--slo-max-burn must be positive, got {arguments.slo_max_burn:g}"
        )
    if arguments.soak_seconds is not None:
        # The soak self-hosts its cluster; validation of the chaos timeline
        # (kill before restart, both inside the soak) lives in run_soak.
        record = run_soak(
            seed=arguments.seed,
            distinct=arguments.distinct,
            shards=arguments.shards,
            replication=arguments.replication,
            rate=arguments.rate,
            workers=arguments.workers,
            soak_seconds=arguments.soak_seconds,
            kill_shard_at=arguments.kill_shard_at,
            restart_shard_at=arguments.restart_shard_at,
            replications=arguments.replications,
            slo_max_burn=arguments.slo_max_burn,
        )
        print(json.dumps(record, indent=2))
        gate = (record.get("slo") or {}).get("gate")
        if gate is not None and not gate["passed"]:
            print(
                f"error: SLO burn-rate gate failed: {gate['violations']}",
                file=sys.stderr,
            )
            return 1
        return 0
    if not 0 < arguments.port < 65536:
        raise ValueError(f"port must be in 1..65535, got {arguments.port}")
    phases = tuple(phase.strip() for phase in arguments.phases.split(",") if phase.strip())
    if not phases:
        raise ValueError("--phases needs at least one of cold,warm,duplicates")
    record = run_loadgen(
        arguments.host,
        arguments.port,
        seed=arguments.seed,
        distinct=arguments.distinct,
        duplicate_factor=arguments.duplicate_factor,
        rate=arguments.rate,
        workers=arguments.workers,
        replications=arguments.replications,
        phases=phases,
    )
    print(json.dumps(record, indent=2))
    return 0


def _handle_cache(arguments: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.cache import ResultCache

    directory = Path(arguments.cache_dir)
    if directory.exists() and not directory.is_dir():
        raise ValueError(f"{arguments.cache_dir!r} is not a directory")
    if not directory.exists():
        # Inspecting or clearing a cache that was never created is fine --
        # and must not create it as a side effect.
        if arguments.cache_command == "info":
            print(json.dumps(
                {"path": str(directory.resolve()), "entries": 0, "bytes": 0, "exists": False},
                indent=2,
            ))
            return 0
        raise ValueError(f"cache directory {arguments.cache_dir!r} does not exist")
    cache = ResultCache(directory)
    if arguments.cache_command == "info":
        print(json.dumps({**cache.info(), "exists": True}, indent=2))
        return 0
    if not arguments.yes:
        entries = cache.info()["entries"]
        raise ValueError(
            f"refusing to clear {entries} cache entr{'y' if entries == 1 else 'ies'} "
            f"under {arguments.cache_dir!r} without --yes"
        )
    removed = cache.clear()
    print(json.dumps({"path": str(directory.resolve()), "removed": removed}, indent=2))
    return 0


def _handle_trace(arguments: argparse.Namespace) -> int:
    from repro.telemetry.summarize import format_summary, summarize_files

    if arguments.top < 1:
        raise ValueError(f"--top must be >= 1, got {arguments.top}")
    summary = summarize_files(arguments.file)
    if arguments.json:
        print(json.dumps(summary, indent=2))
    else:
        print(format_summary(summary, top=arguments.top))
    return 0


def _handle_top(arguments: argparse.Namespace) -> int:
    from repro.telemetry.top import run_top

    if not 0 < arguments.port < 65536:
        raise ValueError(f"port must be in 1..65535, got {arguments.port}")
    if arguments.interval <= 0.0:
        raise ValueError(f"--interval must be positive, got {arguments.interval:g}")
    if arguments.iterations is not None and arguments.iterations < 1:
        raise ValueError(f"--iterations must be >= 1, got {arguments.iterations}")
    try:
        return run_top(
            arguments.host,
            arguments.port,
            interval=arguments.interval,
            once=arguments.once,
            iterations=arguments.iterations,
            scope=arguments.scope,
        )
    except KeyboardInterrupt:
        return 0


def _preview(values: Sequence) -> str:
    rendered = [f"{value:.6g}" if isinstance(value, float) else str(value) for value in values]
    if len(rendered) <= 4:
        return ", ".join(rendered)
    return f"{rendered[0]}, {rendered[1]}, ..., {rendered[-1]}"


_HANDLERS = {
    "scenarios": _handle_scenarios,
    "pmax-table": _handle_pmax_table,
    "assess": _handle_assess,
    "gain": _handle_gain,
    "evaluate": _handle_evaluate,
    "methods": _handle_methods,
    "study": _handle_study,
    "serve": _handle_serve,
    "route": _handle_route,
    "loadgen": _handle_loadgen,
    "cache": _handle_cache,
    "trace": _handle_trace,
    "top": _handle_top,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code (0 success, 2 bad input)."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handler = _HANDLERS.get(arguments.command)
    if handler is None:  # unreachable with required=True; defensive
        print(f"error: unknown command {arguments.command!r}", file=sys.stderr)
        return 2
    try:
        return handler(arguments)
    except FileNotFoundError as error:
        print(f"error: file not found: {error.filename or error}", file=sys.stderr)
        return 2
    except (IsADirectoryError, PermissionError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
