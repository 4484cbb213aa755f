"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload cold_mix --steady 5 --seconds 10

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
with nothing wrapped; ``--trace 1`` measures an untraced and then a traced
half-window and reports the per-layer metrics (see ``perfbench/README.md``).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed correctness
check exits 1; a tree without the program exits 2.

``--steady K`` runs the workload K times in fresh processes (seeds
``seed .. seed+K-1``, workload order alternating when several are given) and
prints each metric's median, quartiles, IQR share and max/min ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("warm_hits", "cold_mix", "study_sweep")


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]


def _print_table(workload: str, title: str, values: dict, units: dict) -> None:
    print(f"== {workload}: {title}")
    for name, unit in units.items():
        value = values.get(name, 0.0)
        print(f"  {name:<40} {value:>16.6g} {unit}")


def run_one(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from benchlib import workloads

    function = workloads.WORKLOADS[workload]
    for phase_dir in ("untraced", "traced"):
        (workdir / phase_dir).mkdir(parents=True, exist_ok=True)
    cache: dict = {}
    if trace:
        # setup_s is not reported here, so each half starts its topology once.
        plain = function(seed, seconds / 2.0, workdir / "untraced", cache=cache, repeats=1)
        traced = function(seed, seconds / 2.0, workdir / "traced", traced=True, cache=cache,
                          repeats=1)
        phases = [plain, traced]
        units = workloads.per_layer_units()
        values = dict(traced.layers)
        # Wall-clock figures and the CPU split come from the untraced half.
        values.update({name: plain.metrics[name] for name in workloads.WALL})
        values.update({f"{role}.cpu_ms_per_op": used for role, used in plain.cpu.items()})
        if workload == "study_sweep":
            base = 1.0 / plain.metrics["throughput_rps"]
            now = 1.0 / traced.metrics["throughput_rps"]
        else:
            base, now = plain.metrics["latency_p50_ms"], traced.metrics["latency_p50_ms"]
        values["trace_overhead_pct"] = 100.0 * (now / base - 1.0)
    else:
        plain = function(seed, seconds, workdir / "untraced", cache=cache)
        phases = [plain]
        units = workloads.END_TO_END
        values = dict(plain.metrics)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    for phase in phases:
        for note in phase.notes:
            print(f"  note: {note}")
        for problem in phase.problems[:20]:
            print(f"  CHECK FAILED: {problem}")
    _print_table(workload, "per-layer (traced run)" if trace else "end to end", values, units)
    if not trace:
        print("  -- wall clock and CPU split (reported, not gated)")
        for name, unit in workloads.WALL.items():
            print(f"  {name:<40} {plain.metrics[name]:>16.6g} {unit}")
        for role, used in plain.cpu.items():
            print(f"  {role + '.cpu_ms_per_op':<40} {used:>16.6g} ms")
    for name, (value, unit) in phases[-1].extras.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    if trace and workload != "study_sweep":
        print(f"  {'latency_p50_ms (traced phase)':<40} "
              f"{phases[1].metrics['latency_p50_ms']:>16.6g} ms")
    print(f"  {'error_rate':<40} {failed / max(attempted, 1):>16.6g} failed/attempted")
    return {
        "correct": all(phase.correct for phase in phases),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }


def steady(arguments) -> int:
    from benchlib.stats import spread

    names = NAMES if arguments.workload == "all" else (arguments.workload,)
    collected: dict = {name: {} for name in names}
    failures = 0
    for index in range(arguments.steady):
        order = names if index % 2 == 0 else tuple(reversed(names))
        for name in order:
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(arguments.seed + index), "--seconds", str(arguments.seconds),
                       "--trace", str(arguments.trace)]
            completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0:
                failures += 1
                print(completed.stdout + completed.stderr, file=sys.stderr)
                print(f"error: {name} seed {arguments.seed + index} exited "
                      f"{completed.returncode}", file=sys.stderr)
                if not lines or not lines[-1].startswith("{"):
                    continue
            result = json.loads(lines[-1])
            for metric, entry in result["metrics"].items():
                collected[name].setdefault(metric, []).append(entry["value"])
            figures = ", ".join(f"{metric}={entry['value']:.5g}"
                                for metric, entry in result["metrics"].items())
            print(f"{name} seed {arguments.seed + index}: correct={result['correct']} {figures}",
                  flush=True)
    summary = {}
    for name, metrics in collected.items():
        print(f"== {name}: {arguments.steady} runs")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min':>8}")
        summary[name] = {}
        for metric, values in metrics.items():
            figures = spread(values)
            summary[name][metric] = figures
            print(f"  {metric:<36} {figures['median']:>12.6g} {figures['q1']:>12.6g} "
                  f"{figures['q3']:>12.6g} {figures['iqr_share']:>8.3f} "
                  f"{figures['max_min_ratio']:>8.3f}")
    print(json.dumps(summary))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="run K times in fresh processes and print the spread")
    arguments = parser.parse_args(argv)
    _import_program()
    if arguments.steady:
        return steady(arguments)
    names = NAMES if arguments.workload == "all" else (arguments.workload,)
    work_root = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, arguments.seed, arguments.seconds,
                                    bool(arguments.trace), work_root / name)
    except Exception:  # noqa: BLE001 - any failure ends the run without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if len(results) == 1:
        output = results[names[0]]
    else:
        output = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, result in results.items()
                        for metric, entry in result["metrics"].items()},
        }
    print(json.dumps(output), flush=True)
    return 0 if output["correct"] and output["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
