"""Alternated parent/change perfbench pairs, appended to the perf ledger.

Usage::

    python3 benchmarks/pairs.py --parent REV --pr N --kind K \\
        [--claim-metric M --claim-workload W]

Checks ``REV`` out with ``git worktree add --detach`` in a temporary
directory (local git only) and removes that worktree at the end.  For each
workload in ``BENCHMARK.json`` and seeds 11-20 it runs
``python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0`` in
the parent tree and in this one, the parent first on odd seeds, and reads
each run's last stdout line.  A run that exits non-zero, reads
``"correct": false`` or has ``failed > 0`` stops the script.

It then appends one entry to ``BENCH_trajectory.json``: per (workload,
end-to-end metric) the nine keys the ledger's schema test names.  Medians
and quartiles are those of :func:`statistics.quantiles` (``n=4``), as in
``perfbench/benchlib/stats.py:spread``; ``pairs_won`` counts the pairs in
which the change is better by the metric's ``better`` (ties count for
neither side).  The ledger's earlier bytes are left as they are.

Once every workload's untraced pairs are in, each workload gets
``TRACED`` traced runs per side (``--trace 1``, seeds 11-13, alternated the
same way), and the entry's ``layers`` object holds, per workload and per
``per_layer`` metric of ``BENCHMARK.json`` that reads nonzero on either
side, both sides' medians and IQRs.  A moved end-to-end metric then names
its layer; the traced runs come after the untraced ones, so they cannot
disturb the end-to-end figures.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_trajectory.json"
SEEDS = tuple(range(11, 21))
SECONDS = 10
#: Traced runs per side and workload: the fewest that have an IQR.
TRACED = 3


def _iqr(values: Sequence[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return round(q3 - q1, 4)


def spread(parent: Sequence[float], change: Sequence[float]) -> dict:
    """Both sides' medians and IQRs."""
    return {
        "parent_median": round(statistics.median(parent), 4),
        "change_median": round(statistics.median(change), 4),
        "parent_iqr": _iqr(parent),
        "change_iqr": _iqr(change),
    }


def summarize(workload: str, metric: str, better: str, seeds: Sequence[int],
              parent: Sequence[float], change: Sequence[float]) -> dict:
    """One ledger measurement from paired runs (``parent[i]``, ``change[i]``
    ran on ``seeds[i]``)."""
    if not len(seeds) == len(parent) == len(change) >= 2:
        raise ValueError("need at least two pairs, one value per side per seed")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "lower" else -1
    return {
        "workload": workload,
        "metric": metric,
        "seeds": list(seeds),
        "pairs": len(seeds),
        **spread(parent, change),
        "pairs_won": sum(sign * (old - new) > 0 for old, new in zip(parent, change)),
    }


def summarize_layers(names: Sequence[str], parent: Sequence[dict],
                     change: Sequence[dict]) -> dict:
    """Per-layer spreads of traced runs, for each of ``names`` nonzero on either side."""
    layers = {}
    for name in names:
        old = [values.get(name, 0.0) for values in parent]
        new = [values.get(name, 0.0) for values in change]
        if any(old) or any(new):
            layers[name] = spread(old, new)
    return layers


def run_side(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One ``perfbench/run.py --trace {trace}`` run in ``tree``: its metric values
    (end-to-end untraced, per-layer traced)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    # The run puts its own tree's src first; drop a caller's path to either tree.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if completed.returncode != 0 or result is None or not result["correct"] or result["failed"]:
        sys.stderr.write(completed.stdout[-4000:] + completed.stderr[-4000:])
        raise SystemExit(f"error: {workload} seed {seed} in {tree} exited "
                         f"{completed.returncode} with {lines[-1] if lines else 'no output'}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def alternate(parent_tree: Path, workload: str, seeds: Sequence[int],
              trace: int = 0) -> dict[str, list[dict]]:
    """One run per side per seed, the parent first on odd seeds."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    trees = {"parent": parent_tree, "change": ROOT}
    for seed in seeds:
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            runs[side].append(run_side(trees[side], workload, seed, trace))
            label = f"{workload} seed {seed} {side}{' traced' if trace else ''}"
            print(f"{label}: {runs[side][-1]}", flush=True)
    return runs


def measure(parent_tree: Path, benchmark: dict) -> tuple[list[dict], dict]:
    """The entry's end-to-end ``measurements`` and its per-layer ``layers``."""
    measurements = []
    workloads = [item["name"] for item in benchmark["workloads"]]
    for workload in workloads:
        runs = alternate(parent_tree, workload, SEEDS)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            measurements.append(summarize(
                workload, name, metric["better"], SEEDS,
                [values[name] for values in runs["parent"]],
                [values[name] for values in runs["change"]],
            ))
    layers = {}
    layer_names = [metric["name"] for metric in benchmark["per_layer"]]
    for workload in workloads:
        runs = alternate(parent_tree, workload, SEEDS[:TRACED], trace=1)
        layers[workload] = summarize_layers(layer_names, runs["parent"], runs["change"])
    return measurements, layers


def append_entry(entry: dict) -> None:
    """Append ``entry`` to the ledger, leaving its earlier bytes as they are."""
    text = LEDGER.read_text(encoding="utf-8").rstrip()
    if not text.endswith("]"):
        raise SystemExit(f"error: {LEDGER} does not end with a JSON list")
    body = "\n".join("  " + line for line in json.dumps(entry, indent=2).splitlines())
    LEDGER.write_text(text[:-1].rstrip() + ",\n" + body + "\n]\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--pr", required=True, type=int, metavar="N")
    parser.add_argument("--kind", required=True, metavar="K")
    parser.add_argument("--claim-metric", metavar="M")
    parser.add_argument("--claim-workload", metavar="W")
    arguments = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    workloads = [item["name"] for item in benchmark["workloads"]]
    claim = None
    if (arguments.claim_metric is None) != (arguments.claim_workload is None):
        parser.error("--claim-metric and --claim-workload go together")
    if arguments.claim_metric is not None:
        if arguments.claim_metric not in better or arguments.claim_workload not in workloads:
            parser.error(f"the claim names one of {workloads} and one of {sorted(better)}")
        claim = f"{better[arguments.claim_metric]} {arguments.claim_workload} " \
                f"{arguments.claim_metric}"
    last = json.loads(LEDGER.read_text(encoding="utf-8"))[-1]["pr"]
    if arguments.pr <= last:
        parser.error(f"--pr must follow the ledger's last entry, PR {last}")

    scratch = Path(tempfile.mkdtemp(prefix="repro-pairs-"))
    parent_tree = scratch / "parent"
    subprocess.run(["git", "worktree", "add", "--detach", str(parent_tree), arguments.parent],
                   cwd=ROOT, check=True)
    try:
        measurements, layers = measure(parent_tree, benchmark)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)], cwd=ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    append_entry({
        "pr": arguments.pr,
        "kind": arguments.kind,
        "claim": claim,
        "date": datetime.date.today().isoformat(),
        "measurements": measurements,
        "layers": layers,
    })
    print(f"appended PR {arguments.pr}'s entry to {LEDGER.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
