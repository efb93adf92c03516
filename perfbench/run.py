#!/usr/bin/env python3
"""Benchmark of hazardnet, end to end and layer by layer.

Run from the root of a checkout (the program is imported from its ``src``):

    python3 perfbench/run.py --workload additive-cli --seed 1 --seconds 20 --trace 0

A run sets up several times (fresh-interpreter imports plus ground-truth
generation), then repeats whole rounds of the workload until ``--seconds``
have passed, then checks every round's outputs and runs the checks' self-test
on the last round. It prints one JSON object as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Times are medians over set-ups or rounds. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The benchmark always runs BLAS on one thread, set before numpy is first
# imported, so that cpu_s counts no idle BLAS spinning and an inherited
# setting cannot change the figures between two runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 25

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, click, hazardnet, hazardnet.cli; print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "simulate_s": "s", "infer_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "simulate.sample_s": "s", "simulate.events_per_s": "1/s", "simulate.generate_s": "s",
    "evaluate.predict_s": "s", "evaluate.compare_s": "s", "evaluate.split_s": "s",
    **{f"{m}.{k}": u for m in ("additive", "multiplicative") for k, u in (
        ("infer_s", "s"), ("iterations", "count"), ("infer_sys_s", "s"),
        ("infer_minor_faults", "count"), ("loglik_s", "s"), ("gradient_s", "s"), ("kkt_s", "s"))},
    "fileio.write_s": "s", "fileio.read_s": "s", "fileio.cascade_bytes": "B",
    **{f"cli.{c}_s": "s" for c in ("generate", "simulate", "infer", "evaluate", "predict",
                                  "overhead")},
    "traced_wall_s": "s",
}
SETUP_LAYERS = ("simulate.generate_s", "cli.generate_s")


def load_program():
    """Import hazardnet from this checkout's src, or exit with an error."""
    if not (SRC / "hazardnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'hazardnet'}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import hazardnet
    import hazardnet.cli

    if Path(hazardnet.__file__).resolve().parent != SRC / "hazardnet":
        sys.exit(f"perfbench: imported hazardnet from {hazardnet.__file__}, not from {SRC}")
    return hazardnet, hazardnet.cli


def import_seconds() -> float:
    """Import time of numpy, click and hazardnet in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def median_metrics(rows: list[dict]) -> dict:
    keys = {k for row in rows for k in row}
    return {k: statistics.median(row.get(k, 0.0) for row in rows) for k in keys}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    hn, cli = load_program()
    from tracing import Tracer
    from workloads import WORKLOADS, Ops

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](hn, cli, str(workdir), args.seed)
    tracer = Tracer() if args.trace else None

    setups, setup_layers = [], []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.install(workload.traced_module)
        start = time.perf_counter()
        workload.setup(tracer)
        setups.append(imported + time.perf_counter() - start)
        if tracer:
            tracer.uninstall()
            setup_layers.append(tracer.totals(first, len(tracer.spans)))

    rounds, results = [], []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < args.seconds:
        ops = Ops(tracer)
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.install(workload.traced_module)
        cpu, start = cpu_seconds(), time.perf_counter()
        results.append(workload.run(ops, len(rounds)))
        row = {"wall_s": time.perf_counter() - start, "cpu_s": cpu_seconds() - cpu,
               "simulate_s": ops.seconds["simulate"], "infer_s": ops.seconds["infer"]}
        if tracer:
            tracer.uninstall()
            row.update(tracer.totals(first, len(tracer.spans)))
        rounds.append((ops, row))
        print(f"round {len(rounds)}: wall {row['wall_s']:.3f} s, cpu {row['cpu_s']:.3f} s",
              file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    correct = True
    for (ops, _), result in zip(rounds, results):
        failed_labels = dict(ops.errors)
        for label, check in workload.check(result):
            # a check of an operation that already failed is not a new failure
            if not check.ok and label not in ops.errors:
                correct = False
                failed_labels.setdefault(label, f"check {check.name}: {check.detail}")
        attempted += ops.attempted
        failed += len(failed_labels)
        for label, why in failed_labels.items():
            print(f"FAILED {label}: {why}", file=sys.stderr)
    if workload.last is None:  # no round left outputs that the checks could all read
        correct = False
        print("SELF-TEST: not run, no round produced readable outputs", file=sys.stderr)
    else:
        for check in workload.self_test():
            if check.ok:
                correct = False
                print(f"SELF-TEST: {check.name} accepted a corrupted input ({check.detail})",
                      file=sys.stderr)

    rows = [row for _, row in rounds]
    if args.trace:
        layers = median_metrics(rows)
        layers.update({k: v for k, v in median_metrics(setup_layers).items() if k in SETUP_LAYERS})
        rates = [r["simulate.events"] / r["simulate.sample_s"] for r in rows
                 if r.get("simulate.sample_s", 0.0) > 0.0]
        layers["simulate.events_per_s"] = statistics.median(rates) if rates else 0.0
        layers["traced_wall_s"] = statistics.median(r["wall_s"] for r in rows)
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
        tracer.write(str(workdir / "spans.tsv"))
    else:
        values = median_metrics(rows)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}

    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    line = json.dumps(out)
    (workdir / "result.json").write_text(line + "\n", encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
