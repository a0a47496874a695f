"""fdcalc benchmark: run one workload and print its metrics as a JSON line.

    python3 fdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: relations-symbolic, commutator-p2, suite-all (see README.md).
The program is imported from ``src/`` of the checkout holding this file.

``--trace 0`` prints the end-to-end metrics: ``verify_s`` (median wall time
of one complete pass), ``setup_s`` (median, over fresh processes, of the
time from process start to the first pass being ready) and ``peak_rss_mib``.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of ``tracing.py`` plus ``trace.overhead_ratio``; the spans are
written to ``fdbench/out/``.  Passes repeat until ``--seconds`` have passed
(at least the workload's minimum).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 9


def import_program():
    src = ROOT / "src"
    if not (src / "fdcalc" / "__init__.py").is_file():
        sys.exit(f"fdbench: no fdcalc sources under {src}")
    sys.path.insert(0, str(src))
    import fdcalc

    if not Path(fdcalc.__file__).resolve().is_relative_to(src):
        sys.exit(f"fdbench: fdcalc was imported from {fdcalc.__file__}, not from {src}")
    return fdcalc


def parse_args(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def build(args):
    import workloads

    fd = import_program()
    OUT.mkdir(exist_ok=True)
    return fd, workloads.make(args.workload, fd, args.seed, OUT)


def setup_times(args):
    """Wall time from starting a fresh interpreter on this script to its
    reporting that the workload's inputs are built."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            sys.exit(f"fdbench: set-up probe failed with exit status {child.returncode}")
        samples.append(elapsed)
    return samples


def timed_pass(wl, fd):
    import workloads

    workloads.cold_start(fd)
    t0 = time.perf_counter()
    out = wl.run_pass()
    return time.perf_counter() - t0, out


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        build(args)
        print("ready", flush=True)
        return 0

    fd, wl = build(args)
    setup = setup_times(args) if not args.trace else []
    wl.prepare()
    controls_ok = wl.negative_control()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(fd)
    plain, traced, layer_passes = [], [], []
    attempted = failed = 0
    notes = []
    start = time.perf_counter()
    while True:
        passes = len(plain) + len(traced)
        enough = passes >= max(wl.min_passes, 2 if tracer else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.install()
            try:
                dt, out = timed_pass(wl, fd)
            finally:
                tracer.uninstall()
            traced.append(dt)
            layer_passes.append(tracing.pass_metrics(tracer.collect(), tracer.check_names))
        else:
            dt, out = timed_pass(wl, fd)
            plain.append(dt)
        n, bad, why = wl.check_pass(out)
        attempted += n
        failed += bad
        notes += why

    bad, why = wl.finish()
    failed += bad
    notes += why
    if not controls_ok:
        wl.run_problems.append("the negative control was not caught by the checks")
    for line in (notes[:10] + wl.run_problems):
        print(f"fdbench: {line}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "verify_s": (statistics.median(plain), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics, unsteady = tracing.combine(layer_passes)
        for name in unsteady:
            print(f"fdbench: count metric {name} differs between traced passes", file=sys.stderr)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain), "ratio"
        )
        absent = sorted(tracer.absent)
        if absent:
            print(f"fdbench: absent from the program: {', '.join(absent)}", file=sys.stderr)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "plain_pass_s": plain, "traced_pass_s": traced,
            "passes": [{k: v for k, (v, _) in p.items()} for p in layer_passes],
            "spans": tracer.span_records(),
        }))

    print(json.dumps({
        "correct": not wl.run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
