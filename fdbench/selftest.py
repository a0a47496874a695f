"""Self-test of the fdcalc benchmark on tiny sizes of each workload.

    python3 fdbench/selftest.py

Checks that each workload passes its own checks and catches its negative
control, that a deliberately wrong expected value is counted as a failed
operation and not as a crash, that the tracer emits exactly the per-layer
metrics of BENCHMARK.json and restores the program, that a missing probe
target is reported absent, and that run.py refuses a directory without the
program.  Exit status 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
import tracing
import workloads

FAILURES = []


def check(label, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {label}{'  ' + str(detail) if detail and not ok else ''}")
    if not ok:
        FAILURES.append(label)


def run_passes(wl, passes=1):
    wl.prepare()
    attempted = failed = 0
    notes = []
    for _ in range(passes):
        workloads.cold_start(wl.fd)
        n, bad, why = wl.check_pass(wl.run_pass())
        attempted, failed, notes = attempted + n, failed + bad, notes + why
    bad, why = wl.finish()
    return attempted, failed + bad, notes + why


class WrongTruncation(workloads.RelationsSymbolic):
    def expected_trunc_len(self, m, n):
        return super().expected_trunc_len(m, n) + 1


def tiny_workloads(fd):
    return (
        workloads.RelationsSymbolic(fd, 0, mode_bound=1, grade=2, extend=2),
        workloads.CommutatorP2(fd, 0, flavor_lo=0, flavor_hi=0, grade=1),
        workloads.SuiteAll(fd, 0, run.OUT, settings={
            "suite": "dvir", "p": "2", "grade": 2, "modes": 1, "jobs": 1,
        }),
    )


def main():
    t0 = time.perf_counter()
    fd = run.import_program()
    run.OUT.mkdir(exist_ok=True)

    check("strict partitions of 0..6", workloads.strict_partition_counts(6) == [1, 1, 1, 2, 2, 3, 4])
    for wl in tiny_workloads(fd):
        got = run_passes(wl, passes=wl.min_passes)
        check(f"{wl.name}: tiny passes have no failed operation", got[1] == 0 and got[0] > 0, got)
        check(f"{wl.name}: no run-level problem", not wl.run_problems, wl.run_problems)
        if type(wl).negative_control is not workloads.Workload.negative_control:
            check(f"{wl.name}: negative control caught", wl.negative_control())

    wrong = WrongTruncation(fd, 0, mode_bound=1, grade=2, extend=2)
    got = run_passes(wrong)
    check("wrong expected trunc_len: every operation failed, none crashed",
          got[:2] == (9, 9), got[:2])
    rel = workloads.RelationsSymbolic(fd, 0, mode_bound=1, grade=2)
    rel.prepare()
    rel._centrals = {(1, "2*p"): 3, (1, "(2*p^2 + 4*p + 2)/p"): 4}
    check("wrong central term: counted as failed by the sympy oracle",
          rel.finish()[0] == 3, rel.finish())

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    emitted = set()
    for wl in tiny_workloads(fd):
        wl.prepare()
        tracer = tracing.Tracer(fd)
        original = fd.vir_relation_check
        tracer.install()
        try:
            wl.check_pass(wl.run_pass())
        finally:
            tracer.uninstall()
        metrics = tracing.pass_metrics(tracer.collect(), tracer.check_names)
        emitted |= set(metrics) | {"trace.overhead_ratio"}
        check(f"{wl.name}: tracer restores the program", fd.vir_relation_check is original)
        check(f"{wl.name}: nothing absent", not tracer.absent, tracer.absent)
        busy = {
            "relations-symbolic": ("scalars.ratfunc_new", "fock.gen_calls",
                                   "dvir.vir_relation_check_calls"),
            "commutator-p2": ("series.mul_calls", "fieldcalc.commutator_check_calls",
                              "fieldcalc.shifts_contributing"),
            "suite-all": ("suites.run_suite_s", "dvir.theorem59_suite_s",
                          "distributions.delta_fit_calls"),
        }[wl.name]
        check(f"{wl.name}: traced layers report work", all(metrics[k][0] > 0 for k in busy),
              {k: metrics[k] for k in busy})
    check("tracer emits exactly the per-layer metrics of BENCHMARK.json",
          emitted == declared, emitted ^ declared)

    gone = tracing.Tracer(fd, probes=[tracing.Probe("series", "series:no_such_function",
                                                    "series.gone", "series.gone_calls")])
    gone.install()
    gone.uninstall()
    check("missing probe target is absent, not an error",
          {"series.gone", "series.gone_calls"} <= gone.absent)
    raw = tracing.Raw({"series.mul_calls": 3}, {}, {}, {"series.mul_calls"})
    check("absent counter leaves its metric out",
          "series.mul_calls" not in tracing.pass_metrics(raw, []))

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "fdbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "fdbench/run.py", "--workload", "suite-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    check("without the program run.py exits nonzero and prints no result",
          done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout))

    print(f"{len(FAILURES)} failed, {time.perf_counter() - t0:.1f} s")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
