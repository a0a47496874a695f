"""The three benchmark workloads, each driven through fdcalc's public API.

A workload is built once (``__init__``: the configs and inputs, timed as
set-up), prepares its independent expectations (``prepare``, untimed), then
runs whole passes.  ``run_pass`` is the timed part; ``check_pass`` compares
its outputs with values computed apart from the program and returns how many
operations were attempted and how many failed.  A failed operation is one
that raised or whose output disagrees with the expectation; problems that are
not about a single operation (cross-pass identity, the basis size) go into
``run_problems`` and make the run incorrect.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


def cold_start(fd):
    """Empty the process-wide cache a fresh ``verify`` process starts without,
    so every pass pays what one invocation pays."""
    cache = getattr(getattr(fd, "dvir", None), "_F_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


def strict_partition_counts(grade):
    """Number of partitions of 0..grade into distinct positive parts."""
    counts = [0] * (grade + 1)
    parts = range(1, grade + 1)
    for k in range(grade + 1):
        for combo in itertools.combinations(parts, k):
            if sum(combo) <= grade:
                counts[sum(combo)] += 1
    return counts


class Workload:
    name = ""
    min_passes = 1

    def __init__(self, fd, seed):
        self.fd = fd
        self.seed = seed
        self.run_problems = []

    def prepare(self):
        pass

    def run_pass(self):
        raise NotImplementedError

    def check_pass(self, out):
        """Returns (attempted, failed, notes on the failed operations)."""
        raise NotImplementedError

    def negative_control(self):
        """True when a deliberately wrong input is caught by the checks."""
        return True

    def finish(self):
        """Checks deferred to the end of the run: (failed operations, notes)."""
        return 0, []


class RelationsSymbolic(Workload):
    """Criterion 2's relation grid over Q(p): one operation is one (m, n)."""

    name = "relations-symbolic"

    def __init__(self, fd, seed, mode_bound=4, grade=6, extend=5):
        super().__init__(fd, seed)
        self.grade, self.extend = grade, extend
        self.params = fd.DVirParams.symbolic()
        self.pairs = [(m, n) for m in range(-mode_bound, mode_bound + 1)
                      for n in range(-mode_bound, mode_bound + 1)]
        random.Random(seed).shuffle(self.pairs)

    def prepare(self):
        self.basis_size = 2 * sum(strict_partition_counts(self.grade))
        self._centrals = {}  # (m, rendered central term) -> operations that reported it

    def expected_trunc_len(self, m, n):
        return max(0, self.grade + 1 - min(m, n))

    def problems(self, m, n, rep):
        if isinstance(rep, Exception):
            return [f"raised {rep!r}"]
        out = []
        if (rep.m, rep.n) != (m, n):
            out.append(f"report is for ({rep.m}, {rep.n})")
        if rep.defect:
            out.append(f"nonzero defect at {rep.defect_at}")
        if not rep.stable:
            out.append("truncation certificate unstable")
        want = self.expected_trunc_len(m, n)
        if rep.trunc_len != want:
            out.append(f"trunc_len {rep.trunc_len} != {want}")
        if m + n != 0 and rep.central:
            out.append(f"central {rep.central!r} off the diagonal m + n = 0")
        return out

    def run_pass(self):
        fd = self.fd
        module = fd.t_fock(self.params)
        reports = []
        for m, n in self.pairs:
            try:
                rep = fd.vir_relation_check(module, self.params, m, n, self.grade,
                                            extend=self.extend)
            except Exception as exc:  # a raising operation is a failed one
                rep = exc
            reports.append(rep)
        return module, reports

    def check_pass(self, out):
        module, reports = out
        size = len(module.basis(self.grade))
        if size != self.basis_size:
            self.run_problems.append(f"basis has {size} vectors, expected {self.basis_size}")
        notes = []
        for (m, n), rep in zip(self.pairs, reports):
            bad = self.problems(m, n, rep)
            if bad:
                notes.append(f"({m},{n}): {'; '.join(bad)}")
            elif m + n == 0:
                key = (m, rep.central.render() if hasattr(rep.central, "render")
                       else str(rep.central))
                self._centrals[key] = self._centrals.get(key, 0) + 1
        return len(self.pairs), len(notes), notes

    def finish(self):
        """Checks every central term reported on m + n = 0 against sympy's closed
        form; the operations that reported a differing one fail."""
        oracle = Path(__file__).with_name("oracle.py")
        done = subprocess.run([sys.executable, str(oracle)], input=json.dumps(list(self._centrals)),
                              capture_output=True, text=True, check=True)
        bad = [tuple(x) for x in json.loads(done.stdout)]
        return (sum(self._centrals[k] for k in bad),
                [f"(m,-m) with m={m}: central {text} differs from the closed form"
                 for m, text in bad])

    def negative_control(self):
        """The (1, -1) relation of a p = 2 module checked with p = 3 parameters."""
        fd = self.fd
        module = fd.t_fock(fd.DVirParams.at(Fraction(2)))
        rep = fd.vir_relation_check(module, fd.DVirParams.at(Fraction(3)), 1, -1, self.grade,
                                    extend=self.extend)
        return any("defect" in p for p in self.problems(1, -1, rep))


class CommutatorP2(Workload):
    """The covariant commutator formula at p = 2 in criterion 7's shape:
    one operation is one (r, s, basis vector) triple."""

    name = "commutator-p2"

    def __init__(self, fd, seed, flavor_lo=-1, flavor_hi=2, grade=2, zorder=6, margin=2):
        super().__init__(fd, seed)
        self.grade, self.zorder, self.margin = grade, zorder, margin
        self.hi = grade + 5
        self.box = {"x1": (-self.hi + 1, self.hi - 1), "x2": (-self.hi + 1, self.hi - 1)}
        self.params = fd.DVirParams.at(Fraction(2))
        size = len(fd.t_fock(self.params).basis(grade))
        flavors = range(flavor_lo, flavor_hi + 1)
        self.triples = [(r, s, i) for r in flavors for s in flavors for i in range(size)]
        random.Random(seed).shuffle(self.triples)

    def datum(self, module, r, s, chi):
        """Locality datum with the minimal annihilator (y - p^(s+1-r))(y - p^(s-1-r)),
        and the realization r -> T(p^r x) with character ``chi`` on the shift
        window two beyond the annihilator's roots."""
        fd = self.fd
        fld = self.params.field
        one = fld.one()

        def field(flavor):
            return fd.FieldOperator(module, "T", fld.p_power(flavor))

        a, b = field(r), field(s)
        roots = ((fld.p_power(s + 1 - r), 1), (fld.p_power(s - 1 - r), 1))
        L = fd.LocalityDatum(a, b, ((b, a, fd.FactoredRational(-one)),),
                             fd.FactoredRational(one, 0, roots))
        lo, hi = sorted((s + 1 - r, s - 1 - r))
        return L, fd.CovariantStructure(field, chi, lo - 2, hi + 2)

    def check(self, L, C, w):
        try:
            return self.fd.commutator_formula_check(
                L, C, w, self.box, self.zorder, self.hi, self.hi, self.margin
            )
        except Exception as exc:  # a raising operation is a failed one
            return exc

    def run_pass(self):
        module = self.fd.t_fock(self.params)
        basis = module.basis(self.grade)
        chi = self.params.field.p_power
        data = {}
        results = []
        for r, s, i in self.triples:
            if (r, s) not in data:
                data[(r, s)] = self.datum(module, r, s, chi)
            results.append(self.check(*data[(r, s)], basis[i]))
        return results

    def problems(self, r, s, res):
        if isinstance(res, Exception):
            return [f"raised {res!r}"]
        ok, ce, contrib = res
        out = []
        if not ok:
            out.append(f"formula fails at {ce}")
        want = sorted({s + 1 - r, s - 1 - r})
        got = sorted(n for n, _, _ in contrib)
        if got != want:
            out.append(f"kernels at shifts {got}, expected {want}")
        for n, c, _ in contrib:
            if c != Fraction(2) ** n:
                out.append(f"shift {n} has character {c!r}, expected 2^{n}")
        return out

    def check_pass(self, out):
        notes = []
        for (r, s, i), res in zip(self.triples, out):
            bad = self.problems(r, s, res)
            if bad:
                notes.append(f"(r,s,w)=({r},{s},{i}): {'; '.join(bad)}")
        return len(self.triples), len(notes), notes

    def negative_control(self):
        """The check with character n -> p^(2n) must report a counterexample."""
        module = self.fd.t_fock(self.params)
        fld = self.params.field
        L, C = self.datum(module, 0, 0, lambda n: fld.p_power(2 * n))
        res = self.check(L, C, module.vacuum())
        return not isinstance(res, Exception) and any(
            p.startswith("formula fails") for p in self.problems(0, 0, res)
        )


class SuiteAll(Workload):
    """``verify all`` at criterion 10's settings through ``fdcalc.cli.main``:
    one operation is one check in the report."""

    name = "suite-all"
    min_passes = 2  # the report of every pass is compared with the first

    def __init__(self, fd, seed, out_dir, settings=None):
        super().__init__(fd, seed)
        self.cli = importlib.import_module(fd.__name__ + ".cli")
        self.settings = settings or {
            "suite": "all", "p": "2", "grade": 3, "flavors": "-1..1", "zorder": 5, "jobs": 2,
        }
        self.settings = dict(self.settings, seed=seed)
        self.report = out_dir / f"{self.name}-{os.getpid()}.json"
        self.argv = [self.settings["suite"]] + [
            f"--{k}={v}" for k, v in self.settings.items() if k != "suite"
        ] + [f"--report={self.report}"]
        self._first = None

    def run_pass(self):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return self.cli.main(self.argv)
            except Exception as exc:  # a raising pass fails all its operations
                return exc

    def check_pass(self, rc):
        if isinstance(rc, Exception):
            self.run_problems.append(f"verify raised {rc!r}")
            return 1, 1, [repr(rc)]
        doc = json.loads(self.report.read_text())
        self.report.unlink()
        checks = doc["checks"]
        notes = [f"{c['id']}: {c['status']} {c.get('counterexample')}"
                 for c in checks if c["status"] != "pass"]
        statuses = [c["status"] for c in checks]
        summary = {s: statuses.count(s) for s in ("pass", "fail", "undetermined")}
        if doc["summary"] != summary:
            self.run_problems.append(f"summary {doc['summary']} != recount {summary}")
        if (rc == 0) != (not notes):
            self.run_problems.append(f"exit status {rc} with {len(notes)} non-passing checks")
        for k, v in self.settings.items():
            if str(doc["config"].get(k)) != str(v):
                self.run_problems.append(f"config {k} = {doc['config'].get(k)!r}, asked {v!r}")
        doc.pop("timings")
        payload = json.dumps(doc, indent=2, sort_keys=True)
        if self._first is None:
            self._first = payload
        elif payload != self._first:
            self.run_problems.append("reports of two passes differ outside timings")
        return len(checks), len(notes), notes


def make(name, fd, seed, out_dir):
    if name == RelationsSymbolic.name:
        return RelationsSymbolic(fd, seed)
    if name == CommutatorP2.name:
        return CommutatorP2(fd, seed)
    if name == SuiteAll.name:
        return SuiteAll(fd, seed, out_dir)
    raise SystemExit(f"unknown workload {name!r}")


NAMES = (RelationsSymbolic.name, CommutatorP2.name, SuiteAll.name)
