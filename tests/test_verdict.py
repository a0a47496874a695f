"""The one verdict rule (``dvir.verdict``) and the report ids it keeps fixed."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import fdcalc.distributions as distributions
import fdcalc.dvir as dv
import fdcalc.fieldcalc as fc
import fdcalc.suites as suites
from fdcalc.cli import main
from fdcalc.distributions import WindowTooSmall
from fdcalc.fieldcalc import CompatibilityError, QuadrantUndetermined
from fdcalc.series import InsufficientWindow
from fdcalc.suites import SuiteConfig, run_suite

DATA = Path(__file__).parent / "data"
PHI_IDS = {
    "trig-locality",
    "anticommutator-delta-kernel",
    "covariance-rescaling",
    "exp-substitution-associativity",
    "top-mode-identity",
}
SMALL_PHI = SuiteConfig(
    suite="phi-module", p=Fraction(2), grade=1, flavor_lo=0, flavor_hi=1, zorder=3
)


def test_nothing_yielded_passes():
    assert dv.verdict(iter(())) == (True, None)


@pytest.mark.parametrize("ce", [0, (), {}])
def test_a_falsy_counterexample_still_fails(ce):
    assert dv.verdict(iter([ce])) == (False, ce)


@pytest.mark.parametrize(
    "exc",
    [
        InsufficientWindow("window x1 <= 3 too low"),
        WindowTooSmall("order exceeds 4"),
        QuadrantUndetermined("undetermined on box 3: None"),
    ],
)
def test_a_window_that_cannot_decide_is_undetermined(exc):
    def failures():
        raise exc
        yield

    assert dv.verdict(failures()) == (None, str(exc))


def test_a_compatibility_error_that_decides_fails():
    def failures():
        raise CompatibilityError("incompatible on box 3: (1, 2)")
        yield

    ok, detail = dv.verdict(failures())
    assert ok is False and "incompatible on box 3" in detail


def test_nothing_after_the_first_counterexample_runs():
    ran = []

    def failures():
        yield "first"
        ran.append("after")
        yield "second"

    assert dv.verdict(failures()) == (False, "first")
    assert ran == []


def _undetermined_assoc(*args, **kwargs):
    raise QuadrantUndetermined("undetermined on box {'x1': (-5, 5)}: None")


def test_undecided_associativity_is_undetermined(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(dv, "assoc_check", _undetermined_assoc)
    triples = dv.theorem58_suite(dv.DVirParams.at(2), flavor_lo=0, flavor_hi=1,
                                 grade_bound=1, zorder=3)
    assert {cid: ok for cid, ok, _ in triples}["exp-substitution-associativity"] is None
    report = tmp_path / "phi.json"
    rc = main(["phi-module", "--p", "2", "--grade", "1", "--flavors", "0..1", "--zorder", "3",
               "--report", str(report)])
    assert rc == 2
    assert "UNDETERMINED exp-substitution-associativity" in capsys.readouterr().out
    status = {c["id"]: c["status"] for c in json.loads(report.read_text())["checks"]}
    assert status.pop("exp-substitution-associativity") == "undetermined"
    assert all(status[cid] == "pass" for cid in PHI_IDS - {"exp-substitution-associativity"})


def test_a_window_error_in_one_theorem58_verdict_keeps_every_id(monkeypatch):
    def covariance_check(*args):
        raise InsufficientWindow("covariance window too small")

    monkeypatch.setattr(dv, "covariance_check", covariance_check)
    results = {r.check_id: r for r in run_suite(SMALL_PHI)}
    assert PHI_IDS <= set(results)
    cov = results["covariance-rescaling"]
    assert cov.status == "undetermined"
    assert cov.counterexample == {"note": "covariance window too small"}
    assert all(results[cid].status == "pass" for cid in PHI_IDS - {"covariance-rescaling"})


def test_a_crash_in_the_residue_check_fails_both_ids(monkeypatch):
    def residue_ye(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(suites, "residue_ye", residue_ye)
    results = {r.check_id: r for r in run_suite(SMALL_PHI)}
    assert not any(cid.startswith("crash-") for cid in results)
    for cid in ("residue-formula-agreement", "residue-top-mode"):
        assert results[cid].status == "fail"
        assert results[cid].counterexample == {"note": repr(RuntimeError("boom"))}


def test_a_window_error_in_a_single_check_keeps_its_id(monkeypatch):
    def delta_fit(*args):
        raise InsufficientWindow("delta fit needs a finite x1 ceiling")

    # the roundtrip fits through delta_agree, which reads distributions.delta_fit
    monkeypatch.setattr(distributions, "delta_fit", delta_fit)
    monkeypatch.setitem(suites.SUITES, "fixture", [suites.check_delta_fit_roundtrip])
    (res,) = run_suite(SuiteConfig(suite="fixture", p=Fraction(2)))
    assert (res.check_id, res.status) == ("delta-fit-roundtrip", "undetermined")
    assert res.window == "radius 18, 50 trials"
    assert res.counterexample == {"note": "delta fit needs a finite x1 ceiling"}


def test_an_undecided_factorization_window_is_undetermined(tmp_path, capsys):
    # a margin wider than the box leaves the quadrant verdict undecided
    triples = dv.theorem59_suite(dv.DVirParams.at(2), mode_bound=1, grade_bound=1, margin=60)
    ok, detail = {cid: (ok, d) for cid, ok, d in triples}["defect-factorization"]
    assert ok is None and detail.startswith("undetermined on box")
    report = tmp_path / "dvir.json"
    rc = main(["dvir", "--p", "2", "--grade", "1", "--modes", "1", "--window-margin", "60",
               "--report", str(report)])
    assert rc == 2
    assert "UNDETERMINED defect-factorization" in capsys.readouterr().out
    status = {c["id"]: c["status"] for c in json.loads(report.read_text())["checks"]}
    assert status.pop("defect-factorization") == "undetermined"
    assert set(status.values()) == {"pass"}


def test_an_incompatible_factorization_still_fails(monkeypatch):
    def incompatible(F, margin=2):
        return fc.CompatVerdict("incompatible", None, {}, {"x1": -9, "x2": 0})

    monkeypatch.setattr(fc, "quadrant_verdict", incompatible)
    triples = dv.theorem59_suite(dv.DVirParams.at(2), mode_bound=1, grade_bound=1)
    ok, detail = {cid: (ok, d) for cid, ok, d in triples}["defect-factorization"]
    assert ok is False and "incompatible on box" in detail


def test_a_one_flavor_window_leaves_the_neighbor_checks_undetermined(capsys):
    # with one flavor there is no neighbor pair to associate or split into top
    # modes, and covariance could only compare a field with itself at shift 0
    triples = dv.theorem58_suite(dv.DVirParams.at(2), flavor_lo=0, flavor_hi=0,
                                 grade_bound=1, zorder=3)
    verdicts = {cid: (ok, detail) for cid, ok, detail in triples}
    assert set(verdicts) == PHI_IDS
    undecided = {"exp-substitution-associativity", "top-mode-identity", "covariance-rescaling"}
    for cid in undecided:
        ok, detail = verdicts[cid]
        assert ok is None and "flavor window 0..0" in detail, (cid, detail)
    assert all(verdicts[cid][0] is True for cid in PHI_IDS - undecided)
    rc = main(["phi-module", "--p", "2", "--grade", "1", "--flavors", "0..0", "--zorder", "3"])
    assert rc == 2
    out = capsys.readouterr().out
    assert all(f"UNDETERMINED {cid}" in out for cid in undecided)


def test_every_id_of_verify_all_reports_its_window():
    cfg = SuiteConfig(
        suite="all", p=Fraction(2), grade=1, modes=1, flavor_lo=0, flavor_hi=1, zorder=3
    )
    checks = suites.report_document(cfg, run_suite(cfg))["checks"]
    assert len(checks) == 28
    assert [c["id"] for c in checks if c["window"] is None] == []


def test_a_small_verify_all_report_matches_the_committed_one(tmp_path):
    # ids, statuses, windows and counterexamples of every check, pinned: a
    # refactor that moves any of them fails here, not in a hand diff
    report = tmp_path / "all.json"
    rc = main(["all", "--jobs", "1", "--p", "2", "--grade", "1", "--flavors", "0..1",
               "--zorder", "3", "--report", str(report)])
    assert rc == 0
    got = json.loads(report.read_text())
    got.pop("timings")
    want = json.loads((DATA / "verify_all_p2_grade1_flavors0-1_zorder3.json").read_text())
    assert got == want
