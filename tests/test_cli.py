import dataclasses
import functools
import itertools
import json
import os
from fractions import Fraction

import pytest

import fdcalc.suites as suites
from fdcalc.cli import main, parse_flavors, read_config_file, render_report
from fdcalc.suites import (
    CheckResult,
    ConfigError,
    SuiteConfig,
    exit_status,
    report_document,
    run_suite,
)


def test_parse_helpers():
    assert parse_flavors("-2..3") == (-2, 3)
    assert SuiteConfig(p="symbolic").p == "symbolic"
    assert SuiteConfig(p="3/2").p == Fraction(3, 2)
    assert SuiteConfig(p="3/2") == SuiteConfig(p=Fraction(3, 2))
    with pytest.raises(ConfigError):
        parse_flavors("abc")
    with pytest.raises(ConfigError):
        SuiteConfig(p="q")


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(grade=0)
    with pytest.raises(ConfigError):
        SuiteConfig(p=Fraction(1))
    for inexact in (0.5, 2.0, True):
        with pytest.raises(ConfigError, match=f"p must be exact.*{inexact!r}"):
            SuiteConfig(p=inexact)
    assert SuiteConfig(p="1/2").scalar_field().p0 == Fraction(1, 2)
    with pytest.raises(ConfigError):
        SuiteConfig(flavor_lo=2, flavor_hi=1)
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suite="nope"))


def test_config_names_a_p_string_that_is_not_a_rational():
    for bad in ("1/0", "abc", "2/"):
        with pytest.raises(ConfigError, match=f"p must be a rational.*{bad!r}"):
            SuiteConfig(p=bad)


def test_exit_status_contract():
    ok = CheckResult("a", "pass")
    bad = CheckResult("b", "fail")
    und = CheckResult("c", "undetermined")
    assert exit_status([ok]) == 0
    assert exit_status([ok, und]) == 2
    assert exit_status([ok, und, bad]) == 1


def test_config_file_and_precedence(tmp_path):
    cfgfile = tmp_path / "verify.cfg"
    cfgfile.write_text("grade = 2\np = 2\nflavors = -1..1  # narrow\n")
    rc = main(["formal-calc", "--config", str(cfgfile), "--grade", "3"])
    assert rc == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("grade 2\n")
    with pytest.raises(ConfigError):
        read_config_file(str(bad))


def test_cli_defaults_are_the_suite_config_defaults(monkeypatch):
    seen = []
    monkeypatch.delenv("FDCALC_REPORT_DIR", raising=False)
    monkeypatch.setattr("fdcalc.cli.run_suite", lambda cfg: seen.append(cfg) or [])
    assert main(["dvir"]) == 0
    assert seen == [SuiteConfig(suite="dvir")]


def test_cli_report_written(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = main(["clifford", "--p", "2", "--grade", "3", "--report", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] == 0
    assert {c["id"] for c in doc["checks"]} >= {"car-anticommutators", "graded-dimensions"}
    assert "timings" in doc
    text = capsys.readouterr().out
    assert "PASS" in text and "report written" in text


def test_cli_env_report_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("FDCALC_REPORT_DIR", str(tmp_path / "reports"))
    rc = main(["clifford", "--p", "2", "--grade", "2"])
    assert rc == 0
    assert (tmp_path / "reports" / "clifford.json").exists()


def test_cli_negative_flavor_values():
    rc = main(["clifford", "--p", "-3", "--grade", "2", "--flavors", "-1..1"])
    assert rc == 0


def test_cli_config_error_exit_code(capsys):
    assert main(["clifford", "--p", "1"]) == 3
    assert "configuration error" in capsys.readouterr().err


def test_failing_check_reports_counterexample(monkeypatch):
    def corrupted(cfg):
        return CheckResult(
            "corrupted-character", "fail", "box 4",
            {"exponents": {"x1": -1, "x2": 1}, "value": "2"},
        )

    monkeypatch.setitem(suites.SUITES, "fixture", [corrupted])
    results = run_suite(SuiteConfig(suite="fixture", p=Fraction(2)))
    assert exit_status(results) == 1
    doc = report_document(SuiteConfig(suite="fixture", p=Fraction(2)), results)
    assert doc["checks"][0]["counterexample"]["exponents"] == {"x1": -1, "x2": 1}


def test_undetermined_exit_code(monkeypatch):
    def undet(cfg):
        return CheckResult("tiny-window", "undetermined", "box 1")

    monkeypatch.setitem(suites.SUITES, "fixture2", [undet])
    results = run_suite(SuiteConfig(suite="fixture2", p=Fraction(2)))
    assert exit_status(results) == 2


def test_structure_series_verdict_ignores_wall_clock(monkeypatch):
    # every clock reading is 2 s after the previous one
    clock = itertools.count(0.0, 2.0)
    monkeypatch.setattr(suites.time, "perf_counter", lambda: next(clock))
    res = suites.check_structure_series(SuiteConfig(p=Fraction(2)))
    assert (res.check_id, res.status) == ("structure-series-closed-form", "pass")


def test_determinism_small_suite():
    cfg = SuiteConfig(suite="formal-calc", p=Fraction(2), grade=3)
    a = report_document(cfg, run_suite(cfg))
    b = report_document(cfg, run_suite(cfg))
    a.pop("timings")
    b.pop("timings")
    assert render_report(a) == render_report(b)


def test_jobs_flag_is_deterministic():
    base = SuiteConfig(suite="clifford", p=Fraction(2), grade=3)
    par = SuiteConfig(suite="clifford", p=Fraction(2), grade=3, jobs=3)
    da = report_document(base, run_suite(base))
    db = report_document(par, run_suite(par))
    da.pop("timings")
    db.pop("timings")
    da["config"].pop("jobs")
    db["config"].pop("jobs")
    assert render_report(da) == render_report(db)


def test_jobs_must_be_positive(capsys):
    for jobs in (0, -3):
        with pytest.raises(ConfigError):
            SuiteConfig(jobs=jobs)
    assert main(["clifford", "--p", "2", "--jobs", "0"]) == 3
    assert "configuration error" in capsys.readouterr().err


def test_worker_pool_is_capped_by_the_number_of_checks(monkeypatch):
    import concurrent.futures

    seen = []

    class RecordingExecutor:
        """Records the pool size and runs the work in-process."""

        def __init__(self, max_workers, mp_context=None):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def cheap(cfg):
        return CheckResult("cheap", "pass")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setitem(suites.SUITES, "cheap3", [cheap, cheap, cheap])
    for jobs, workers in ((10000, 3), (2, 2)):
        results = run_suite(SuiteConfig(suite="cheap3", p=Fraction(2), jobs=jobs))
        assert [r.check_id for r in results] == ["cheap"] * 3
        assert seen.pop() == workers
    run_suite(SuiteConfig(suite="cheap3", p=Fraction(2), jobs=1))
    assert seen == []


def _payload(cfg):
    doc = report_document(cfg, run_suite(cfg))
    doc.pop("timings")
    doc["config"].pop("jobs")
    return render_report(doc)


def test_worker_processes_give_the_serial_report():
    cfg = SuiteConfig(suite="all", p=Fraction(2), grade=2, flavor_lo=0, flavor_hi=1, zorder=4)
    assert _payload(dataclasses.replace(cfg, jobs=2)) == _payload(cfg)


def check_raises(cfg):
    raise RuntimeError(f"boom in {os.getpid()}")


def test_check_raising_in_a_worker_is_a_crash_result(monkeypatch):
    checks = suites.SUITES["clifford"]
    monkeypatch.setitem(suites.SUITES, "clifford", checks[:2] + [check_raises])
    results = run_suite(SuiteConfig(suite="clifford", p=Fraction(2), grade=2, jobs=2))
    by_id = {r.check_id: r for r in results}
    assert by_id["crash-raises"].status == "fail"
    note = by_id["crash-raises"].counterexample["note"]
    assert "boom in" in note and f"boom in {os.getpid()}" not in note
    assert len(results) == 3
    assert [r.status for r in results].count("pass") == 2


def test_wrapped_check_runs_in_a_worker(monkeypatch):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(cfg):
            res = fn(cfg)
            res.window = f"wrapped in {os.getpid()}"
            return res

        return wrapper

    checks = suites.SUITES["clifford"][:2]
    monkeypatch.setitem(suites.SUITES, "clifford", [wrap(fn) for fn in checks])
    results = run_suite(SuiteConfig(suite="clifford", p=Fraction(2), grade=2, jobs=2))
    assert len(results) == 2
    assert all(r.status == "pass" and r.window.startswith("wrapped in ") for r in results)
    assert all(r.window != f"wrapped in {os.getpid()}" for r in results)


def test_residue_check_reports_both_ids_when_agreement_fails(monkeypatch):
    monkeypatch.setattr(suites, "modes_agree", lambda y1, y2: (False, (0, None)))
    cfg = SuiteConfig(
        suite="phi-module", p=Fraction(2), grade=1, flavor_lo=0, flavor_hi=1, zorder=3
    )
    results = {r.check_id: r for r in suites.check_residue_agreement(cfg)}
    assert set(results) == {"residue-formula-agreement", "residue-top-mode"}
    assert results["residue-formula-agreement"].status == "fail"
    top = results["residue-top-mode"]
    assert top.status == "undetermined"
    assert "trial 0" in top.counterexample["note"]


def test_config_file_errors_exit_3(tmp_path, capsys):
    for text, named in (("grade = three\n", ["grade", "'three'"]), ("grde = 2\n", ["'grde'"])):
        cfgfile = tmp_path / "verify.cfg"
        cfgfile.write_text(text)
        assert main(["formal-calc", "--p", "2", "--config", str(cfgfile)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and all(n in err for n in named), err
    cfgfile.write_text("window-margin = 2\nwindow_margin = 2\n")  # both spellings of a key
    assert read_config_file(str(cfgfile)) == {"window_margin": "2"}
    assert main(["formal-calc", "--p", "2", "--config", str(tmp_path / "missing.cfg")]) == 3
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["all", "--grade", "abc"],
        ["all", "--seed", "1.5"],
        ["all", "--jobs", "x"],
        ["all", "--unknown", "3"],
        ["all", "--grade"],
        [],
    ],
)
def test_bad_flags_exit_3_without_running_a_check(argv, monkeypatch, capsys):
    monkeypatch.setattr("fdcalc.cli.run_suite", lambda cfg: pytest.fail("a check ran"))
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("configuration error")


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_flags_and_config_lines_give_the_same_config(tmp_path, monkeypatch):
    values = {"p": "3/2", "grade": "2", "modes": "3", "flavors": "-1..1", "zorder": "4",
              "window-margin": "3", "jobs": "2", "seed": "7"}
    cfgfile = tmp_path / "verify.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    seen = []
    monkeypatch.delenv("FDCALC_REPORT_DIR", raising=False)
    monkeypatch.setattr("fdcalc.cli.run_suite", lambda cfg: seen.append(cfg) or [])
    assert main(["dvir"] + [f"--{k}={v}" for k, v in values.items()]) == 0
    assert main(["dvir", "--config", str(cfgfile)]) == 0
    assert seen[0] == seen[1] == SuiteConfig(
        suite="dvir", p=Fraction(3, 2), grade=2, modes=3, flavor_lo=-1, flavor_hi=1,
        zorder=4, margin=3, jobs=2, seed=7,
    )


def test_an_unwritable_report_path_exits_3_without_running_a_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("fdcalc.cli.run_suite", lambda cfg: pytest.fail("a check ran"))
    monkeypatch.delenv("FDCALC_REPORT_DIR", raising=False)
    plain = tmp_path / "plain"
    plain.write_text("")
    for report in (plain / "x.json", plain / "sub" / "x.json", tmp_path):
        assert main(["formal-calc", "--p", "2", "--report", str(report)]) == 3
        assert capsys.readouterr().err.startswith("configuration error")
    monkeypatch.setenv("FDCALC_REPORT_DIR", str(plain))
    assert main(["formal-calc", "--p", "2"]) == 3
    assert str(plain) in capsys.readouterr().err


def test_a_failed_report_write_exits_3_naming_the_path(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("fdcalc.cli.run_suite", lambda cfg: [CheckResult("a", "pass")])
    out = tmp_path / "rep.json"

    def refuse(self, text):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr("pathlib.Path.write_text", refuse)
    assert main(["formal-calc", "--report", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and str(out) in err
