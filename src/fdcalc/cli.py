"""Batch verification runner.

    verify <suite> [--p <rational|symbolic>] [--grade N] [--modes M]
                   [--flavors a..b] [--zorder K] [--window-margin W]
                   [--report PATH] [--jobs J] [--config FILE] [--seed S]

Suites: formal-calc, clifford, dvir, phi-module, commutator, all.
Exit codes: 0 all pass, 1 check failure, 2 undetermined, 3 configuration
error.  Reports are JSON with wall times quarantined in a separate field, so
identical configurations produce byte-identical comparison payloads.
Precedence: command-line flags > config file > defaults.  A config file sets
the options above by name (p, grade, modes, flavors, zorder, window-margin,
jobs, seed); a file that cannot be read, an unknown key or a value that does
not parse exits 3 like any other configuration error.  The environment variable FDCALC_REPORT_DIR sets
the default report directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .suites import ConfigError, SuiteConfig, exit_status, report_document, run_suite

_DEFAULTS = {k: v for k, v in SuiteConfig().as_dict().items() if k != "suite"}


def parse_flavors(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"bad flavor window {text!r}; expected a..b") from exc


def parse_p(text: str):
    if text == "symbolic":
        return "symbolic"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad p value {text!r}") from exc


def read_config_file(path: str) -> dict:
    """Flat key = value lines; # starts a comment.  Keys are the option names
    in ``_DEFAULTS`` ('-' and '_' alike); any other key is a ConfigError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; expected one of {sorted(_DEFAULTS)}"
            )
        out[key] = value.strip()
    return out


def _int_option(layered: dict, key: str) -> int:
    value = layered[key]
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"bad {key} value {value!r}; expected an integer") from exc


def build_config(args) -> SuiteConfig:
    layered = dict(_DEFAULTS)
    if args.config:
        layered.update(read_config_file(args.config))
    for key in _DEFAULTS:
        v = getattr(args, key, None)
        if v is not None:
            layered[key] = v
    lo, hi = parse_flavors(str(layered["flavors"]))
    return SuiteConfig(
        suite=args.suite,
        p=parse_p(str(layered["p"])),
        grade=_int_option(layered, "grade"),
        modes=_int_option(layered, "modes"),
        flavor_lo=lo,
        flavor_hi=hi,
        zorder=_int_option(layered, "zorder"),
        margin=_int_option(layered, "window_margin"),
        jobs=_int_option(layered, "jobs"),
        seed=_int_option(layered, "seed"),
    )


def report_path(args, cfg: SuiteConfig) -> Path | None:
    if args.report:
        return Path(args.report)
    base = os.environ.get("FDCALC_REPORT_DIR")
    if base:
        return Path(base) / f"{cfg.suite}.json"
    return None


def render_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="verify", description="Run exact verification suites and write a report."
    )
    ap.add_argument("suite", help="formal-calc, clifford, dvir, phi-module, commutator, or all")
    ap.add_argument("--p", help="'symbolic' or a rational such as 2 or 3/2")
    ap.add_argument("--grade", type=int, help="basis grade bound")
    ap.add_argument("--modes", type=int, help="mode bound for relation checks")
    ap.add_argument("--flavors", help="flavor window a..b")
    ap.add_argument("--zorder", type=int, help="z-truncation order")
    ap.add_argument("--window-margin", dest="window_margin", type=int, help="quadrant margin")
    ap.add_argument("--report", help="report file path (JSON)")
    ap.add_argument(
        "--jobs",
        type=int,
        help="J > 1 runs checks in up to J worker processes; 1 runs them in-process",
    )
    ap.add_argument("--seed", type=int, help="seed for randomized instance checks")
    ap.add_argument("--config", help="flat key = value configuration file")
    argv = sys.argv[1:] if argv is None else list(argv)
    # window values like -2..3 would otherwise be read as option names
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--flavors", "--p") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    args = ap.parse_args(merged)

    try:
        cfg = build_config(args)
        results = run_suite(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3

    for r in results:
        extras = []
        if r.window:
            extras.append(r.window)
        if r.counterexample:
            extras.append(json.dumps(r.counterexample, sort_keys=True))
        tail = f"  [{'; '.join(extras)}]" if extras else ""
        print(f"{r.status.upper():12s} {r.check_id}{tail}")

    doc = report_document(cfg, results)
    path = report_path(args, cfg)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_report(doc))
        print(f"report written to {path}")
    summary = doc["summary"]
    print(f"pass {summary['pass']}  fail {summary['fail']}  undetermined {summary['undetermined']}")
    return exit_status(results)


if __name__ == "__main__":
    raise SystemExit(main())
