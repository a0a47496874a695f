"""Every probe target of the benchmark's tracer names a callable in fdcalc,
and every check metric the benchmark declares names a check of ``verify all``.

The tracer (``fdbench/tracing.py``) reports a missing target as absent
metrics instead of failing, so a rename in fdcalc would otherwise only show
in the benchmark's self-test.  The tracer is loaded from its file and not
changed.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from fdcalc.suites import SUITES

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "fdbench" / "tracing.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("fdbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_resolves_to_a_callable():
    probes = _load_tracing().default_probes()
    assert probes
    missing = []
    for probe in probes:
        mod_name, _, path = probe.target.partition(":")
        owner = importlib.import_module(f"fdcalc.{mod_name}")
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        # the tracer patches the attribute where it is defined, as it does
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(probe.target)
    assert missing == []


def test_check_metric_names_match_the_benchmark():
    """``fdbench/selftest.py`` expects one ``suites.check_s.<function>``
    metric per check function of ``verify all``, named as BENCHMARK.json
    declares them, so renaming a check function would break the benchmark."""
    declared = json.loads(BENCHMARK.read_text())["per_layer"]
    want = {m["name"] for m in declared if m["name"].startswith("suites.check_s.")}
    assert {f"suites.check_s.{fn.__name__}" for fn in SUITES["all"]} == want
