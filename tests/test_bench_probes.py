"""Every probe target of the benchmark's tracer names a callable in fdcalc.

The tracer (``fdbench/tracing.py``) reports a missing target as absent
metrics instead of failing, so a rename in fdcalc would otherwise only show
in the benchmark's self-test.  The tracer is loaded from its file and not
changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "fdbench" / "tracing.py"


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
