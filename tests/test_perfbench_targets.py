"""The traced benchmark's wrap list against the library it wraps."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_is_defined_on_its_owner():
    # Tracer.install reads each target from its owner's own __dict__, so a
    # renamed or deleted callable would first show as a failed traced run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in targets
               if not callable(vars(owner).get(attr))]
    assert missing == []
