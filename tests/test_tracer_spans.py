"""The benchmark's tracer still finds every function it names as a span.

``perfbench/tracer.py`` names valinf functions and methods by module
and attribute; a span whose target is renamed or deleted would break
every traced benchmark run.  The tracer is loaded from its file, and
nothing under ``perfbench`` is changed.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_resolves_every_span():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.targets()
    assert [name for name, _, _, _ in targets] == tracer.span_names()
    for name, owner, attr, orig in targets:
        assert callable(orig), name
        assert orig.__name__ == attr, name
