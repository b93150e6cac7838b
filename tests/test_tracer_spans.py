"""The benchmark's tracer still finds every function it names as a span,
and its per-span counters still accept what valinf passes them.

``perfbench/tracer.py`` names valinf functions and methods by module
and attribute; a span whose target is renamed or deleted, or whose
arguments no longer have the shape a counter reads, would break every
traced benchmark run.  The tracer is loaded from its file, and nothing
under ``perfbench`` is changed.
"""

import importlib.util
import json
from pathlib import Path

from valinf import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_resolves_every_span():
    tracer = load_tracer()
    targets = tracer.targets()
    assert [name for name, _, _, _ in targets] == tracer.span_names()
    for name, owner, attr, orig in targets:
        assert callable(orig), name
        assert orig.__name__ == attr, name


def test_tracer_extras_accept_what_the_library_passes(tmp_path, capsys):
    # each span's extra counters read the library's arguments, as
    # _chi_n reads chi_det's args[0].size; run the CLI under the tracer
    doc = {"format": 1, "valuations": {
        "m0": {"kind": "monomial", "s": "-1", "t": "0"},
        "root": {"kind": "root"},
        "c1": {"kind": "curve", "base": {"chart": "y"}, "m": 3,
               "coefficients": {"1": "1"}, "exact": True}}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    patched = list(t.patched)
    try:
        t.active = True
        assert cli.main(["chi", "-f", str(path), "c1", "m0", "root"]) == 0
        assert cli.main(["classify", "-f", str(path), "m0", "root"]) == 0
        # chi and classify read the rows and invert no intersection
        # matrix; the consistency check builds geometries and inverts
        assert cli.main(["oracle-check", "--count", "2"]) == 0
    finally:
        t.active = False
        t.uninstall()
    capsys.readouterr()
    assert t.calls["exact.chi_det"] >= 2
    assert t.counters["exact.chi_det.max_n"] == 3
    assert t.calls["richness.classify"] == 1
    assert t.counters["cluster.GeometryTable.minv.max_nodes"] > 0
    assert t.counters["cluster.build_geometry.nodes"] > 0
    assert patched
    for owner, attr, orig in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        assert current is orig, attr
