"""The benchmark's tracer wraps faim module globals by name; they must exist."""

import importlib.util
from pathlib import Path

import faim.afb
import faim.imb
import faim.model
import faim.training

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_recorder_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = (faim.afb, faim.imb, faim.model, faim.training)
    before = [dict(vars(m)) for m in modules]
    rec = spans.Recorder()
    rec.install()
    rec.uninstall()
    assert [dict(vars(m)) for m in modules] == before
