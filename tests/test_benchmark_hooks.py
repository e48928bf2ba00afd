"""The benchmark's tracer wraps faim module globals by name, and its
workloads drive faim's data API; both must keep working."""

import importlib.util
import sys
from pathlib import Path

import pytest

import faim.afb
import faim.imb
import faim.model
import faim.training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_span_recorder_installs_and_uninstalls():
    spans = _load("spans")
    modules = (faim.afb, faim.imb, faim.model, faim.training)
    before = [dict(vars(m)) for m in modules]
    rec = spans.Recorder()
    rec.install()
    rec.uninstall()
    assert [dict(vars(m)) for m in modules] == before


@pytest.mark.parametrize(
    "name, samples, channels, series_len",
    [("finetune-motion", 40, 6, 128), ("pretrain-tiny", 128, 1, 128), ("infer-motion", 256, 6, 128)],
)
def test_workload_setup_reads_its_inputs(tmp_path, name, samples, channels, series_len):
    workloads = _load("workloads")
    workload = workloads.WORKLOADS[name]
    workloads.generate(workload, 0, tmp_path)
    state = workloads.setup(workload, 0, tmp_path, lambda _, fn, *args, **kwargs: fn(*args, **kwargs))
    dataset = state["dataset"]
    assert (len(dataset), dataset.n_channels, dataset.series_len) == (samples, channels, series_len)
