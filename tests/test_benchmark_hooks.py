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
from faim.data import make_synthetic_freq_dataset
from faim.model import FaimConfig

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


@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
def test_tracer_counts_one_optimizer_step_per_training_step(stage):
    spans = _load("spans")
    # 8 samples, of which finetune trains on 6 or 7: two steps of 4 per epoch
    dataset = make_synthetic_freq_dataset(4, 16, [2.0, 5.0], 0.1, 0)
    config = FaimConfig(
        patch_len=4, embed_dim=8, n_layers=1, ssm_state=4, batch_size=4, pretrain_epochs=2, finetune_epochs=2
    )
    rec = spans.Recorder()
    rec.install()
    try:
        getattr(faim.training, stage)(dataset, config)
    finally:
        rec.uninstall()
    metrics = spans.layer_metrics(rec)
    assert metrics["optim.steps"] == len(spans.step_seconds(rec.spans)) == 4
    assert metrics["tensor.tape_nodes_per_step"] > 0


def test_traced_pretrain_step_stays_under_150_nodes_with_fused_layers_attributed():
    spans = _load("spans")
    workloads = _load("workloads")
    geometry = workloads.WORKLOADS["pretrain-tiny"].config
    dataset = make_synthetic_freq_dataset(4, 128, workloads.FREQS, 0.5, 0)  # 8 samples: one step
    config = FaimConfig(**{**geometry, "pretrain_epochs": 1})
    rec = spans.Recorder()
    rec.install()
    try:
        faim.training.pretrain(dataset, config)
    finally:
        rec.uninstall()
    metrics = spans.layer_metrics(rec)
    assert metrics["optim.steps"] == 1
    assert 0 < metrics["tensor.tape_nodes_per_step"] < 150
    names = {span[0] for span in rec.spans}
    assert {"nn.layer_norm.bwd", "nn.causal_conv1d.bwd"} <= names
