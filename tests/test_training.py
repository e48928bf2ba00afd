"""Masking, losses, reports, and the two-stage training procedure."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from faim import imb
from faim.data import SeriesDataset, make_synthetic_freq_dataset, make_synthetic_motion_dataset
from faim.errors import ConfigError, InputError, NonFiniteError, ShapeError
from faim.metrics import accuracy_and_macro_f1
from faim.model import FaimConfig, build_model, classify_batch, load_checkpoint
from faim.rng import CounterRng, derive_seed
from faim.tensor import Tape, Tensor, backward, parameter
from faim.training import (
    REPORT_COLUMNS,
    TrainReport,
    _logits,
    batch_label_smoothed_ce,
    evaluate,
    finetune,
    label_smoothed_ce,
    make_mask,
    masked_mse,
    predict_dataset,
    pretrain,
    row_block,
    smooth_targets,
)


def tiny_config(**kw):
    base = dict(patch_len=4, embed_dim=8, n_layers=1, ssm_state=4, batch_size=16, seed=0)
    base.update(kw)
    return FaimConfig(**base)


def toy_separable(n_per_class=8, t=16):
    """Constant series vs linear ramps: linearly separable two-class corpus."""
    x = []
    rng = np.random.default_rng(0)
    for _ in range(n_per_class):
        x.append(np.full((1, t), 0.2 * rng.normal()))
        x.append(np.linspace(-1, 1, t)[None, :] + 0.1 * rng.normal())
    return SeriesDataset(np.stack(x), np.tile([0, 1], n_per_class), 2, {"0": 0, "1": 1})


class TestMakeMask:
    def test_zero_ratio_gives_all_zeros(self):
        lam = make_mask((3, 10), 0.0, seed=1)
        np.testing.assert_array_equal(lam, np.zeros((3, 10)))

    def test_exact_count_per_row(self):
        lam = make_mask((4, 10), 0.5, seed=2)
        np.testing.assert_array_equal(lam.sum(axis=-1), np.full(4, 5.0))
        assert set(np.unique(lam)) <= {0.0, 1.0}

    def test_rounding_rule(self):
        lam = make_mask((1, 7), 0.4, seed=3)  # round(2.8) = 3
        assert lam.sum() == 3.0

    def test_deterministic(self):
        a = make_mask((2, 3, 8), 0.4, seed=4)
        b = make_mask((2, 3, 8), 0.4, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_plan(self):
        a = make_mask((4, 16), 0.5, seed=5)
        b = make_mask((4, 16), 0.5, seed=6)
        assert not np.array_equal(a, b)

    def test_rows_differ_within_a_plan(self):
        lam = make_mask((8, 16), 0.5, seed=7)
        assert len({row.tobytes() for row in lam}) > 1

    @pytest.mark.parametrize("ratio", [0.0, 0.75])
    @pytest.mark.parametrize("shape", [(8, 1, 16), (3, 6, 16), (2, 5)])
    def test_equals_one_permutation_per_row(self, shape, ratio):
        # Rows sort consecutive blocks of keys from one stream, as one
        # permutation per row did.
        z = shape[-1]
        rng = CounterRng(derive_seed(11, "mask", *shape))
        expected = np.zeros(shape)
        flat = expected.reshape(-1, z)
        for row in range(flat.shape[0]):
            flat[row, np.argsort(rng._next_block(z), kind="stable")[: int(round(ratio * z))]] = 1.0
        assert make_mask(shape, ratio, seed=11).tobytes() == expected.tobytes()

    def test_ratio_bounds(self):
        with pytest.raises(InputError):
            make_mask((2, 4), 1.0, seed=0)
        with pytest.raises(InputError):
            make_mask((2, 4), -0.1, seed=0)


class TestMaskedMse:
    def test_perfect_reconstruction_is_zero(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4))
        with Tape():
            loss = masked_mse(x, Tensor(x.copy()), np.ones((2, 3)))
        assert loss.item() == 0.0

    def test_single_patch_worked_example(self):
        # error vector [1, -1, 0, 0] over b=4: per-patch mean 0.5, one mask
        x = np.zeros((1, 4))
        x_hat = np.array([[1.0, -1.0, 0.0, 0.0]])
        with Tape():
            loss = masked_mse(x, Tensor(x_hat), np.ones(1))
        np.testing.assert_allclose(loss.item(), 0.5, rtol=1e-15)

    def test_unmasked_perturbations_do_not_move_the_loss(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        x_hat = rng.normal(size=(3, 4))
        lam = np.array([1.0, 0.0, 1.0])
        with Tape():
            before = masked_mse(x, Tensor(x_hat), lam)
        bumped = x_hat.copy()
        bumped[1] += 100.0
        with Tape():
            after = masked_mse(x, Tensor(bumped), lam)
        assert before.item() == after.item()

    def test_gradient_is_exactly_zero_on_unmasked_patches(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3))
        lam = np.array([1.0, 0.0, 0.0, 1.0])
        with Tape() as tape:
            x_hat = parameter(rng.normal(size=(4, 3)))
            loss = masked_mse(x, x_hat, lam)
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[x_hat][1], np.zeros(3))
        np.testing.assert_array_equal(grads[x_hat][2], np.zeros(3))
        assert np.max(np.abs(grads[x_hat][0])) > 0
        assert np.max(np.abs(grads[x_hat][3])) > 0

    def test_masked_gradient_matches_closed_form(self):
        # d/dx_hat of (1/sum lam) * lam * mean_b((x_hat - x)^2) = 2*lam*diff/(b*sum)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4))
        lam = np.array([1.0, 0.0, 1.0])
        with Tape() as tape:
            x_hat = parameter(rng.normal(size=(3, 4)))
            loss = masked_mse(x, x_hat, lam)
        grads = backward(tape, loss)
        expected = 2.0 * lam[:, None] * (x_hat.data - x) / (4 * lam.sum())
        np.testing.assert_allclose(grads[x_hat], expected, atol=1e-15)

    def test_empty_mask_returns_zero(self):
        x = np.ones((2, 4))
        with Tape():
            loss = masked_mse(x, Tensor(np.zeros((2, 4))), np.zeros(2))
        assert loss.item() == 0.0

    def test_shape_disagreement_rejected(self):
        with pytest.raises(ShapeError):
            masked_mse(np.ones((2, 4)), Tensor(np.ones((2, 4))), np.ones(3))


class TestLabelSmoothedCe:
    def test_smoothed_targets_two_class_example(self):
        np.testing.assert_allclose(smooth_targets(0, 2, 0.1), [0.95, 0.05], rtol=1e-15)

    def test_targets_sum_to_one_and_onehot_at_zero_eps(self):
        for k in (2, 3, 7):
            for eps in (0.0, 0.1, 0.5):
                t = smooth_targets(1, k, eps)
                np.testing.assert_allclose(t.sum(), 1.0, rtol=1e-15)
        np.testing.assert_array_equal(smooth_targets(2, 4, 0.0), [0, 0, 1, 0])

    def test_uniform_logits_give_log_k(self):
        with Tape():
            loss = label_smoothed_ce(Tensor(np.zeros(4)), 2, 0.0)
        np.testing.assert_allclose(loss.item(), np.log(4.0), rtol=1e-12)

    def test_scalar_case_matches_direct_evaluation(self):
        logits = np.array([2.0, 0.0, 0.0])
        with Tape():
            loss = label_smoothed_ce(Tensor(logits), 0, 0.1)
        p = np.exp(logits) / np.exp(logits).sum()
        targets = np.array([0.9 + 0.1 / 3, 0.1 / 3, 0.1 / 3])
        np.testing.assert_allclose(loss.item(), -(targets * np.log(p)).sum(), rtol=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(InputError):
            label_smoothed_ce(Tensor(np.zeros(3)), 3, 0.1)

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            label_smoothed_ce(Tensor(np.zeros(1)), 0, 0.1)

    def test_matrix_logits_rejected(self):
        with pytest.raises(ShapeError):
            label_smoothed_ce(Tensor(np.zeros((2, 3))), 0, 0.1)

    def test_gradient_vanishes_at_the_analytic_optimum(self):
        targets = smooth_targets(0, 3, 0.1)
        with Tape() as tape:
            logits = parameter(np.log(targets))
            loss = label_smoothed_ce(logits, 0, 0.1)
        grads = backward(tape, loss)
        assert np.linalg.norm(grads[logits]) < 1e-6

    def test_loss_bounded_below_by_smoothed_entropy(self):
        targets = smooth_targets(1, 4, 0.2)
        entropy = -(targets * np.log(targets)).sum()
        rng = np.random.default_rng(4)
        for _ in range(20):
            with Tape():
                loss = label_smoothed_ce(Tensor(rng.normal(size=4) * 3), 1, 0.2)
            assert loss.item() >= entropy - 1e-12
        with Tape():
            at_opt = label_smoothed_ce(Tensor(np.log(targets)), 1, 0.2)
        np.testing.assert_allclose(at_opt.item(), entropy, rtol=1e-12)

    def test_batch_is_mean_of_singles(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 2])
        with Tape():
            batch = batch_label_smoothed_ce(Tensor(logits), labels, 0.1)
            singles = [label_smoothed_ce(Tensor(logits[i]), int(labels[i]), 0.1) for i in range(4)]
        np.testing.assert_allclose(batch.item(), np.mean([s.item() for s in singles]), rtol=1e-12)

    def test_large_logits_stay_finite(self):
        with Tape():
            loss = label_smoothed_ce(Tensor(np.array([1000.0, 0.0, -1000.0])), 0, 0.1)
        assert np.isfinite(loss.item())


class TestTrainReport:
    def test_csv_layout_and_none_cells(self):
        report = TrainReport()
        report.add(1, "train", 0.5, None, None)
        report.add(1, "val", 0.25, 1.0, 1.0)
        expected = (
            "epoch,split,loss,accuracy,macro_f1\n"
            "1,train,0.5,,\n"
            "1,val,0.25,1.0,1.0\n"
        )
        assert report.to_csv() == expected
        assert ",".join(REPORT_COLUMNS) == expected.splitlines()[0]

    def test_summary_text_is_sorted(self):
        report = TrainReport()
        report.summary.update({"zeta": 1, "alpha": "x"})
        assert report.summary_text() == "alpha=x\nzeta=1\n"


class TestPretrain:
    def _corpus(self, n=2, sigma=0.1, seed=0):
        return make_synthetic_freq_dataset(n, 16, [2.0, 5.0], sigma, seed)

    def test_smoke_writes_checkpoint(self, tmp_path):
        path = str(tmp_path / "pre.ckpt")
        config = tiny_config(pretrain_epochs=1, batch_size=4)
        model, report = pretrain(self._corpus(), config, checkpoint_path=path)
        losses = [r.loss for r in report.rows]
        assert len(losses) == 1 and np.isfinite(losses[0]) and losses[0] > 0
        assert os.path.exists(path)
        loaded, meta = load_checkpoint(path)
        assert meta["seed"] == 0
        for (_, a, _), (_, b, _) in zip(model.layout, loaded.layout):
            assert a.data.tobytes() == b.data.tobytes()

    def test_zero_mask_ratio_gives_zero_loss_stream(self):
        config = tiny_config(pretrain_epochs=3, batch_size=4, mask_ratio=0.0)
        _, report = pretrain(self._corpus(), config)
        assert [r.loss for r in report.rows] == [0.0, 0.0, 0.0]

    def test_deterministic_runs(self):
        config = tiny_config(pretrain_epochs=2, batch_size=4)
        m1, r1 = pretrain(self._corpus(), config)
        m2, r2 = pretrain(self._corpus(), config)
        assert [r.loss for r in r1.rows] == [r.loss for r in r2.rows]
        for (_, a, _), (_, b, _) in zip(m1.layout, m2.layout):
            assert a.data.tobytes() == b.data.tobytes()

    def test_empty_dataset_rejected(self):
        empty = SeriesDataset(np.zeros((0, 1, 16)), np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(InputError):
            pretrain(empty, tiny_config(pretrain_epochs=1))

    def test_no_pretrain_variant_rejected(self):
        with pytest.raises(ConfigError, match="no_pretrain"):
            pretrain(self._corpus(), tiny_config(pretrain_epochs=1, variant="no_pretrain"))

    def test_returns_best_loss_state(self):
        config = tiny_config(pretrain_epochs=4, batch_size=4)
        _, report = pretrain(self._corpus(), config)
        best = float(report.summary["best_loss"])
        assert best == min(r.loss for r in report.rows)


class TestParameterVector:
    @staticmethod
    def _assert_views(model):
        start = 0
        for name, t, part in model.layout:
            end = start + t.size
            assert part == slice(start, end), name
            assert np.shares_memory(t.data, model.values[start:end]), name
            start = end
        assert end == model.values.size

    def test_parameters_stay_views_of_the_vector(self, tmp_path):
        ds = toy_separable(n_per_class=4)
        config = tiny_config(pretrain_epochs=2, finetune_epochs=2, batch_size=4)
        self._assert_views(build_model(config, ds.n_classes, ds.n_channels, ds.series_len))
        path = str(tmp_path / "pre.ckpt")
        pre, _ = pretrain(ds, config, checkpoint_path=path)
        self._assert_views(pre)
        loaded, _ = load_checkpoint(path)
        self._assert_views(loaded)
        assert loaded.values.tobytes() == pre.values.tobytes()
        model, _ = finetune(ds, config, init=loaded)
        self._assert_views(model)


class TestFinetune:
    def test_zero_lr_is_a_no_op(self):
        ds = toy_separable()
        config = tiny_config(lr=0.0, finetune_epochs=2)
        init = build_model(config, ds.n_classes, ds.n_channels, ds.series_len)
        before = [t.data.copy() for _, t, _ in init.layout]
        loss0, acc0, _ = evaluate(init, ds)
        model, report = finetune(ds, config, init=init, val_dataset=ds)
        for (_, t, _), b in zip(model.layout, before):
            assert t.data.tobytes() == b.tobytes()
        assert all(r.accuracy == acc0 for r in report.rows if r.split == "val")

    def test_separable_toy_reaches_perfect_train_accuracy(self):
        ds = toy_separable()
        config = tiny_config(lr=1e-2, finetune_epochs=20)
        model, _ = finetune(ds, config, val_dataset=ds)
        _, acc, f1 = evaluate(model, ds)
        assert acc == 1.0 and f1 == 1.0

    def test_deterministic_runs(self):
        ds = toy_separable(n_per_class=4)
        config = tiny_config(lr=1e-2, finetune_epochs=3)
        m1, r1 = finetune(ds, config)
        m2, r2 = finetune(ds, config)
        assert r1.to_csv() == r2.to_csv()
        for (_, a, _), (_, b, _) in zip(m1.layout, m2.layout):
            assert a.data.tobytes() == b.data.tobytes()

    def test_one_class_rejected(self):
        x = np.arange(6.0)[:, None, None] * np.ones((1, 16))
        ds = SeriesDataset(x, np.zeros(6, dtype=np.int64), 1, {"0": 0})
        with pytest.raises(InputError, match="finetune needs at least 2 classes, got 1"):
            finetune(ds, tiny_config(finetune_epochs=1))

    def test_one_present_class_rejected_under_a_larger_label_map(self):
        x = np.arange(6.0)[:, None, None] * np.ones((1, 16))
        ds = SeriesDataset(x, np.zeros(6, dtype=np.int64), 2, {"a": 0, "b": 1})
        with pytest.raises(InputError, match=r"finetune needs at least 2 classes, got 1: \['a'\]"):
            finetune(ds, tiny_config(finetune_epochs=1))

    def test_missing_class_warns(self):
        x = np.arange(6.0)[:, None, None] * np.ones((1, 16))
        ds = SeriesDataset(x, np.repeat([0, 1], 3), 3, {"0": 0, "1": 1, "x": 2})
        with pytest.warns(UserWarning, match=r"classes \[2\] absent"):
            finetune(ds, tiny_config(finetune_epochs=1), val_dataset=ds)

    def test_best_epoch_tracked(self):
        ds = toy_separable(n_per_class=4)
        config = tiny_config(lr=1e-2, finetune_epochs=5)
        _, report = finetune(ds, config, val_dataset=ds)
        accs = {r.epoch: r.accuracy for r in report.rows if r.split == "val"}
        best_epoch = int(report.summary["best_epoch"])
        best_acc = float(report.summary["best_val_accuracy"])
        assert accs[best_epoch] == best_acc
        # >= keeps the latest tying epoch
        assert all(accs[e] < best_acc for e in accs if e > best_epoch) or best_epoch == max(accs)

    def test_one_step_decreases_loss(self):
        for seed in range(3):
            ds = toy_separable(n_per_class=4)
            config = tiny_config(lr=1e-3, finetune_epochs=1, seed=seed)
            init = build_model(config, ds.n_classes, ds.n_channels, ds.series_len)
            before, _, _ = evaluate(init, ds)
            model, _ = finetune(ds, config, init=init, val_dataset=ds)
            after, _, _ = evaluate(model, ds)
            assert after < before, f"seed {seed}: {after} !< {before}"


class TestFinetuneInit:
    def test_a_different_model_setting_is_rejected(self, tmp_path):
        ds = toy_separable()
        config = tiny_config(finetune_epochs=1)
        init = build_model(config, ds.n_classes, ds.n_channels, ds.series_len)
        path = tmp_path / "ckpt"
        for key, changes in (
            ("model.variant", dict(variant="no_afb")),
            ("afb.tau", dict(tau=0.05)),
            ("imb.conv_k2", dict(conv_k2=3)),
        ):
            wanted = tiny_config(finetune_epochs=1, **changes)
            (name, value), = changes.items()
            built = getattr(config, name)
            message = f"{key} is {value!r}, but the init model was built with {built!r}"
            with pytest.raises(ConfigError, match=message):
                finetune(ds, wanted, init=init, val_dataset=ds, checkpoint_path=str(path))
            assert not path.exists()

    def test_training_settings_override_the_init_model(self, tmp_path):
        ds = toy_separable()
        init = build_model(tiny_config(), ds.n_classes, ds.n_channels, ds.series_len)
        config = tiny_config(finetune_epochs=1, label_smooth_eps=0.3, lr=0.0, seed=5)
        path = tmp_path / "ckpt"
        model, report = finetune(ds, config, init=init, val_dataset=ds, checkpoint_path=str(path))
        assert model.config is config
        assert load_checkpoint(str(path))[0].config == config
        # the validation loss is smoothed with the finetune's eps, not the init's
        val = [r for r in report.rows if r.split == "val"][0]
        assert val.loss == evaluate(model, ds)[0]
        assert val.loss != evaluate(dataclasses.replace(model, config=tiny_config()), ds)[0]


class TestNonFiniteTraining:
    def _nan_init(self, config, ds, name):
        model = build_model(config, ds.n_classes, ds.n_channels, ds.series_len)
        next(t for n, t, _ in model.layout if n == name).data[0] = np.nan
        return model

    def test_nan_parameter_that_reaches_the_loss_stops_at_its_step(self, tmp_path):
        ds = toy_separable()
        config = tiny_config(finetune_epochs=2)
        path = tmp_path / "ckpt"
        init = self._nan_init(config, ds, "cls_w")
        with pytest.raises(NonFiniteError, match="finetune epoch 1 step 1: the training loss is nan"):
            finetune(ds, config, init=init, val_dataset=ds, checkpoint_path=str(path))
        assert not path.exists()

    def test_nan_parameter_outside_the_loss_stops_at_the_epoch_end(self, tmp_path):
        # the reconstruction head takes no part in fine-tuning, so only the
        # per-epoch parameter check can see it
        ds = toy_separable()
        config = tiny_config(finetune_epochs=2, batch_size=8)
        path = tmp_path / "ckpt"
        init = self._nan_init(config, ds, "recon_w")
        with pytest.raises(NonFiniteError, match="finetune epoch 1 step 2: parameter recon_w"):
            finetune(ds, config, init=init, val_dataset=ds, checkpoint_path=str(path))
        assert not path.exists()

    def test_non_finite_pretraining_loss_names_its_step(self, tmp_path):
        ds = make_synthetic_freq_dataset(4, 16, [2.0, 5.0], 0.1, 0)
        ds.x[0, 0, 3] = np.nan
        path = tmp_path / "ckpt"
        config = tiny_config(pretrain_epochs=2, batch_size=8, mask_ratio=0.5)
        with pytest.raises(NonFiniteError, match="pretrain epoch 1 step "):
            pretrain(ds, config, checkpoint_path=str(path))
        assert not path.exists()


class TestEvaluate:
    def test_matches_metric_helpers(self):
        ds = toy_separable(n_per_class=4)
        config = tiny_config()
        model = build_model(config, ds.n_classes, ds.n_channels, ds.series_len)
        preds = predict_dataset(model, ds)
        acc, f1 = accuracy_and_macro_f1(preds, ds.y, ds.n_classes)
        loss, acc2, f12 = evaluate(model, ds)
        assert (acc, f1) == (acc2, f12)
        assert np.isfinite(loss)

    def test_batch_size_does_not_change_results(self):
        ds = toy_separable(n_per_class=6)
        model = build_model(tiny_config(), ds.n_classes, ds.n_channels, ds.series_len)
        full = evaluate(model, ds, batch_size=256)
        chunked = evaluate(model, ds, batch_size=3)
        np.testing.assert_allclose(full[0], chunked[0], atol=1e-12)
        assert full[1:] == chunked[1:]


@pytest.fixture(scope="module")
def motion_model_and_set():
    """Default geometry on 6-channel data, with more samples than one row block."""
    ds = make_synthetic_motion_dataset(6, n_channels=6, t=128, n_classes=4, snr_sigma=0.5, seed=0)
    model = build_model(FaimConfig(), ds.n_classes, ds.n_channels, ds.series_len)
    assert row_block(model) < len(ds)
    return model, ds


class TestRowBlocks:
    def test_blocked_results_match_one_forward(self, motion_model_and_set):
        model, ds = motion_model_and_set
        x, y = ds.x, ds.y
        logits, _ = classify_batch(model, x)
        preds = np.argmax(logits.data, axis=-1)
        loss = batch_label_smoothed_ce(logits, y, model.config.label_smooth_eps).item()
        acc, f1 = accuracy_and_macro_f1(preds, y, ds.n_classes)
        got = evaluate(model, ds, batch_size=256)
        assert abs(got[0] - loss) < 1e-12
        assert got[1:] == (acc, f1)
        np.testing.assert_array_equal(predict_dataset(model, ds, batch_size=256), preds)

    def test_logits_are_bitwise_equal_across_worker_counts(self, motion_model_and_set, monkeypatch):
        # each row block's tape-free scans split their rows among the workers
        model, ds = motion_model_and_set
        logits = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(imb, "_WORKERS", workers)
            logits.append(_logits(model, ds.x, 256).tobytes())
        assert logits[1] == logits[0] and logits[2] == logits[0]

    def test_memory_is_bounded_by_the_row_block(self, motion_model_and_set):
        model, ds = motion_model_and_set

        def peak(batch_size):
            tracemalloc.start()
            try:
                evaluate(model, ds, batch_size)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        at_block = peak(row_block(model))
        assert peak(256) < 1.1 * at_block
