"""Model assembly: patching, embedding, layer stack, heads, checkpoints."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from faim import tensor
from faim.errors import ConfigError, InputError, ShapeError
from faim.model import (
    CONFIG_SECTION,
    MAGIC,
    VARIANTS,
    FaimConfig,
    build_model,
    classify_batch,
    embed,
    load_checkpoint,
    n_patches_for,
    padded_length,
    patchify,
    reconstruct_forward,
    save_checkpoint,
)
from faim.nn import layer_norm, linear
from faim.optim import AdamWState, adamw_step
from faim.rng import CounterRng
from faim.tensor import Tape, Tensor, backward, mul, reshape, tmean, tsum


def tiny_config(**kw):
    base = dict(patch_len=4, embed_dim=8, n_layers=1, ssm_state=4, seed=0)
    base.update(kw)
    return FaimConfig(**base)


class TestPatchify:
    def test_even_split(self):
        x = np.arange(16.0)
        patches = patchify(x, 8, 8)
        assert patches.shape == (2, 8)
        np.testing.assert_array_equal(patches[0], np.arange(8.0))
        np.testing.assert_array_equal(patches[1], np.arange(8.0, 16.0))

    def test_tail_padding_replicates_last_value(self):
        x = np.arange(10.0)
        patches = patchify(x, 8, 8)
        assert patches.shape == (2, 8)
        np.testing.assert_array_equal(patches[1], [8, 9, 9, 9, 9, 9, 9, 9])

    def test_unit_patches(self):
        x = np.array([3.0, 1.0, 4.0])
        patches = patchify(x, 1, 1)
        np.testing.assert_array_equal(patches, [[3.0], [1.0], [4.0]])

    def test_overlapping_stride(self):
        x = np.arange(16.0)
        patches = patchify(x, 8, 4)
        assert patches.shape == (3, 8)
        np.testing.assert_array_equal(patches[1], np.arange(4.0, 12.0))

    def test_short_series_padded_to_one_patch(self):
        patches = patchify(np.array([1.0, 2.0]), 8, 8)
        assert patches.shape == (1, 8)
        np.testing.assert_array_equal(patches[0], [1, 2, 2, 2, 2, 2, 2, 2])

    def test_multichannel_keeps_leading_axes(self):
        x = np.arange(32.0).reshape(2, 16)
        patches = patchify(x, 8, 8)
        assert patches.shape == (2, 2, 8)
        np.testing.assert_array_equal(patches[1, 0], np.arange(16.0, 24.0))

    def test_empty_series_rejected(self):
        with pytest.raises(InputError):
            patchify(np.zeros((1, 0)), 8, 8)

    def test_length_helpers(self):
        assert padded_length(16, 8, 8) == 16
        assert padded_length(10, 8, 8) == 16
        assert padded_length(7, 8, 8) == 8
        assert n_patches_for(16, 8, 8) == 2
        assert n_patches_for(16, 8, 4) == 3
        assert n_patches_for(3, 1, 1) == 3


class TestEmbed:
    def test_zero_patches_zero_positions_give_bias(self):
        model = build_model(tiny_config(), 2, 1, 16)
        model.pos_emb.data[:] = 0.0
        model.embed_b.data[:] = 1.5
        tokens = embed(np.zeros((4, 4)), model)
        np.testing.assert_allclose(tokens.data, np.full((4, 8), 1.5), atol=1e-15)

    def test_identical_patches_differ_by_position_rows(self):
        model = build_model(tiny_config(), 2, 1, 16)
        patch = np.random.default_rng(0).normal(size=4)
        tokens = embed(np.stack([patch, patch]), model)
        got = tokens.data[1] - tokens.data[0]
        expected = model.pos_emb.data[1] - model.pos_emb.data[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_matches_matrix_oracle(self):
        model = build_model(tiny_config(), 2, 1, 16)
        patches = np.random.default_rng(1).normal(size=(3, 4))
        tokens = embed(patches, model)
        expected = patches @ model.embed_w.data + model.embed_b.data + model.pos_emb.data[:3]
        np.testing.assert_allclose(tokens.data, expected, atol=1e-12)

    def test_too_many_patches_rejected(self):
        model = build_model(tiny_config(), 2, 1, 16)  # 4 position rows
        with pytest.raises(ConfigError):
            embed(np.zeros((5, 4)), model)


class TestForward:
    def test_single_class_head_shape(self):
        model = build_model(tiny_config(), 1, 3, 20)
        logits, _ = classify_batch(model, np.random.default_rng(0).normal(size=(1, 3, 20)))
        assert logits.shape == (1, 1)

    def test_rank_contract(self):
        model = build_model(tiny_config(), 2, 1, 16)
        with pytest.raises(ShapeError):
            classify_batch(model, np.zeros((1, 1, 1, 16)))

    def test_channel_count_enforced(self):
        model = build_model(tiny_config(), 2, 3, 16)
        with pytest.raises(ShapeError, match="with 3 channels, got shape \\(1, 2, 16\\)"):
            classify_batch(model, np.zeros((1, 2, 16)))

    def test_unbatched_input_to_classify_batch_rejected(self):
        # [channels, T] used to pass the channel check and fail inside numpy's reshape.
        model = build_model(tiny_config(), 2, 3, 16)
        with pytest.raises(ShapeError, match="expects \\[B, channels, T\\] with 3 channels"):
            classify_batch(model, np.zeros((3, 16)))

    def test_channel_permutation_invariance(self):
        model = build_model(tiny_config(), 2, 4, 16)
        x = np.random.default_rng(2).normal(size=(4, 16))
        base, _ = classify_batch(model, x[None])
        for perm_seed in range(3):
            perm = np.random.default_rng(perm_seed).permutation(4)
            permuted, _ = classify_batch(model, x[perm][None])
            np.testing.assert_allclose(permuted.data, base.data, atol=1e-12)

    def test_channel_independence(self):
        # per-channel runs through a single-channel twin (identical weights:
        # channel count does not enter initialization) average to the batch
        config = tiny_config(seed=5)
        model = build_model(config, 2, 3, 16)
        twin = build_model(tiny_config(seed=5), 2, 1, 16)
        for (_, a, _), (_, b, _) in zip(model.layout, twin.layout):
            np.testing.assert_array_equal(a.data, b.data)
        x = np.random.default_rng(3).normal(size=(3, 16))
        full, _ = classify_batch(model, x[None])
        singles = [classify_batch(twin, x[None, c : c + 1])[0].data for c in range(3)]
        np.testing.assert_allclose(full.data, np.mean(singles, axis=0), atol=1e-12)

    def test_batch_matches_per_sample(self):
        model = build_model(tiny_config(), 3, 2, 16)
        batch = np.random.default_rng(4).normal(size=(5, 2, 16))
        logits, _ = classify_batch(model, batch)
        assert logits.shape == (5, 3)
        for i in range(5):
            single, _ = classify_batch(model, batch[i][None])
            np.testing.assert_allclose(logits.data[i], single.data[0], atol=1e-10)

    def test_forwards_return_no_intermediates(self):
        model = build_model(tiny_config(), 2, 1, 16)
        x = np.random.default_rng(9).normal(size=(2, 1, 16))
        _, second = classify_batch(model, x)
        assert second is None
        with Tape():
            _, second = classify_batch(model, x)
        assert second is None
        logits, _ = classify_batch(model, x[0][None])
        assert isinstance(logits, Tensor) and logits.shape == (1, 2)

    def test_tape_free_block_peaks_under_16_token_spectra(self):
        # One 10-sample evaluation row block at the default geometry: 6
        # channels of 16 patches at dim 64, so one token spectrum is a
        # [60, 9, 64] complex128 array.
        model = build_model(FaimConfig(seed=0), 4, 6, 128)
        x = np.random.default_rng(10).normal(size=(10, 6, 128))
        classify_batch(model, x)  # fills the cached transform tables
        spectrum_bytes = 10 * 6 * 9 * 64 * 16
        tracemalloc.start()
        try:
            classify_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * spectrum_bytes, peak / spectrum_bytes

    def test_tape_free_forward_matches_taped(self):
        model = build_model(tiny_config(seed=2), 3, 2, 16)
        batch = np.random.default_rng(6).normal(size=(4, 2, 16))
        free, _ = classify_batch(model, batch)
        with Tape():
            taped, _ = classify_batch(model, batch)
        np.testing.assert_allclose(free.data, taped.data, rtol=0.0, atol=1e-12)

    def test_blocked_scan_gives_bitwise_equal_logits_and_gradients(self, monkeypatch):
        model = build_model(tiny_config(seed=3), 3, 2, 16)
        batch = np.random.default_rng(7).normal(size=(5, 2, 16))
        weights = Tensor(np.random.default_rng(8).normal(size=(5, 3)))
        # 10 scan rows (samples x channels), each a [Z, dim, state] float64 array
        row_bytes = model.n_patches * model.config.embed_dim * model.config.ssm_state * 8

        def run(rows):
            monkeypatch.setattr(tensor, "ROW_BLOCK_BYTES", rows * row_bytes)
            with Tape() as tape:
                logits, _ = classify_batch(model, batch)
                loss = tsum(mul(logits, weights))
            grads = backward(tape, loss)
            return logits.data, [grads[p] for _, p, _ in model.layout if p in grads]

        whole_logits, whole_grads = run(10)
        assert len(whole_grads) > 0
        for rows in (1, 3):
            logits, grads = run(rows)
            assert np.array_equal(logits, whole_logits), rows
            assert len(grads) == len(whole_grads)
            for a, b in zip(grads, whole_grads):
                assert np.array_equal(a, b), rows

    def test_deterministic_rebuild_and_forward(self):
        x = np.random.default_rng(5).normal(size=(2, 16))
        outs = []
        for _ in range(2):
            model = build_model(tiny_config(seed=9), 2, 2, 16)
            logits, _ = classify_batch(model, x[None])
            outs.append(logits.data)
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_residual_path_survives_zeroed_blocks(self):
        # zero every weight that multiplies activations inside the blocks:
        # each layer then reduces to layer_norm of its input
        model = build_model(tiny_config(), 2, 1, 16)
        layer = model.layers[0]
        for psi in (layer.afb.psi_global, layer.afb.psi_high, layer.afb.psi_low):
            psi.w2.data[:] = 0.0
            psi.b2.data[:] = 0.0
        layer.imb.out_w.data[:] = 0.0
        layer.imb.out_b.data[:] = 0.0
        x = np.random.default_rng(6).normal(size=(1, 1, 16))
        logits, _ = classify_batch(model, x)

        patches = patchify(x, 4, 4).reshape(1, 4, 4)
        tokens = embed(patches, model)
        tokens = layer_norm(tokens, layer.ln_gamma, layer.ln_beta)
        pooled = tmean(tokens, axis=1)
        pooled = tmean(reshape(pooled, (1, 1, 8)), axis=1)
        expected = linear(pooled, model.cls_w, model.cls_b)
        np.testing.assert_allclose(logits.data, expected.data, atol=1e-10)


class TestReconstruct:
    def test_output_shape(self):
        model = build_model(tiny_config(), 2, 3, 18)
        x = np.random.default_rng(0).normal(size=(1, 3, 18))
        z = n_patches_for(18, 4, 4)
        recon = reconstruct_forward(x, np.zeros((1, 3, z)), model)
        assert recon.shape == (1, 3, z, 4)

    def test_all_masked_output_ignores_input_values(self):
        model = build_model(tiny_config(), 2, 1, 16)
        mask = np.ones((1, 1, 4))
        gen = np.random.default_rng(1)
        a = reconstruct_forward(gen.normal(size=(1, 1, 16)), mask, model)
        b = reconstruct_forward(gen.normal(size=(1, 1, 16)), mask, model)
        np.testing.assert_array_equal(a.data, b.data)

    def test_unmasked_input_changes_output(self):
        model = build_model(tiny_config(), 2, 1, 16)
        mask = np.zeros((1, 1, 4))
        gen = np.random.default_rng(2)
        a = reconstruct_forward(gen.normal(size=(1, 1, 16)), mask, model)
        b = reconstruct_forward(gen.normal(size=(1, 1, 16)), mask, model)
        assert np.max(np.abs(a.data - b.data)) > 1e-6

    def test_mask_grid_mismatch_rejected(self):
        model = build_model(tiny_config(), 2, 1, 16)
        with pytest.raises(ShapeError):
            reconstruct_forward(np.zeros((1, 1, 16)), np.zeros((1, 1, 3)), model)

    def test_unbatched_input_rejected(self):
        model = build_model(tiny_config(), 2, 1, 16)
        with pytest.raises(ShapeError, match="expects \\[B, channels, T\\]"):
            reconstruct_forward(np.zeros((1, 16)), np.zeros((1, 4)), model)

    def test_batched_matches_single(self):
        model = build_model(tiny_config(), 2, 2, 16)
        xs = np.random.default_rng(3).normal(size=(3, 2, 16))
        mask = (np.random.default_rng(4).uniform(size=(3, 2, 4)) < 0.5).astype(float)
        batch = reconstruct_forward(xs, mask, model)
        for i in range(3):
            single = reconstruct_forward(xs[i : i + 1], mask[i : i + 1], model)
            np.testing.assert_allclose(batch.data[i], single.data[0], atol=1e-10)


class TestVariants:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_constructible_and_trainable(self, variant):
        model = build_model(tiny_config(variant=variant), 2, 1, 16)
        x = np.random.default_rng(0).normal(size=(1, 1, 16))
        with Tape() as tape:
            logits, _ = classify_batch(model, x)
            loss = tsum(mul(logits, logits))
        grads = backward(tape, loss)
        assert np.isfinite(loss.item())
        adamw_step(model.values, *model.gradient(grads), AdamWState(lr=1e-3))
        logits2, _ = classify_batch(model, x)
        assert np.all(np.isfinite(logits2.data))

    def test_no_afb_ignores_afb_parameters(self):
        model = build_model(tiny_config(variant="no_afb"), 2, 1, 16)
        x = np.random.default_rng(1).normal(size=(1, 16))
        before, _ = classify_batch(model, x[None])
        model.layers[0].afb.theta_high.data += 10.0
        model.layers[0].afb.psi_global.w2.data[:] = 7.0
        after, _ = classify_batch(model, x[None])
        np.testing.assert_array_equal(before.data, after.data)

    def test_no_imb_ignores_imb_parameters(self):
        model = build_model(tiny_config(variant="no_imb"), 2, 1, 16)
        x = np.random.default_rng(2).normal(size=(1, 16))
        before, _ = classify_batch(model, x[None])
        model.layers[0].imb.gate_w.data[:] = 5.0
        model.layers[0].imb.out_w.data[:] = -3.0
        after, _ = classify_batch(model, x[None])
        np.testing.assert_array_equal(before.data, after.data)

    def test_variants_change_the_function(self):
        x = np.random.default_rng(3).normal(size=(1, 16))
        outputs = {}
        for variant in ("full", "no_afb", "no_hf", "no_imb"):
            model = build_model(tiny_config(variant=variant, seed=4), 2, 1, 16)
            logits, _ = classify_batch(model, x[None])
            outputs[variant] = logits.data
        assert np.max(np.abs(outputs["full"] - outputs["no_afb"])) > 1e-9
        assert np.max(np.abs(outputs["full"] - outputs["no_hf"])) > 1e-9
        assert np.max(np.abs(outputs["full"] - outputs["no_imb"])) > 1e-9

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(variant="no_everything")

    def test_gradient_is_laid_out_like_values(self):
        model = build_model(tiny_config(variant="no_afb"), 2, 1, 16)
        with Tape() as tape:
            logits, _ = classify_batch(model, np.random.default_rng(0).normal(size=(2, 1, 16)))
            loss = tsum(mul(logits, logits))
        grads = backward(tape, loss)
        grad, touched = model.gradient(grads)
        start = 0
        for name, t, part in model.layout:
            end = start + t.size
            assert part == slice(start, end), name
            if t in grads:
                assert touched[part].all(), name
                assert grad[part].tobytes() == grads[t].tobytes(), name
            else:
                assert not touched[part].any() and not grad[part].any(), name
            start = end
        assert end == model.values.size
        assert not touched.all()  # the skipped filtering block got no gradient


class TestConfigRanges:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("ssm_state", 0),
            ("conv_k1", 0),
            ("conv_k2", 0),
            ("conv_k3", 0),
            ("tau", 0.0),
            ("tau", -0.02),
            ("pretrain_epochs", -3),
            ("finetune_epochs", -1),
            ("patch_len", 0),
            ("embed_dim", 0),
            ("batch_size", 257),
            ("mask_ratio", 1.0),
        ],
    )
    def test_out_of_range_setting_rejected(self, field, value):
        # The message names the key a user types, such as imb.ssm_state.
        with pytest.raises(ConfigError, match=f"^{CONFIG_SECTION[field]}.{field} must be"):
            tiny_config(**{field: value})

    def test_boundary_values_accepted(self):
        config = tiny_config(ssm_state=1, conv_k1=1, conv_k2=1, conv_k3=1, pretrain_epochs=0, finetune_epochs=0)
        build_model(config, 2, 1, 16)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        model = build_model(tiny_config(seed=3), 3, 2, 20)
        for _, t, _ in model.layout:
            t.data += np.random.default_rng(0).normal(size=t.data.shape)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path, meta={"label_map": {"a": 0}, "seed": 3})
        loaded, meta = load_checkpoint(path)
        assert meta == {"label_map": {"a": 0}, "seed": 3}
        assert loaded.n_classes == 3 and loaded.n_channels == 2
        for (na, a, _), (nb, b, _) in zip(model.layout, loaded.layout):
            assert na == nb
            assert a.data.tobytes() == b.data.tobytes(), na

    def test_save_is_byte_deterministic(self, tmp_path):
        model = build_model(tiny_config(seed=4), 2, 1, 16)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_round_trip_preserves_forward(self, tmp_path):
        model = build_model(tiny_config(seed=5), 2, 2, 16)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        x = np.random.default_rng(1).normal(size=(2, 16))
        a, _ = classify_batch(model, x[None])
        b, _ = classify_batch(loaded, x[None])
        assert a.data.tobytes() == b.data.tobytes()

    def test_load_draws_no_initialisation(self, tmp_path, monkeypatch):
        model = build_model(tiny_config(seed=7), 3, 2, 20)
        model.values += np.random.default_rng(2).normal(size=model.values.shape)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path)

        def draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew from CounterRng")

        monkeypatch.setattr(CounterRng, "normal", draw)
        monkeypatch.setattr(CounterRng, "uniform", draw)
        loaded, _ = load_checkpoint(path)
        assert loaded.values.tobytes() == model.values.tobytes()
        assert [(n, t.shape, p) for n, t, p in loaded.layout] == [(n, t.shape, p) for n, t, p in model.layout]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(InputError):
            load_checkpoint(str(path))

    @staticmethod
    def _edit_manifest(path, edit):
        """Rewrite the checkpoint at ``path`` with ``edit`` applied to its
        manifest (the list of name, shape, offset entries)."""
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
        start = len(MAGIC) + 8
        header = json.loads(raw[start : start + header_len].decode())
        edit(header["params"])
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(MAGIC + len(encoded).to_bytes(8, "little") + encoded + raw[start + header_len :])

    @classmethod
    def _rename_in_manifest(cls, path, renames):
        def rename(entries):
            for entry in entries:
                entry["name"] = renames.get(entry["name"], entry["name"])

        cls._edit_manifest(path, rename)

    @staticmethod
    def _entry_mismatch(path, index, got, want):
        """The message of a manifest entry that differs from the model's layout."""
        return re.escape(
            f"{path} parameter manifest entry {index} is (name, shape, offset) {got}; "
            f"the rebuilt model expects {want}"
        )

    def test_tampered_manifest_rejected(self, tmp_path):
        model = build_model(tiny_config(seed=6), 2, 1, 16)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        self._rename_in_manifest(path, {"layers.0.imb.ssm_2.w_c": "no.such.parameter"})
        index, (_, tensor, part) = next(
            (i, entry) for i, entry in enumerate(model.layout) if entry[0] == "layers.0.imb.ssm_2.w_c"
        )
        got = ("no.such.parameter", tensor.shape, part.start)
        want = ("layers.0.imb.ssm_2.w_c", tensor.shape, part.start)
        with pytest.raises(InputError, match=self._entry_mismatch(path, index, got, want)):
            load_checkpoint(str(path))

    def test_dotted_head_names_are_rejected_naming_the_first(self, tmp_path):
        # Manifests once spelled the embedding and head weights "embed.w" ... "recon.b".
        model = build_model(tiny_config(seed=6), 2, 1, 16)
        path = tmp_path / "old.ckpt"
        save_checkpoint(model, str(path))
        self._rename_in_manifest(
            path, {f"{head}_{p}": f"{head}.{p}" for head in ("embed", "cls", "recon") for p in "wb"}
        )
        message = self._entry_mismatch(path, 0, ("embed.w", (4, 8), 0), ("embed_w", (4, 8), 0))
        with pytest.raises(InputError, match=message):
            load_checkpoint(str(path))

    def test_swapped_entries_are_rejected_naming_the_first(self, tmp_path):
        # The blob is read in layout order, so a file whose manifest swaps two
        # scalar names would otherwise load each threshold as the other.
        model = build_model(tiny_config(seed=6), 2, 1, 16)
        path = tmp_path / "swapped.ckpt"
        save_checkpoint(model, str(path))
        high, low = "layers.0.afb.theta_high", "layers.0.afb.theta_low"
        self._rename_in_manifest(path, {high: low, low: high})
        with pytest.raises(InputError, match=self._entry_mismatch(path, 4, (low, (), 76), (high, (), 76))):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "edit, listed",
        [
            (lambda entries: entries.append(dict(entries[-1], name="extra")), 53),
            (lambda entries: entries.pop(), 51),
        ],
        ids=["extra", "missing"],
    )
    def test_entry_count_mismatch_names_both_counts(self, tmp_path, edit, listed):
        model = build_model(tiny_config(seed=6), 2, 1, 16)
        assert len(model.layout) == 52
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        self._edit_manifest(path, edit)
        message = re.escape(f"{path} lists {listed} parameters; the rebuilt model has 52")
        with pytest.raises(InputError, match=message):
            load_checkpoint(str(path))

    def test_names_are_attribute_paths(self):
        model = build_model(tiny_config(n_layers=2), 2, 1, 16)
        for name, tensor, _ in model.layout:
            node = model
            for part in name.split("."):
                node = node[int(part)] if part.isdigit() else getattr(node, part)
            assert node is tensor, name

    def test_layout_names_are_unique_and_stable(self):
        model = build_model(tiny_config(n_layers=2), 2, 1, 16)
        names = [n for n, _, _ in model.layout]
        assert len(names) == len(set(names))
        assert names == [n for n, _, _ in build_model(tiny_config(n_layers=2), 2, 1, 16).layout]
        assert "layers.1.afb.theta_high" in names
