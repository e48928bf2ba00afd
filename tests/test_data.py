"""Dataset loading, normalization, synthetic corpora, noise, and splits."""

import errno
import os

import numpy as np
import pytest

from faim.data import (
    SeriesDataset,
    add_gaussian_noise,
    align_labels,
    channel_stats,
    load_multivariate,
    load_univariate,
    make_synthetic_freq_dataset,
    make_synthetic_motion_dataset,
    save_multivariate,
    save_univariate,
    split_dataset,
    znormalize,
)
from faim.errors import InputError
from faim.rng import CounterRng, derive_seed


def tiny_dataset():
    x = np.array([[[1.0, 2.0, 3.0, 4.0]], [[0.0, 0.0, 0.0, 0.0]], [[-1.0, 1.0, -1.0, 1.0]]])
    return SeriesDataset(x, np.array([0, 1, 0]), 2, {"a": 0, "b": 1})


class TestLoadUnivariate:
    def test_two_line_tab_example(self, tmp_path):
        path = tmp_path / "u.tsv"
        path.write_text("3\t1.5\t2.5\n5\t-1.0\t0.0\n")
        ds = load_univariate(str(path))
        assert (len(ds), ds.n_classes, ds.n_channels, ds.series_len) == (2, 2, 1, 2)
        # labels remap in first-seen order
        assert ds.label_map == {"3": 0, "5": 1}
        np.testing.assert_array_equal(ds.x, [[[1.5, 2.5]], [[-1.0, 0.0]]])
        assert ds.x.dtype == np.float64 and ds.y.dtype == np.int64
        assert ds.y.tolist() == [0, 1]

    def test_comma_delimiter_autodetected(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("x,1.0,2.0\ny,3.0,4.0\n")
        ds = load_univariate(str(path))
        assert ds.label_map == {"x": 0, "y": 1}
        np.testing.assert_array_equal(ds.x[1], [[3.0, 4.0]])

    def test_string_labels_and_blank_lines(self, tmp_path):
        path = tmp_path / "u.tsv"
        path.write_text("walk\t1.0\t2.0\n\nrun\t3.0\t4.0\n")
        ds = load_univariate(str(path))
        assert len(ds) == 2
        assert ds.label_map == {"walk": 0, "run": 1}

    def test_ragged_rows_warn_and_pad_with_last_value(self, tmp_path):
        path = tmp_path / "u.tsv"
        path.write_text("0\t1.0\t2.0\t3.0\t4.0\n1\t5.0\t6.0\n")
        with pytest.warns(UserWarning, match="padded to length 4"):
            ds = load_univariate(str(path))
        assert ds.series_len == 4
        np.testing.assert_array_equal(ds.x[1], [[5.0, 6.0, 6.0, 6.0]])

    def test_non_numeric_token_names_line_and_column(self, tmp_path):
        path = tmp_path / "u.tsv"
        path.write_text("0\t1.0\t2.0\n1\t3.0\toops\n")
        with pytest.raises(InputError, match=r"line 2, column 3: 'oops' is not numeric"):
            load_univariate(str(path))

    def test_error_after_blank_line_names_the_physical_line(self, tmp_path):
        path = tmp_path / "u.tsv"
        path.write_text("0\t1.0\t2.0\n\n1\t3.0\toops\n")
        with pytest.raises(InputError, match=r"line 3, column 3: 'oops' is not numeric"):
            load_univariate(str(path))

    def test_label_only_line_rejected(self, tmp_path):
        path = tmp_path / "u.tsv"
        path.write_text("0\t1.0\n justalabel \n")
        with pytest.raises(InputError, match="label and at least one value"):
            load_univariate(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "u.tsv"
        path.write_text("\n\n")
        with pytest.raises(InputError, match="no samples"):
            load_univariate(str(path))


class TestLoadMultivariate:
    def _write(self, tmp_path, lines):
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_two_record_example(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"label": "walk", "series": [[1.0, 2.0], [3.0, 4.0]]}',
                '{"label": "run", "series": [[5.0, 6.0], [7.0, 8.0]]}',
            ],
        )
        ds = load_multivariate(path)
        assert (len(ds), ds.n_classes, ds.n_channels, ds.series_len) == (2, 2, 2, 2)
        assert ds.label_map == {"walk": 0, "run": 1}
        np.testing.assert_array_equal(ds.x[0], [[1.0, 2.0], [3.0, 4.0]])
        assert ds.x.dtype == np.float64 and ds.y.tolist() == [0, 1]

    def test_short_records_padded_with_last_value(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"label": "a", "series": [[1.0, 2.0, 3.0]]}',
                '{"label": "b", "series": [[4.0, 5.0]]}',
            ],
        )
        ds = load_multivariate(path)
        assert ds.series_len == 3
        np.testing.assert_array_equal(ds.x[1], [[4.0, 5.0, 5.0]])

    def test_channel_count_mismatch_names_record(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"label": "a", "series": [[1.0], [2.0]]}',
                '{"label": "b", "series": [[1.0], [2.0], [3.0]]}',
            ],
        )
        with pytest.raises(InputError, match="record 2: has 3 channels, expected 2"):
            load_multivariate(path)

    def test_unequal_channel_lengths_names_record(self, tmp_path):
        path = self._write(tmp_path, ['{"label": "a", "series": [[1.0, 2.0], [3.0]]}'])
        with pytest.raises(InputError, match=r"record 1: channels have unequal lengths \[1, 2\]"):
            load_multivariate(path)

    def test_invalid_json_names_record(self, tmp_path):
        path = self._write(tmp_path, ['{"label": "a", "series": [[1.0]]}', "{nope"])
        with pytest.raises(InputError, match="record 2: invalid JSON"):
            load_multivariate(path)

    @pytest.mark.parametrize("series", ["[]", "[[]]", "[1.0, 2.0]", '"abc"'])
    def test_series_without_per_channel_values_rejected(self, tmp_path, series):
        path = self._write(tmp_path, ['{"label": "a", "series": %s}' % series])
        with pytest.raises(InputError, match="record 1: 'series'"):
            load_multivariate(path)

    def test_null_value_reported_as_missing(self, tmp_path):
        path = self._write(
            tmp_path,
            ['{"label": "a", "series": [[1.0, 2.0], [3.0, 4.0]]}',
             '{"label": "b", "series": [[1.0, 2.0], [3.0, null]]}'],
        )
        with pytest.raises(InputError, match=r"record 2, channel 1, index 1: missing value \(null\)"):
            load_multivariate(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = self._write(tmp_path, ['{"label": "a"}'])
        with pytest.raises(InputError, match="record 1: needs 'label' and 'series'"):
            load_multivariate(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, [""])
        with pytest.raises(InputError, match="no samples"):
            load_multivariate(path)


class TestSaveLoadRoundTrips:
    def test_univariate_round_trip_is_exact(self, tmp_path):
        ds = make_synthetic_freq_dataset(3, 16, [2.0, 5.0], 0.3, seed=7)
        path = str(tmp_path / "u.tsv")
        save_univariate(ds, path)
        back = load_univariate(path)
        assert back.label_map == ds.label_map
        assert len(back) == len(ds)
        assert back.y.tolist() == ds.y.tolist()
        assert back.x.tobytes() == ds.x.tobytes()

    def test_univariate_comma_round_trip(self, tmp_path):
        ds = tiny_dataset()
        path = str(tmp_path / "u.csv")
        save_univariate(ds, path, delimiter=",")
        back = load_univariate(path)
        assert back.y.tolist() == ds.y.tolist() and back.x.tobytes() == ds.x.tobytes()

    def test_multivariate_round_trip_is_exact(self, tmp_path):
        ds = make_synthetic_motion_dataset(2, 3, 20, 2, 0.2, seed=1)
        path = str(tmp_path / "m.jsonl")
        save_multivariate(ds, path)
        back = load_multivariate(path)
        assert back.label_map == ds.label_map
        assert back.n_channels == 3
        assert back.y.tolist() == ds.y.tolist()
        assert back.x.tobytes() == ds.x.tobytes()

    @pytest.mark.parametrize("save", [save_univariate, save_multivariate])
    def test_failed_write_keeps_the_previous_corpus(self, tmp_path, monkeypatch, save):
        path = tmp_path / "corpus"
        path.write_bytes(b"previous corpus\n")

        def disk_full(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError, match="No space left"):
            save(make_synthetic_motion_dataset(2, 1, 8, 2, 0.2, seed=1), str(path))
        assert path.read_bytes() == b"previous corpus\n"
        assert [p.name for p in tmp_path.iterdir()] == ["corpus"]


class TestZnormalize:
    def test_constant_channel_maps_to_zero(self):
        ds = SeriesDataset(np.full((1, 1, 8), 5.0), np.array([0]), 1, {"0": 0})
        out = znormalize(ds)
        np.testing.assert_array_equal(out.x, np.zeros((1, 1, 8)))

    def test_two_point_example(self):
        ds = SeriesDataset(np.array([[[0.0, 2.0]]]), np.array([0]), 1, {"0": 0})
        out = znormalize(ds)
        np.testing.assert_allclose(out.x, [[[-1.0, 1.0]]], rtol=1e-15)

    def test_normalized_stats_are_zero_mean_unit_std(self):
        ds = make_synthetic_motion_dataset(4, 3, 32, 2, 0.5, seed=3)
        out = znormalize(ds)
        mean, std = channel_stats(out)
        assert np.max(np.abs(mean)) < 1e-10
        assert np.max(np.abs(std - 1.0)) < 1e-6

    def test_training_stats_reused_for_test_split(self):
        train = make_synthetic_freq_dataset(5, 16, [2.0, 5.0], 0.4, seed=0)
        test = make_synthetic_freq_dataset(5, 16, [2.0, 5.0], 0.4, seed=1)
        stats = channel_stats(train)
        out = znormalize(test, stats=stats)
        expected = (test.x[0] - stats[0][:, None]) / stats[1][:, None]
        np.testing.assert_array_equal(out.x[0], expected)
        np.testing.assert_array_equal(out.norm_mean, stats[0])
        np.testing.assert_array_equal(out.norm_std, stats[1])

    def test_invertible(self):
        ds = make_synthetic_motion_dataset(2, 2, 16, 2, 0.3, seed=4)
        out = znormalize(ds)
        recovered = out.x * out.norm_std[:, None] + out.norm_mean[:, None]
        np.testing.assert_allclose(recovered, ds.x, atol=1e-12)

    def test_source_dataset_unchanged(self):
        ds = tiny_dataset()
        snapshot = ds.x.copy()
        out = znormalize(ds)
        np.testing.assert_array_equal(ds.x, snapshot)
        assert not np.shares_memory(out.x, ds.x)


class TestAddGaussianNoise:
    def test_sigma_zero_is_a_pure_copy(self):
        ds = tiny_dataset()
        out = add_gaussian_noise(ds, 0.0, seed=0)
        assert out.y.tolist() == ds.y.tolist()
        assert out.x.tobytes() == ds.x.tobytes()
        assert not np.shares_memory(out.x, ds.x)

    def test_source_never_mutated(self):
        ds = tiny_dataset()
        snapshot = ds.x.copy()
        add_gaussian_noise(ds, 2.0, seed=5)
        np.testing.assert_array_equal(ds.x, snapshot)

    def test_deterministic_and_seed_sensitive(self):
        ds = tiny_dataset()
        a = add_gaussian_noise(ds, 0.5, seed=1)
        b = add_gaussian_noise(ds, 0.5, seed=1)
        c = add_gaussian_noise(ds, 0.5, seed=2)
        assert a.x.tobytes() == b.x.tobytes()
        for xa, xc in zip(a.x, c.x):
            assert not np.array_equal(xa, xc)

    def test_substreams_differ_per_sample_and_channel(self):
        ds = SeriesDataset(np.zeros((2, 2, 16)), np.array([0, 0]), 1)
        out = add_gaussian_noise(ds, 1.0, seed=3)
        x0, x1 = out.x
        assert not np.array_equal(x0[0], x0[1])
        assert not np.array_equal(x0[0], x1[0])

    def test_each_sample_and_channel_draws_its_own_stream(self):
        ds = make_synthetic_motion_dataset(2, 3, 16, 2, 0.2, seed=1)
        out = add_gaussian_noise(ds, 0.4, seed=8)
        for i in range(len(ds)):
            for c in range(ds.n_channels):
                draw = CounterRng(derive_seed(8, "noise", i, c)).normal((ds.series_len,))
                assert out.x[i, c].tobytes() == (ds.x[i, c] + 0.4 * draw).tobytes()

    def test_negative_sigma_rejected(self):
        with pytest.raises(InputError, match="sigma"):
            add_gaussian_noise(tiny_dataset(), -0.1, seed=0)

    def test_noise_scale_matches_sigma(self):
        ds = SeriesDataset(np.zeros((1, 1, 4096)), np.array([0]), 1)
        out = add_gaussian_noise(ds, 0.7, seed=9)
        noise = out.x
        assert abs(noise.std() - 0.7) < 0.05 * 0.7
        assert abs(noise.mean()) < 0.1


class TestSyntheticFreqDataset:
    def test_layout_and_labels(self):
        ds = make_synthetic_freq_dataset(3, 32, [4.0, 9.0], 0.1, seed=0)
        assert (len(ds), ds.n_classes, ds.n_channels, ds.series_len) == (6, 2, 1, 32)
        assert ds.y.tolist() == [0, 0, 0, 1, 1, 1]
        assert ds.label_map == {"0": 0, "1": 1}

    def test_deterministic(self):
        a = make_synthetic_freq_dataset(2, 16, [2.0, 5.0], 0.5, seed=4)
        b = make_synthetic_freq_dataset(2, 16, [2.0, 5.0], 0.5, seed=4)
        assert a.x.tobytes() == b.x.tobytes()

    def test_noiseless_samples_classified_by_peak_bin(self):
        ds = make_synthetic_freq_dataset(20, 128, [3.0, 12.0], 0.0, seed=6)
        for series, label in zip(ds.x, ds.y):
            spectrum = np.abs(np.fft.rfft(series[0]))
            assert np.argmax(spectrum) == (3 if label == 0 else 12)

    def test_unit_amplitude_when_noiseless(self):
        ds = make_synthetic_freq_dataset(5, 64, [4.0, 9.0], 0.0, seed=2)
        for series, label in zip(ds.x, ds.y):
            peak = np.abs(np.fft.rfft(series[0]))[(4, 9)[label]]
            np.testing.assert_allclose(peak, 32.0, rtol=1e-9)

    def test_one_class_rejected(self):
        with pytest.raises(InputError, match="need at least 2 classes, got 1"):
            make_synthetic_freq_dataset(5, 16, [3.0], 0.1, seed=0)

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(InputError, match="distinct"):
            make_synthetic_freq_dataset(2, 16, [3.0, 3.0], 0.1, seed=0)

    def test_out_of_band_frequency_rejected(self):
        with pytest.raises(InputError, match="outside"):
            make_synthetic_freq_dataset(2, 16, [8.0], 0.1, seed=0)
        with pytest.raises(InputError, match="outside"):
            make_synthetic_freq_dataset(2, 16, [0.0], 0.1, seed=0)


class TestSyntheticMotionDataset:
    def test_layout(self):
        ds = make_synthetic_motion_dataset(4, 6, 100, 4, 0.3, seed=0)
        assert (len(ds), ds.n_classes, ds.n_channels, ds.series_len) == (16, 4, 6, 100)
        assert ds.x.shape == (16, 6, 100)
        assert ds.y.tolist() == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4

    def test_deterministic_and_seed_sensitive(self):
        a = make_synthetic_motion_dataset(2, 3, 50, 2, 0.2, seed=1)
        b = make_synthetic_motion_dataset(2, 3, 50, 2, 0.2, seed=1)
        c = make_synthetic_motion_dataset(2, 3, 50, 2, 0.2, seed=2)
        assert a.x.tobytes() == b.x.tobytes()
        for xa, xc in zip(a.x, c.x):
            assert not np.array_equal(xa, xc)

    def test_class_structure_shared_across_seeds(self):
        # dominant bin is the class base frequency (2 + 3c cycles) regardless
        # of the dataset seed, so splits drawn with different seeds agree
        for seed in (0, 1):
            ds = make_synthetic_motion_dataset(3, 4, 100, 3, 0.0, seed=seed)
            for series, label in zip(ds.x, ds.y):
                for channel in series:
                    peak = np.argmax(np.abs(np.fft.rfft(channel)))
                    assert peak == 2 + 3 * label

    def test_single_class_rejected(self):
        with pytest.raises(InputError, match="at least 2 classes"):
            make_synthetic_motion_dataset(2, 3, 50, 1, 0.1, seed=0)


class TestAlignLabels:
    def test_relabels_to_reference_order(self):
        ds = tiny_dataset()  # {"a": 0, "b": 1}
        out = align_labels(ds, {"b": 0, "a": 1})
        assert out.y.tolist() == [1, 0, 1]
        assert out.label_map == {"b": 0, "a": 1}
        assert not np.shares_memory(out.x, ds.x)

    def test_unseen_label_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(InputError, match="'b' does not appear"):
            align_labels(ds, {"a": 0, "c": 1})

    def test_class_count_covers_reference(self):
        ds = SeriesDataset(np.zeros((1, 1, 4)), np.array([0]), 1, {"a": 0})
        out = align_labels(ds, {"a": 0, "b": 1, "c": 2})
        assert out.n_classes == 3


class TestSplitDataset:
    def _dataset(self, n):
        x = np.arange(float(n))[:, None, None] * np.ones((1, 4))
        return SeriesDataset(x, np.arange(n) % 2, 2, {"0": 0, "1": 1})

    def test_sizes(self):
        kept, holdout = split_dataset(self._dataset(10), 0.3, seed=0)
        assert (len(kept), len(holdout)) == (7, 3)

    def test_deterministic(self):
        ds = self._dataset(12)
        k1, h1 = split_dataset(ds, 0.25, seed=5)
        k2, h2 = split_dataset(ds, 0.25, seed=5)
        assert k1.x.tobytes() + h1.x.tobytes() == k2.x.tobytes() + h2.x.tobytes()

    def test_partition_is_disjoint_and_complete(self):
        ds = self._dataset(9)
        kept, holdout = split_dataset(ds, 0.4, seed=2)
        ids = kept.x[:, 0, 0].tolist() + holdout.x[:, 0, 0].tolist()
        assert sorted(ids) == [float(i) for i in range(9)]
        assert len(set(ids)) == 9

    def test_split_is_shuffled(self):
        ds = self._dataset(20)
        kept, _ = split_dataset(ds, 0.5, seed=1)
        ids = kept.x[:, 0, 0].tolist()
        assert ids != sorted(ids)

    def test_fraction_bounds(self):
        ds = self._dataset(10)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InputError, match="holdout fraction"):
                split_dataset(ds, bad, seed=0)

    def test_degenerate_holdout_rejected(self):
        with pytest.raises(InputError, match="leaves no training samples"):
            split_dataset(self._dataset(2), 0.9, seed=0)

    def test_take_produces_independent_copies(self):
        ds = self._dataset(6)
        kept, _ = split_dataset(ds, 0.5, seed=3)
        kept.x[0] = 999.0
        assert not any(np.all(x == 999.0) for x in ds.x)
