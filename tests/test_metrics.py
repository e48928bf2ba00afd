"""Accuracy and macro-F1 scoring."""

import numpy as np
import pytest

from faim.errors import InputError
from faim.metrics import accuracy_and_macro_f1


class TestAccuracyAndMacroF1:
    def test_perfect_predictions(self):
        assert accuracy_and_macro_f1([0, 1, 2, 1], [0, 1, 2, 1]) == (1.0, 1.0)

    def test_hand_counted_two_class_case(self):
        # class 0: tp=1 fp=0 fn=1 -> 2/3; class 1: tp=2 fp=1 fn=0 -> 4/5
        acc, f1 = accuracy_and_macro_f1([0, 1, 1, 1], [0, 0, 1, 1])
        assert acc == 0.75
        np.testing.assert_allclose(f1, (2 / 3 + 4 / 5) / 2, rtol=1e-15)

    # expected values frozen from sklearn.metrics f1_score(average="macro")
    @pytest.mark.parametrize(
        "labels,preds,acc,f1",
        [
            ([0, 1, 2, 0, 1, 2, 2], [0, 2, 1, 0, 0, 2, 2], 0.5714285714285714, 0.48888888888888893),
            ([1, 1, 1, 1], [1, 1, 0, 1], 0.75, 0.42857142857142855),
            ([0, 0, 0, 1, 1, 2], [0, 1, 0, 1, 2, 2], 0.6666666666666666, 0.6555555555555556),
        ],
    )
    def test_reference_cases(self, labels, preds, acc, f1):
        got = accuracy_and_macro_f1(preds, labels)
        np.testing.assert_allclose(got, (acc, f1), rtol=1e-15)

    def test_collapsed_predictor_on_balanced_labels(self):
        # class 0: tp=2 fp=2 fn=0 -> 2/3; class 1: tp=0 fp=0 fn=2 -> 0
        acc, f1 = accuracy_and_macro_f1([0, 0, 0, 0], [0, 0, 1, 1])
        assert acc == 0.5
        np.testing.assert_allclose(f1, 1 / 3, rtol=1e-15)

    def test_absent_classes_are_skipped_not_zeroed(self):
        with_extra = accuracy_and_macro_f1([0, 1, 1], [0, 0, 1], n_classes=5)
        inferred = accuracy_and_macro_f1([0, 1, 1], [0, 0, 1])
        assert with_extra == inferred

    def test_class_count_inferred_from_data(self):
        acc, f1 = accuracy_and_macro_f1([3, 0], [3, 0])
        assert (acc, f1) == (1.0, 1.0)

    def test_empty_inputs_rejected(self):
        with pytest.raises(InputError, match="empty"):
            accuracy_and_macro_f1([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError, match="shape"):
            accuracy_and_macro_f1([0, 1], [0, 1, 1])
