"""Per-seed margins of the two direction checks in ``test_acceptance.py``.

Runs the ``test_08`` (filtering ablation, corpus noise 1.0) and ``test_09``
(noise robustness, corpus noise 0.5) recipes exactly as the acceptance tests
do, and prints one row per seed and variant:

- ``clean`` / ``noisy``: correct test samples out of 200, on the test split
  and on the same split with Gaussian noise of standard deviation 1.0;
- ``best_epoch``: the fine-tune epoch that early stopping kept;
- ``ties``: validation-accuracy ties that finetune's ``>=`` rule broke in
  favour of the later epoch.

The means the two tests assert on follow each table.  Not collected by
pytest; run it from the repository root with

    PYTHONPATH=src python tests/gate_margins.py
"""

import numpy as np

from faim.data import add_gaussian_noise
from faim.model import FaimConfig
from faim.training import evaluate, finetune, pretrain
from test_acceptance import FT_EPOCHS_DIRECTION, PRETRAIN_EPOCHS_DIRECTION, freq_corpus

RECIPES = (("test_08", 1.0), ("test_09", 0.5))
VARIANTS = ("full", "no_afb")
SEEDS = range(5)


def tie_count(report) -> int:
    """Epochs whose validation accuracy equalled the best so far."""
    best, ties = -1.0, 0
    for row in report.rows:
        if row.split != "val":
            continue
        if row.accuracy == best:
            ties += 1
        best = max(best, row.accuracy)
    return ties


def main() -> None:
    for recipe, sigma in RECIPES:
        print(f"{recipe} (corpus noise {sigma})")
        print("seed variant clean noisy best_epoch ties")
        clean = {v: [] for v in VARIANTS}
        noisy = {v: [] for v in VARIANTS}
        for seed in SEEDS:
            train, test = freq_corpus(sigma, seed)
            for variant in VARIANTS:
                config = FaimConfig(
                    n_layers=1, seed=seed, batch_size=32, variant=variant,
                    pretrain_epochs=PRETRAIN_EPOCHS_DIRECTION,
                    finetune_epochs=FT_EPOCHS_DIRECTION,
                )
                init, _ = pretrain(train, config)
                model, report = finetune(train, config, init=init)
                _, acc, _ = evaluate(model, test)
                _, noisy_acc, _ = evaluate(model, add_gaussian_noise(test, 1.0, seed=seed))
                clean[variant].append(acc)
                noisy[variant].append(noisy_acc)
                print(
                    f"{seed} {variant} {round(acc * len(test))} {round(noisy_acc * len(test))} "
                    f"{report.summary['best_epoch']} {tie_count(report)}",
                    flush=True,
                )
        for variant in VARIANTS:
            drops = np.subtract(clean[variant], noisy[variant])
            print(f"{variant}: mean acc {np.mean(clean[variant]):.4f} mean drop {np.mean(drops):.4f}")
        print()


if __name__ == "__main__":
    main()
