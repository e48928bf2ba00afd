"""Bitwise fingerprint of training: the sha256 of every trained model's
parameter vector.

Pretrains then fine-tunes each model variant at a tiny geometry (dim 16,
state 4, two layers, batch 8) on a small 1-channel corpus, fine-tunes
``no_pretrain`` from scratch, and fine-tunes one default-geometry model on
a 6-channel motion corpus at batch 32.  It prints one line per trained
model: the run, the stage and the sha256 of ``model.values``.  Two trees
whose training numerics agree bit for bit print the same bytes.

It then compares its lines with ``fingerprint.txt`` beside it, and exits 1
naming each run whose hash differs.  A change to training numerics
regenerates that file.  The hashes depend on the BLAS build, so pytest does
not collect this script; run it from the repository root with

    PYTHONPATH=src python tests/fingerprint.py
"""

import hashlib
import sys
from pathlib import Path

from faim.data import make_synthetic_freq_dataset, make_synthetic_motion_dataset, znormalize
from faim.model import VARIANTS, FaimConfig
from faim.training import finetune, pretrain

TINY = dict(embed_dim=16, ssm_state=4, n_layers=2, batch_size=8, pretrain_epochs=3, finetune_epochs=3)


def digest(model) -> str:
    return hashlib.sha256(model.values.tobytes()).hexdigest()


def runs():
    """(run, stage, sha256) of each trained model, in training order."""
    freq = znormalize(make_synthetic_freq_dataset(24, 128, [3.0, 12.0], 0.5, seed=0))
    for variant in VARIANTS:
        config = FaimConfig(seed=1, variant=variant, **TINY)
        init = None
        if variant != "no_pretrain":
            init, _ = pretrain(freq, config)
            yield f"tiny {variant}", "pretrain", digest(init)
        model, _ = finetune(freq, config, init=init)
        yield f"tiny {variant}", "finetune", digest(model)
    motion = znormalize(make_synthetic_motion_dataset(10, n_channels=6, t=128, n_classes=4, snr_sigma=0.5, seed=2))
    model, _ = finetune(motion, FaimConfig(seed=2, batch_size=32, finetune_epochs=2))
    yield "motion full", "finetune", digest(model)


def main() -> int:
    recorded = {}
    for line in (Path(__file__).parent / "fingerprint.txt").read_text().splitlines():
        run, stage, sha = line.rsplit(" ", 2)
        recorded[run, stage] = sha
    differ = []
    for run, stage, sha in runs():
        print(f"{run} {stage} {sha}", flush=True)
        if recorded.pop((run, stage), None) != sha:
            differ.append(f"{run} {stage}")
    differ += [f"{run} {stage} (not run)" for run, stage in recorded]
    for name in differ:
        print(f"hash differs from fingerprint.txt: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
