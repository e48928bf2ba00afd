"""One repetition of a workload, in a fresh process.

    python3 perfbench/rep.py WORKLOAD SEED INPUT_DIR OUT_JSON [--spans FILE]

Run with ``src`` on PYTHONPATH.  Sets up at least ``SETUP_MIN_REPEATS``
times and for at least ``SETUP_MIN_S`` seconds, then makes the workload's
timed call once, checks its outputs, and writes one JSON object to
OUT_JSON.  Its units of work are the training steps, or for inference the
whole ``evaluate`` call.  With ``--spans`` the run is traced: spans go to
FILE and the per-layer metrics into the JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import faim
import spans
import workloads

SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 1.0
# Share of the traced call that must be charged to a named layer.
MIN_COVERAGE = 0.95


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("input_dir", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    rec = spans.Recorder(layers=args.spans is not None)
    rec.install()
    timed = rec.timed

    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_S:
        started = time.perf_counter()
        state = workloads.setup(workload, args.seed, args.input_dir, timed)
        setup_s.append(time.perf_counter() - started)

    started = time.perf_counter()
    result = timed("run." + workload.kind, workloads.run, workload, state)
    main_s = time.perf_counter() - started
    rec.uninstall()

    problems = []
    if not all(math.isfinite(v) for v in result["losses"]):
        problems.append(f"non-finite loss in {result['losses']}")
    if not all(0.0 <= s <= 1.0 for s in result["scores"]):
        problems.append(f"accuracy or macro-F1 outside [0, 1]: {result['scores']}")
    expected_epochs = workload.config.get("finetune_epochs", workload.config.get("pretrain_epochs"))
    if expected_epochs is not None and result["epochs"] != expected_epochs:
        problems.append(f"report has {result['epochs']} epochs, expected {expected_epochs}")

    if workload.kind == "infer":
        units, unit_samples = [main_s], result["samples"]
    else:
        units, unit_samples = spans.step_seconds(rec.spans), workload.config["batch_size"]
        if len(units) * unit_samples != result["samples"]:
            problems.append(f"{len(units)} full batches of {unit_samples} do not make {result['samples']} samples")

    out = {
        "faim": faim.__file__,
        "setup_s": setup_s,
        "main_s": main_s,
        "samples": result["samples"],
        "unit_s": units,
        "unit_samples": unit_samples,
        "final_loss": result["final_loss"],
        "final_loss_hex": float(result["final_loss"]).hex(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
    }
    if args.spans:
        root = next(i for i, s in enumerate(rec.spans) if s[0].startswith("run."))
        problems.extend(check_coverage(rec, root, main_s))
        out["layers"] = spans.layer_metrics(rec)
        # The number of set-ups varies with host speed; the timed call's spans must not.
        out["span_counts"] = dict(sorted(Counter(name for name, *_ in rec.spans[root:]).items()))
        rec.write(str(args.spans), args.spans.stem)
    args.out.write_text(json.dumps(out))
    return 0


def check_coverage(rec, root: int, main_s: float) -> list[str]:
    """Fail when less than MIN_COVERAGE of the timed call (span ``root``) is
    charged to a named layer, as when the program works outside every span."""
    covered = spans.named_seconds(rec.spans, first=root + 1)
    if covered < MIN_COVERAGE * main_s:
        return [f"named layers account for {covered:.4f} s of {main_s:.4f} s traced, under {MIN_COVERAGE:.0%}"]
    return []


if __name__ == "__main__":
    sys.exit(main())
