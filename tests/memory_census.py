"""Memory census of one default six-channel finetune step, and of
tape-free evaluation.

For batch 32 and batch 128, each in a fresh child process, it runs one
untraced warm-up step and three more untraced steps, then one step under
tracemalloc, and prints:

- the minor page faults per step over the three untraced steps after the
  warm-up (``getrusage(RUSAGE_SELF).ru_minflt``);
- ``ru_maxrss`` after those four untraced steps;
- the bytes still held after the traced step's forward, in total and per
  allocating function (the innermost frame inside ``src/faim``; a nested
  backward rule shows as ``op.rule``);
- the backward's tracemalloc peak, counted from the start of the step.

In a third child process it runs ``evaluate`` over 256 six-channel samples
at batch 256 with no tape, as the ``infer-motion`` benchmark does, and
prints ``ru_maxrss`` after it, then the tracemalloc peak of one of its row
blocks (one tape-free ``classify_batch`` of ``row_block(model)`` samples),
in MiB and in token spectra of that block.

Not collected by pytest; run it from the repository root with

    PYTHONPATH=src python tests/memory_census.py
"""

import ast
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import faim
from faim.data import make_synthetic_motion_dataset, znormalize
from faim.model import FaimConfig, build_model, classify_batch
from faim.optim import AdamWState, adamw_step
from faim.tensor import Tape, backward
from faim.training import batch_label_smoothed_ce, evaluate, row_block

BATCHES = (32, 128)
INFER = "infer"
INFER_SAMPLES = 256
MIB = 2**20
SHOWN_BYTES = 0.05 * MIB  # functions holding less are summed into one line
SRC = Path(faim.__file__).resolve().parent


def function_spans() -> dict[str, list[tuple[int, int, str]]]:
    """(first line, last line, qualified name) of every def in src/faim."""
    spans = {}
    for path in SRC.glob("*.py"):
        found = []

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if isinstance(child, ast.FunctionDef):
                        found.append((child.lineno, child.end_lineno, f"{path.stem}.{name}"))
                    visit(child, name + ".")

        visit(ast.parse(path.read_text()), "")
        spans[str(path)] = found
    return spans


def owner(traceback, spans) -> str:
    """The innermost function in src/faim on an allocation's traceback."""
    for frame in reversed(traceback):  # most recent call first
        inside = [s for s in spans.get(frame.filename, ()) if s[0] <= frame.lineno <= s[1]]
        if inside:
            return max(inside)[2]
    return "(outside src/faim)"


def step(model, x, y, eps):
    with Tape() as tape:
        logits, _ = classify_batch(model, x)
        loss = batch_label_smoothed_ce(logits, y, eps)
    return tape, loss


def census(batch: int) -> None:
    corpus = znormalize(
        make_synthetic_motion_dataset(batch // 4, n_channels=6, t=128, n_classes=4, snr_sigma=0.5, seed=2)
    )
    config = FaimConfig(seed=2, batch_size=batch)
    model = build_model(config, corpus.n_classes, corpus.n_channels, corpus.series_len)
    opt = AdamWState(lr=config.lr, weight_decay=config.weight_decay)
    x, y = corpus.x[:batch], corpus.y[:batch]

    def untraced_step():
        tape, loss = step(model, x, y, config.label_smooth_eps)
        adamw_step(model.values, *model.gradient(backward(tape, loss)), opt)

    untraced_step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        untraced_step()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    faults = (usage.ru_minflt - faults) / 3

    spans = function_spans()
    tracemalloc.start(64)
    tape, loss = step(model, x, y, config.label_smooth_eps)
    held = tracemalloc.get_traced_memory()[0]
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.reset_peak()
    grads = backward(tape, loss)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del grads, tape, loss

    by_owner: dict[str, int] = {}
    for stat in snapshot.statistics("traceback"):
        name = owner(stat.traceback, spans)
        by_owner[name] = by_owner.get(name, 0) + stat.size
    print(f"batch {batch}: {len(x)} rows of {corpus.n_channels} channels, {corpus.series_len} steps")
    print(f"  minor page faults per step: {faults:,.0f}")
    print(f"  ru_maxrss: {usage.ru_maxrss / 1024:.0f} MiB")
    print(f"  held after the forward: {held / MIB:.1f} MiB")
    rest = 0
    for name, size in sorted(by_owner.items(), key=lambda kv: (-kv[1], kv[0])):
        if size >= SHOWN_BYTES:
            print(f"    {size / MIB:7.1f} MiB  {name}")
        else:
            rest += size
    print(f"    {rest / MIB:7.1f} MiB  (functions under {SHOWN_BYTES / MIB:.2f} MiB each)")
    print(f"  backward peak: {peak / MIB:.1f} MiB")


def inference_census() -> None:
    corpus = znormalize(
        make_synthetic_motion_dataset(INFER_SAMPLES // 4, n_channels=6, t=128, n_classes=4, snr_sigma=0.5, seed=2)
    )
    model = build_model(FaimConfig(seed=2), corpus.n_classes, corpus.n_channels, corpus.series_len)
    evaluate(model, corpus, INFER_SAMPLES)
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    rows = row_block(model)
    block = corpus.x[:rows]
    # One token spectrum of the block: complex128 per (row, bin, dim).
    spectrum = rows * corpus.n_channels * (model.n_patches // 2 + 1) * model.config.embed_dim * 16
    tracemalloc.start()
    classify_batch(model, block)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"evaluate: {len(corpus)} rows of {corpus.n_channels} channels, {corpus.series_len} steps, no tape")
    print(f"  ru_maxrss: {maxrss / 1024:.0f} MiB")
    print(f"  one row block of {rows} samples peaks at {peak / MIB:.2f} MiB ({peak / spectrum:.1f} token spectra)")


def main() -> None:
    if len(sys.argv) > 1:
        if sys.argv[1] == INFER:
            inference_census()
        else:
            census(int(sys.argv[1]))
        return
    for arg in (*map(str, BATCHES), INFER):
        sys.stdout.flush()
        subprocess.run([sys.executable, __file__, arg], check=True)


if __name__ == "__main__":
    main()
