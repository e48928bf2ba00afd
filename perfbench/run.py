"""faim benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload finetune-motion --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a faim checkout; faim is imported from ``src``.  Inputs
are generated from ``--seed`` into a scratch directory under ``.perfbench/``
before any timing starts.  Every repetition runs in a fresh child process,
one at a time, so that peak RSS belongs to that repetition alone.

``--trace 0`` repeats the workload for ``--seconds`` (at least twice) and
reports the end-to-end metrics declared in BENCHMARK.json.  ``--trace 1``
makes two untraced and two traced repetitions, alternately, and reports
the per-layer metrics; span files are kept in ``.perfbench/traces/``.
See README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"
MIN_REPS = 2
CHILD_TIMEOUT_S = 50
RUN_BUDGET_S = 120  # no repetition starts that could end past this
# Counts that a traced run must reproduce exactly.
EXACT_LAYERS = (
    "tensor.tape_nodes_per_step",
    "tensor.rules_run_ratio",
    "optim.steps",
    "imb.ssm_scan.state_bytes",
    "afb.tape_out_bytes",
    "imb.tape_out_bytes",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def repetition(workload: str, seed: int, inputs: Path, out: Path, spans: Path | None = None) -> dict:
    """Run one repetition in a child; returns its JSON, or {"problems": [...]}."""
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed), str(inputs), str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"repetition exceeded {CHILD_TIMEOUT_S} s"]}
    if proc.returncode != 0 or not out.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"problems": [f"repetition exited {proc.returncode}: {' | '.join(tail)}"]}
    result = json.loads(out.read_text())
    out.unlink()
    if not Path(result["faim"]).resolve().is_relative_to(SRC):
        result["problems"].append(f"imported faim from {result['faim']}, not from {SRC}")
    return result


def summarize(label: str, reps: list[dict]) -> list[str]:
    """Fail each repetition whose final loss is not bit-identical to the first
    one's, then list every repetition's problems."""
    losses = [r["final_loss_hex"] for r in reps if "final_loss_hex" in r]
    for r in reps:
        if "final_loss_hex" in r and r["final_loss_hex"] != losses[0]:
            r["problems"].append(f"final loss {r['final_loss_hex']} differs from {losses[0]} for the same seed")
    return [f"{label} repetition {i}: {p}" for i, r in enumerate(reps) for p in r["problems"]]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        workloads.generate(workloads.WORKLOADS[workload], seed, inputs)
        out = inputs / "rep.json"
        if trace:
            return measure_traced(workload, seed, inputs, out)
        reps: list[dict] = []
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            longest = max((r["wall_s"] for r in reps), default=0.0)
            if (len(reps) >= MIN_REPS and elapsed + longest > seconds) or elapsed + longest > RUN_BUDGET_S:
                break
            began = time.perf_counter()
            reps.append(repetition(workload, seed, inputs, out))
            reps[-1]["wall_s"] = time.perf_counter() - began
        return end_to_end(workload, reps)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def end_to_end(workload: str, reps: list[dict]) -> dict:
    """Host contention only ever adds time, so timings are the fastest seen."""
    problems = summarize(workload, reps)
    ok = [r for r in reps if not r["problems"]]
    units = [u for r in ok for u in r["unit_s"]]
    metrics = {}
    if ok:
        metrics = {
            "samples_per_s": ok[0]["unit_samples"] / min(units),
            "setup_s": min(s for r in ok for s in r["setup_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "final_loss": ok[0]["final_loss"],
        }
    return {
        "problems": problems,
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "metrics": metrics,
        "units": units,
        "setups": sorted(s for r in ok for s in r["setup_s"]),
    }


def measure_traced(workload: str, seed: int, inputs: Path, out: Path) -> dict:
    traces = WORK / "traces"
    traces.mkdir(exist_ok=True)
    plain, traced = [], []
    for i in (1, 2):  # interleaved, so that host drift falls on both kinds alike
        plain.append(repetition(workload, seed, inputs, out))
        traced.append(repetition(workload, seed, inputs, out, spans=traces / f"{workload}-seed{seed}-run{i}.jsonl"))
    reps = plain + traced
    problems = summarize(workload, reps)
    metrics = {}
    if not any(r["problems"] for r in reps):
        for name in EXACT_LAYERS:
            if traced[0]["layers"][name] != traced[1]["layers"][name]:
                problems.append(f"{name} differs between traced runs: "
                                f"{traced[0]['layers'][name]} vs {traced[1]['layers'][name]}")
        if traced[0]["span_counts"] != traced[1]["span_counts"]:
            problems.append("span counts differ between traced runs")
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(t["layers"][name] for t in traced)
        metrics["trace.overhead_s"] = (statistics.median(t["main_s"] for t in traced)
                                       - statistics.median(p["main_s"] for p in plain))
    failed = sum(1 for r in reps if r["problems"])
    return {
        "problems": problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }


def with_units(result: dict, declared: list[dict]) -> dict:
    """Attach BENCHMARK.json's unit to each metric; the names must match it."""
    units = {m["name"]: m["unit"] for m in declared}
    values = result["metrics"]
    if values and set(values) != set(units):
        result["problems"].append(f"metrics {sorted(set(values) ^ set(units))} disagree with {SPEC.name}")
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    return result


def report(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:16s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    units = sorted(result.get("units", []))
    if units:
        tail = f", p90 {units[int(0.9 * len(units))]:.4g} s" if len(units) >= 100 else ""
        print(f"{workload:16s} {'unit of work':28s} n={len(units)}, fastest {units[0]:.4g} s, "
              f"median {statistics.median(units):.4g} s{tail}")
    setups = result.get("setups", [])
    if setups:
        print(f"{workload:16s} {'set-up':28s} n={len(setups)}, fastest {setups[0]:.4g} s, "
              f"median {statistics.median(setups):.4g} s")
    error_rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{workload:16s} {'error_rate':28s} {error_rate:>16.6g} "
          f"({result['failed']} of {result['attempted']} repetitions failed)")
    for problem in result["problems"]:
        print(f"{workload:16s} CHECK FAILED: {problem}")


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = with_units(measure(name, args.seed, args.seconds, bool(args.trace)), declared)
        report(name, results[name])
    if not any(r["metrics"] for r in results.values()):
        print("no repetition succeeded", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": not any(r["problems"] or r["failed"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "faim" / "__init__.py").is_file():
        print(f"no faim sources at {SRC}; run from the root of a faim checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    sys.exit(main())
