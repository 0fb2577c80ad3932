"""End-to-end and per-layer benchmark of ``mpdl_train``.

    python3 bench/run.py --workload dual-enc --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Closed loop: one thread runs one sample at a time, each in a fresh
process with BLAS/OpenMP pinned to one thread, for ``--seconds``: it
starts another sample only while one as long as the last still fits
(there is always at least one).  Sample i draws its inputs from seed
``1000 * seed + i``, so a run's inputs depend on ``--seed`` alone.
Every sample's outputs are checked after its timed region, and a
failed check counts the sample as failed; the costly boundary-predicate
check runs on the first sample only.

``--trace 0`` reports the end-to-end metrics: medians over the samples
for times and memory, means for the wire counts and ``accuracy_dual``,
which depend on the seed in coarse steps.  ``--trace 1`` runs pairs of
one untraced and one traced sample on the same inputs and reports
per-layer metrics (medians over the traced samples) and
``trace.overhead_s``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it describe the machine and each metric's spread.  The run
exits 1 without that line when no sample produced metrics, and 2 when
the package source is missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from sample import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0
# unit and aggregate over a run's samples: medians for times and memory,
# means for per-seed counts and accuracy, which move in coarse steps
END_TO_END = {"run_s": ("s", statistics.median),
              "setup_s": ("s", statistics.median),
              "wire_mb": ("MB", statistics.fmean),
              "wire_msgs": ("count", statistics.fmean),
              "peak_rss_mb": ("MB", statistics.median),
              "accuracy_dual": ("fraction", statistics.fmean)}
THREAD_ENV = {v: "1" for v in THREAD_VARS}


def sample(workload: str, seed: int, trace: bool, boundaries: bool,
           timeout: float) -> dict:
    """Run one sample process; a crash or timeout is a failed sample."""
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), workload, str(seed),
             "1" if trace else "0", repr(spawned),
             "1" if boundaries else "0"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": [f"sample timed out ({seed})"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"ok": False,
                "failures": [f"sample exited {proc.returncode} ({seed})"]}
    return json.loads(lines[-1])


def spread(name: str, values: list[float], unit: str) -> str:
    """Median plus the highest percentile with ten samples beyond it."""
    line = f"{name}: median {statistics.median(values):.6g} {unit}"
    pct = int(100 * (1 - 10 / len(values)))
    if pct > 50:
        cut = statistics.quantiles(values, n=100, method="inclusive")
        line += f", p{pct} {cut[pct - 1]:.6g}"
    return (line + f", min {min(values):.6g}, max {max(values):.6g}, "
            f"n={len(values)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict | None:
    """Samples for ``seconds``; the result dict, or None if none succeeded."""
    samples, plain, traced = [], [], []
    start = time.monotonic()
    for i in itertools.count():
        began = time.monotonic()
        sub_seed = 1000 * seed + i
        for is_traced in ((False, True) if trace else (False,)):
            s = sample(name, sub_seed, is_traced, i == 0 and not is_traced,
                       deadline - time.monotonic())
            samples.append(s)
            for msg in s.get("failures", []):
                print(f"# {name} seed {sub_seed}: FAILED {msg}")
            if "run_s" in s:
                (traced if is_traced else plain).append(s)
        now = time.monotonic()
        if (now - start) + (now - began) > seconds:
            break  # another sample as long as this one would not fit
    if not plain or (trace and not traced):
        return None
    print("# env " + json.dumps(plain[0]["env"], sort_keys=True))
    if trace:
        overhead = (statistics.median(s["run_s"] for s in traced) -
                    statistics.median(s["run_s"] for s in plain))
        metrics = {k: (statistics.median(s["layers"][k] for s in traced),
                       spans.unit(k)) for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = {}
        for key, (unit, aggregate) in END_TO_END.items():
            values = [s[key] for s in plain]
            print(f"# {name} " + spread(key, values, unit))
            metrics[key] = (aggregate(values), unit)
    diffs = [s["shadow_max_diff"] for s in plain
             if s.get("shadow_max_diff") is not None]
    if diffs:
        print(f"# {name} shadow agreement: max generator-weight difference "
              f"{max(diffs):.3g} (tolerance {WORKLOADS[name].shadow_tol})")
    return {"correct": all(s["ok"] for s in samples),
            "attempted": len(samples),
            "failed": sum(not s["ok"] for s in samples),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "mpdl" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           deadline)
        if res is None:
            print(f"{name}: no sample produced metrics", file=sys.stderr)
            return 1
        results[name] = res

    metrics = {}
    for name, res in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for key, (value, unit) in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
        print(f"# {name}: attempted {res['attempted']}, failed "
              f"{res['failed']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
