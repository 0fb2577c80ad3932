"""One benchmark sample in a fresh process; ``run.py`` starts it as

    python3 bench/sample.py WORKLOAD SEED TRACE SPAWNED BOUNDARIES

It sets the workload up (imports, ``linear_task``, ``prepare_experiment``,
``Hub`` open), times one ``mpdl_train`` call, checks the outputs after
the timed region and prints one JSON line.  ``setup_s`` runs from
SPAWNED, the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), to ready-to-train.  With TRACE 1
the call runs with every layer site wrapped, and the sample also fails
if a site the workload must reach recorded no call.  With BOUNDARIES 1
the transcript is also checked against the criterion-10 boundary
predicates.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from importlib.util import find_spec
from pathlib import Path

from workloads import EPSILON, GAMMA, WORKLOADS, Workload

SRC = Path(__file__).resolve().parent.parent / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_package():
    sys.path.insert(0, str(SRC))
    import mpdl
    if Path(mpdl.__file__).resolve().parent != SRC / "mpdl":
        raise ImportError(f"mpdl imported from {mpdl.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "gmpy2": find_spec("gmpy2") is not None,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def transcript_stats(transcript) -> dict:
    msgs, size = Counter(), Counter()
    for e in transcript.entries:
        msgs[e.message.kind.name] += 1
        size[e.message.kind.name] += len(e.frame)
    return {"msgs": sum(msgs.values()), "bytes": sum(size.values()),
            "msgs_by_kind": dict(msgs), "bytes_by_kind": dict(size)}


def run_sample(wl: Workload, seed: int, trace: bool, spawned: float,
               boundaries: bool = True) -> dict:
    """Set up, time and check one ``mpdl_train`` call of a workload."""
    _import_package()
    from mpdl import orchestrator
    from mpdl.orchestrator import MpdlConfig, prepare_experiment
    from mpdl.synthetic import linear_task
    from mpdl.transport import Hub

    world = prepare_experiment(linear_task(wl.n, wl.d_a, wl.d_b, seed=seed),
                               GAMMA, seed=seed)
    config = MpdlConfig(gamma=GAMMA, epsilon=EPSILON, seed=seed, **wl.config)
    hub = Hub(backend=wl.backend)
    setup_s = time.monotonic() - spawned

    import checks
    import spans
    tracer = spans.Tracer() if trace else None
    out = {"ok": False, "setup_s": setup_s}
    try:
        with tracer or nullcontext():
            start = time.perf_counter()
            result = orchestrator.mpdl_train(world, config, hub)
            run_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except Exception:
        hub.close()
        traceback.print_exc()
        out["failures"] = ["mpdl_train raised: " +
                           traceback.format_exc().strip().splitlines()[-1]]
        return out

    stats = transcript_stats(hub.transcript)
    accuracy = result.report.accuracy_dual
    rounds = len(result.report.iterations) * config.dual_epochs * \
        math.ceil(len(world.split.co_occurrence) / config.batch_size)
    failures = checks.round_framing_failures(hub.transcript, rounds)
    failures += checks.accuracy_failures(accuracy, wl.accuracy_floor)
    if boundaries:
        failures += checks.boundary_failures(hub.transcript, world, result)
    hub.close()
    shadow_diff = None
    if wl.encrypted:
        shadow_hub = Hub()
        shadow = orchestrator.mpdl_train(
            world, replace(config, use_encryption=False), shadow_hub)
        shadow_hub.close()
        shadow_diff = checks.max_weight_diff(result.pair, shadow.pair)
        if not shadow_diff <= wl.shadow_tol:
            failures.append(f"generator weights differ from the plaintext "
                            f"shadow by {shadow_diff:.3g} > {wl.shadow_tol}")
    if tracer:
        failures += [f"traced site made no call: {t}"
                     for t in tracer.missing_calls(wl.encrypted)]
        out["layers"] = tracer.layer_metrics(stats)
    out.update(ok=not failures, failures=failures, run_s=run_s,
               peak_rss_mb=peak_rss_mb, wire_mb=stats["bytes"] / 1e6,
               wire_msgs=stats["msgs"], accuracy_dual=accuracy,
               shadow_max_diff=shadow_diff, env=environment())
    return out


if __name__ == "__main__":
    workload, seed, trace, spawned, boundaries = sys.argv[1:6]
    print(json.dumps(run_sample(WORKLOADS[workload], int(seed), trace == "1",
                                float(spawned), boundaries == "1")))
