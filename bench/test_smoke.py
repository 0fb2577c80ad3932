"""Tiny-size smoke test of the benchmark's own code.

    python3 -m pytest bench -q

Runs the sample code, the tracer and the output checks on workloads far
smaller than the benchmark's, and checks them against the package's own
boundary predicates and against BENCHMARK.json.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import sample  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from mpdl import orchestrator  # noqa: E402
from mpdl.density import log_density_batch  # noqa: E402
from mpdl.orchestrator import MpdlConfig, mpdl_train, \
    prepare_experiment  # noqa: E402
from mpdl.synthetic import linear_task  # noqa: E402
from mpdl.transport import Hub, MessageKind, allowed_kinds_only, \
    forbid_plaintext_rows, forbid_plaintext_values, pack_matrix, \
    transcript_assert  # noqa: E402

TINY = dict(dual_epochs=1, central_epochs=2, max_iters=1, batch_size=16)
TINY_ENC = Workload("tiny-enc", "smoke", 80, 2, 2, dict(key_bits=512, **TINY),
                    shadow_tol=1e-9)
TINY_TCP = Workload("tiny-tcp", "smoke", 80, 2, 2,
                    dict(use_encryption=False, **TINY), backend="tcp")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_names(section):
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("wl", [TINY_ENC, TINY_TCP], ids=lambda w: w.name)
def test_traced_sample_passes_checks_and_restores_wrappers(wl):
    out = sample.run_sample(wl, 5, True, time.monotonic())
    assert out["ok"], out["failures"]
    layers = out["layers"]
    assert set(layers) | {"trace.overhead_s"} == _metric_names("per_layer")
    assert sum(layers[f"split.{x}_s"] for x in spans.LAYERS) == \
        pytest.approx(layers["orchestrator.run_s"])
    assert layers["transport.msgs"] == out["wire_msgs"]
    if wl.encrypted:
        assert layers["paillier.decrypts_per_grad_entry"] == 1.0
        assert out["shadow_max_diff"] <= wl.shadow_tol
    else:
        assert layers["paillier.decrypt_n"] == 0
    assert spans.Tracer().leftover() == []


def test_trace_guard_reports_sites_a_workload_skipped():
    tracer = spans.Tracer()
    world = prepare_experiment(linear_task(80, 2, 2, seed=5), 0.3, seed=5)
    with tracer:  # called through the module, where the tracer wraps it
        orchestrator.mpdl_train(world, MpdlConfig(
            gamma=0.3, epsilon=8.0, seed=5, use_encryption=False, **TINY))
    assert tracer.missing_calls(encrypted=False) == []
    assert "mpdl.paillier:decrypt_vector" in \
        tracer.missing_calls(encrypted=True)


def test_boundary_check_agrees_with_package_predicates():
    world = prepare_experiment(linear_task(80, 2, 2, seed=7), 0.3, seed=7)
    hub = Hub()
    result = mpdl_train(world, MpdlConfig(gamma=0.3, epsilon=8.0, seed=7,
                                          **TINY), hub)
    store_a, store_b = result.state_a.store, result.state_b.store
    predicates = {
        "raw A rows never cross":
            forbid_plaintext_rows(None, world.party_a.features),
        "raw B rows never cross":
            forbid_plaintext_rows(None, world.party_b.features),
        "A never sees B's perturbed rows":
            forbid_plaintext_rows("A", store_b.features),
        "B never sees A's perturbed rows":
            forbid_plaintext_rows("B", store_a.features),
        "A never sees B's log-densities":
            forbid_plaintext_values("A", log_density_batch(
                result.state_b.kde, store_b.features)),
        "B never sees A's log-densities":
            forbid_plaintext_values("B", log_density_batch(
                result.state_a.kde, store_a.features)),
        "C only sees partial sums and control":
            allowed_kinds_only("C", (MessageKind.PartialSum,
                                     MessageKind.Control)),
    }

    def verdicts():
        theirs = transcript_assert(hub.transcript, predicates).failures()
        ours = checks.boundary_failures(hub.transcript, world, result)
        return sorted(f"boundary predicate failed: {n}" for n in theirs), \
            sorted(ours)

    theirs, ours = verdicts()
    assert theirs == ours == []
    row = world.party_a.features[3]
    hub.send("A", "B", MessageKind.InferredBatch, pack_matrix(row))
    hub.send("B", "A", MessageKind.GradTerm, pack_matrix(
        [[0.5, float(log_density_batch(result.state_b.kde,
                                       store_b.features[:1])[0])]]))
    hub.send("A", "C", MessageKind.GradTerm, pack_matrix([[1.0]]))
    theirs, ours = verdicts()
    assert theirs == ours and len(ours) == 3
    hub.close()


def test_round_framing_flags_a_short_round():
    hub = Hub()
    for _ in range(8):
        hub.send("A", "B", MessageKind.GradTerm, pack_matrix([[0.0]]),
                 batch_tag=0)
    hub.send("A", "B", MessageKind.GradTerm, pack_matrix([[0.0]]),
             batch_tag=1)
    assert checks.round_framing_failures(hub.transcript, 2) == \
        ["1 dual rounds do not carry 8 messages; batch tag 1 carries 1"]
    hub.close()


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert _metric_names("end_to_end") == set(run.END_TO_END)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_run_refuses_a_tree_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dual-enc", "--seed",
         "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
