"""One encrypted dual-learning round, message by message.

Two parties hold different feature columns for the same entities.  Each
trains a generator into the other's feature space; the duality penalty
couples the two via log-density residuals that cross the wire only
encrypted under their owner's key, so only the owner can open them.

Run with ``python3 demos/03_dual_round_walkthrough.py``.
"""

import random

import numpy as np

from mpdl.data import PartyDataset
from mpdl.density import fit_kde, log_density_batch
from mpdl.dual import DualPartyState, dual_infer, dual_loss, run_dual_round
from mpdl.nn import init_mlp
from mpdl.paillier import keygen
from mpdl.transport import (Hub, transcript_assert, forbid_plaintext_rows,
                            forbid_plaintext_values)


def main() -> None:
    rng = np.random.default_rng(12)
    n, d_a, d_b = 24, 3, 2
    x_a = rng.uniform(size=(n, d_a))
    x_b = rng.uniform(size=(n, d_b))
    ids = tuple(range(n))
    init = np.random.default_rng(1)
    key_rng = random.Random(2718)
    keys_a, keys_b = keygen(512, key_rng), keygen(512, key_rng)

    state_a = DualPartyState("A", PartyDataset(ids, x_a), fit_kde(x_a),
                             init_mlp([d_a, 6, d_b], ["relu", "identity"],
                                      init),
                             keys_a, keys_b.public, lam=0.01, lr=0.2)
    state_b = DualPartyState("B", PartyDataset(ids, x_b), fit_kde(x_b),
                             init_mlp([d_b, 6, d_a], ["relu", "identity"],
                                      init),
                             keys_b, keys_a.public, lam=0.01, lr=0.2)

    hub = Hub()
    run_dual_round(state_a, state_b, ids, hub, random.Random(3))
    print("== the eight messages of one round ==")
    for msg in hub.transcript:
        print(f"  #{msg.msg_id}  {msg.sender} -> {msg.receiver}  "
              f"{msg.kind.name:<13} {len(msg.payload):>6} bytes")

    report = transcript_assert(hub.transcript, {
        "B's rows never reach A": forbid_plaintext_rows("A", x_b),
        "A's rows never reach B": forbid_plaintext_rows("B", x_a),
        "B's log-densities stay encrypted": forbid_plaintext_values(
            "A", log_density_batch(state_b.kde, x_b)),
    })
    print("\n== boundary predicates over the transcript ==")
    for name, failure in report.results.items():
        print(f"  {name}: {'ok' if failure is None else failure}")
    assert report.ok

    print("\n== duality loss over further rounds ==")

    def loss_now() -> float:
        xhat_b = dual_infer(state_a.model, x_a)
        xhat_a = dual_infer(state_b.model, x_b)
        return dual_loss(log_density_batch(state_a.kde, x_a),
                         log_density_batch(state_a.kde, xhat_a),
                         log_density_batch(state_b.kde, xhat_b),
                         log_density_batch(state_b.kde, x_b))

    for round_no in range(2, 31):
        run_dual_round(state_a, state_b, ids, hub, random.Random(round_no))
        if round_no % 5 == 0:
            print(f"  after round {round_no:>2}: duality loss "
                  f"{loss_now():.4f}")
    hub.close()


if __name__ == "__main__":
    main()
