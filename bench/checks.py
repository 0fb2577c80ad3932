"""Output checks run on every sample after its timed region.

``boundary_failures`` evaluates the seven boundary predicates of the
full-run transcript criterion (acceptance criterion 10).  The package's
own predicates compare every payload row against every forbidden row,
which takes minutes at 10k rows, so the same conditions are evaluated
here over all payloads at once: rows are matched by their float64 bytes
(after mapping -0.0 to 0.0, and never matching a row holding NaN, as
``==`` would), values with the same ``np.isin``.  The smoke test checks
that both give the same verdicts.  Even so the forbidden log-densities
of a 10k-row store take seconds, so ``run.py`` asks for this check on
the first sample of each invocation only.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from mpdl.density import log_density_batch
from mpdl.transport import MATRIX_KINDS, MessageKind, unpack_matrix

ROUND_MESSAGES = 8


def round_framing_failures(transcript, expected_rounds: int) -> list[str]:
    """Every dual-round batch tag carries exactly eight messages."""
    per_tag = Counter(m.batch_tag for m in transcript.messages()
                      if m.batch_tag is not None)
    bad = [(tag, n) for tag, n in sorted(per_tag.items())
           if n != ROUND_MESSAGES]
    out = []
    if bad:
        out.append(f"{len(bad)} dual rounds do not carry {ROUND_MESSAGES} "
                   f"messages; batch tag {bad[0][0]} carries {bad[0][1]}")
    if len(per_tag) != expected_rounds:
        out.append(f"{len(per_tag)} tagged dual rounds, expected "
                   f"{expected_rounds}")
    return out


def accuracy_failures(accuracy: float, floor: float) -> list[str]:
    if not math.isfinite(accuracy):
        return [f"accuracy_dual {accuracy!r} is not finite"]
    if not accuracy > floor:
        return [f"accuracy_dual {accuracy:.4f} is not above the floor "
                f"{floor}"]
    return []


def _row_keys(rows: np.ndarray) -> set[bytes]:
    rows = np.ascontiguousarray(rows + 0.0, dtype="<f8")
    rows = rows[~np.isnan(rows).any(axis=1)]
    width = rows.shape[1] * 8
    raw = rows.tobytes()
    return {raw[i:i + width] for i in range(0, len(raw), width)}


def _log_density_chunked(kde, x, rows: int = 128) -> np.ndarray:
    # one call over a whole store would build a store x support x d
    # tensor (gigabytes at 10k rows)
    return np.concatenate([log_density_batch(kde, x[i:i + rows])
                           for i in range(0, len(x), rows)])


def boundary_failures(transcript, world, result) -> list[str]:
    """Criterion-10 predicates over one run's transcript; [] when all hold."""
    received: dict[str, dict[int, list[np.ndarray]]] = {}
    kinds_to_c = set()
    for msg in transcript.messages():
        if msg.receiver == "C":
            kinds_to_c.add(msg.kind)
        if msg.kind in MATRIX_KINDS:
            mat = unpack_matrix(msg.payload)
            received.setdefault(msg.receiver, {}).setdefault(
                mat.shape[1], []).append(mat)
    received = {r: {w: np.vstack(ms) for w, ms in by_w.items()}
                for r, by_w in received.items()}

    def leaks_rows(receivers, forbidden) -> bool:
        forbidden = np.atleast_2d(np.asarray(forbidden, dtype=np.float64))
        keys = None
        for r in receivers:
            mat = received.get(r, {}).get(forbidden.shape[1])
            if mat is None:
                continue
            keys = keys if keys is not None else _row_keys(forbidden)
            if not keys.isdisjoint(_row_keys(mat)):
                return True
        return False

    def leaks_values(receiver, forbidden) -> bool:
        vals = np.unique(np.asarray(forbidden, dtype=np.float64).ravel())
        return any(np.isin(mat.ravel(), vals).any()
                   for mat in received.get(receiver, {}).values())

    store_a, store_b = result.state_a.store, result.state_b.store
    logp_a = _log_density_chunked(result.state_a.kde, store_a.features)
    logp_b = _log_density_chunked(result.state_b.kde, store_b.features)
    everyone = tuple(received)
    checks = {
        "raw A rows never cross":
            leaks_rows(everyone, world.party_a.features),
        "raw B rows never cross":
            leaks_rows(everyone, world.party_b.features),
        "A never sees B's perturbed rows":
            leaks_rows(("A",), store_b.features),
        "B never sees A's perturbed rows":
            leaks_rows(("B",), store_a.features),
        "A never sees B's log-densities": leaks_values("A", logp_b),
        "B never sees A's log-densities": leaks_values("B", logp_a),
        "C only sees partial sums and control":
            bool(kinds_to_c - {MessageKind.PartialSum, MessageKind.Control}),
    }
    return [f"boundary predicate failed: {name}"
            for name, failed in checks.items() if failed]


def max_weight_diff(pair, other) -> float:
    """Largest entrywise difference between two generator pairs (inf if
    either holds a non-finite weight)."""
    diffs = [np.abs(x - y).max()
             for mine, theirs in ((pair.a_to_b, other.a_to_b),
                                  (pair.b_to_a, other.b_to_a))
             for la, lb in zip(mine.layers, theirs.layers)
             for x, y in ((la.weights, lb.weights), (la.bias, lb.bias))]
    worst = float(np.max(diffs))
    return worst if math.isfinite(worst) else math.inf
