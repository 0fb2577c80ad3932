"""The benchmark's workloads: one seeded ``mpdl_train`` configuration each.

All three use gamma 0.3 and epsilon 8.  At epsilon <= 1 the per-entry
Laplace scale 2/epsilon swamps features in [0, 1] and accuracy sits at
chance, so ``accuracy_dual`` could not catch a quality regression; at
epsilon 8 it sits well above chance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GAMMA = 0.3
EPSILON = 8.0


@dataclass(frozen=True)
class Workload:
    """One workload: task size, run parameters, hub backend and checks.

    A correct run's ``accuracy_dual`` lies above ``accuracy_floor``;
    ``shadow_tol`` (encrypted workloads only) bounds the largest
    generator-weight difference between the encrypted run and its
    plaintext shadow under the same seed.
    """

    name: str
    why: str
    n: int
    d_a: int
    d_b: int
    config: dict = field(default_factory=dict)
    backend: str = "local"
    accuracy_floor: float = 0.0
    shadow_tol: float | None = None

    @property
    def encrypted(self) -> bool:
        return self.config.get("use_encryption", True)


WORKLOADS = {w.name: w for w in (
    Workload(
        "dual-enc",
        "Encrypted run, 512-bit keys, 300 rows of 5+5 features, 3 dual "
        "epochs, local hub: the ROADMAP baseline, where Paillier "
        "encrypt, multiply and decrypt do most of the work.",
        300, 5, 5,
        dict(key_bits=512, dual_epochs=3, max_iters=1),
        accuracy_floor=0.35, shadow_tol=1e-9),
    Workload(
        "plain-wide",
        "Plaintext shadow, 10k rows of 10+10 features, local hub: a large "
        "KDE support makes density the bulk of the work; Paillier is "
        "bypassed apart from keygen.",
        10_000, 10, 10,
        dict(use_encryption=False, dual_epochs=2, central_epochs=3,
             max_iters=1),
        accuracy_floor=0.6),
    Workload(
        "chatty-tcp",
        "Plaintext, 1.5k rows of 3+3 features, batch 8, TCP hub: ~27k tiny "
        "frames, so per-call overhead in central passes and transport "
        "dominates.",
        1_500, 3, 3,
        dict(use_encryption=False, batch_size=8, dual_epochs=5,
             central_epochs=20, max_iters=2),
        backend="tcp", accuracy_floor=0.55),
)}
