"""The privacy-preserving dual-learning round between parties A and B.

A holds generator f: X_A -> X_B, B holds generator g: X_B -> X_A, and
both regress onto the partner's perturbed features over the
co-occurring samples.  The shared training signal couples an alignment
loss with the squared duality residual

    r_i = log P(x_i^A) - log P(xhat_i^A) + log P(xhat_i^B) - log P(x_i^B)

whose per-party pieces are exchanged so that each generator's
output-layer gradient can be assembled without either party revealing
its log-densities in plaintext: the partner's residual arrives as an
additively homomorphic ciphertext, is scaled by the local plaintext
log-density gradient, and travels back to the residual's owner for
decryption.  One minibatch round is exactly eight directed messages.

log P(x) depends only on a party's perturbed store and the KDE fitted on
it, both fixed for a run, so each party evaluates it once per own row
and reads it back in later rounds (``DualPartyState.own_log_density``).

Once both inferred batches have arrived, the two parties' density
terms are independent: each party's gradient and log P at the xhat it
received, and log P of its own rows not seen before.  A round computes
both before the first gradient term is sent.  Under ``round_map`` with
large enough kernel matrices (``SHARE_MIN_KERNELS``), A's are computed
in the calling process and B's, each call whole, in a forked worker
that found B's KDE and store in the memory it inherited; the own-row
tables stay in the calling process.  The values, and so the frames, do
not depend on where they were computed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import paillier
from .data import PartyDataset
from .density import KdeModel, grad_log_density_batch, log_density_batch
from .nn import Mlp, as_batch, backprop_from_output_grad, \
    clip_global_norm, loss_eval, mlp_forward, sgd_step
from .paillier import CipherVector, KeyPair, PublicKey, SecretKey
from .transport import Hub, MessageKind, ProtocolError, expect_shape, \
    pack_ciphers, pack_matrix, receive_matrix, unpack_ciphers, unpack_matrix

# Log-density differences are unbounded below once a generator output
# leaves the support; an uncapped residual feeds back into the update and
# diverges (and overflows the cipher encoding band).  Saturating it at
# RESIDUAL_CLIP bounds the duality term's influence while preserving its
# sign; within the cap the arithmetic is untouched.  Each generator's
# update is clipped to global norm GRAD_CLIP.
RESIDUAL_CLIP = 100.0
GRAD_CLIP = 1.0
# largest |mantissa| of a clipped residual at the cipher encoding scale
_RESID_MANTISSA = math.ceil(RESIDUAL_CLIP * paillier.DEFAULT_SCALE)
# a sealed residual is encoded at the cipher scale; a cross term, its
# product with an encoded multiplier, at the square of it
_SEALED_SCALE = paillier.DEFAULT_SCALE
_CROSS_SCALE = paillier.DEFAULT_SCALE ** 2
# A round shares its two density calls between this process and a
# worker only when the smaller call's kernel matrix (batch rows x
# support rows) holds at least SHARE_MIN_KERNELS entries; below that the
# job's pickling and pipe round trip cost more than the overlap saves.
# Measured on a 2-vCPU Xeon KVM (CPython 3.11, one BLAS thread), per
# round, over supports of 176-8,000 rows, widths 3-20 and batches 8-32:
# shared took 1.2-1.9x the serial time at 4,752-7,024 entries, about
# break-even (0.87-1.21x) at 16,000-32,000, and 0.55-0.95x from 64,000
# (0.56-0.64x at plain-wide's 32 x 5,850 = 187,200).
SHARE_MIN_KERNELS = 2 ** 16
# Each party's (kde, store) by name while a round_map shares density.
# A worker can reach what it inherited only through a module name, so
# this lives here, filled and emptied by round_map alone; a round checks
# its states against it by identity and computes serially on a mismatch.
_FORKED: dict = {}


@dataclass(frozen=True)
class DualModelPair:
    """The two generators; a_to_b lives at A, b_to_a lives at B."""

    a_to_b: Mlp
    b_to_a: Mlp

    def __post_init__(self):
        if self.a_to_b.in_width != self.b_to_a.out_width or \
                self.a_to_b.out_width != self.b_to_a.in_width:
            raise ValueError("generator widths are not mutually inverse")


@dataclass
class DualPartyState:
    """Everything one party brings to a round.

    ``store`` holds the party's perturbed features (the only view of
    its data that ever feeds cross-party computation), ``kde`` is
    fitted on that same perturbed partition.  ``lam`` is the paper's
    weight on the mean squared duality residual, so a round descends
    mse + lam * mean(r^2); ``lr`` is the generator's step size.  Runs
    take both from ``MpdlConfig``.
    """

    name: str
    store: PartyDataset
    kde: KdeModel
    model: Mlp
    keys: KeyPair
    partner_public: PublicKey
    lam: float
    lr: float
    # (kde, store, log P per store row, filled mask): private to this
    # state, not copied by dataclasses.replace
    _logp: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def _pending(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """The store rows of ``ids``, and those of them, sorted and
        unique, whose log P the table does not hold yet."""
        table = self._logp
        if table is None or table[0] is not self.kde or \
                table[1] is not self.store:
            n = len(self.store.ids)
            table = self._logp = (self.kde, self.store, np.empty(n),
                                  np.zeros(n, dtype=bool))
        index = self.store.index
        rows = np.fromiter((index[i] for i in ids), np.intp)
        return rows, np.unique(rows[~table[3][rows]])

    def _fill(self, todo: np.ndarray, values: np.ndarray) -> None:
        """Enter log P of the store rows ``todo`` from ``_pending``."""
        _, _, table, filled = self._logp
        table[todo] = values
        filled[todo] = True

    def own_log_density(self, ids) -> np.ndarray:
        """log P(x) of the own rows with ``ids`` under ``kde``.

        Each row is evaluated once, in one batch of the rows not seen
        before, and read from a table after that; a row's value does not
        depend on its batch, so the result is the same bits as
        ``log_density_batch(kde, store.rows(ids))``.  The table starts
        afresh when ``kde`` or ``store`` is replaced by another object.
        """
        rows, todo = self._pending(ids)
        if todo.size:
            self._fill(todo, log_density_batch(self.kde,
                                               self.store.features[todo]))
        return self._logp[2][rows]


@dataclass
class DualRoundTranscript:
    """The ids of one round's minibatch; the messages are in the hub's
    transcript under the round's batch tag."""

    batch_ids: tuple


class DualRoundResult(NamedTuple):
    pair: DualModelPair
    record: DualRoundTranscript


def dual_infer(model: Mlp, x) -> np.ndarray:
    """Run a generator on a batch of own-space features, checked here."""
    return mlp_forward(model, as_batch(x, model.in_width))[0]


def dual_loss(logp_xa, logp_xhat_a, logp_xhat_b, logp_xb) -> float:
    """Mean squared duality residual over a batch of log-densities."""
    arrays = [np.atleast_1d(np.asarray(v, dtype=np.float64))
              for v in (logp_xa, logp_xhat_a, logp_xhat_b, logp_xb)]
    if len({a.shape for a in arrays}) != 1:
        raise ValueError("log-density vectors must share one shape")
    r = arrays[0] - arrays[1] + arrays[2] - arrays[3]
    return float((r * r).mean())


class _PaillierCodec:
    """Residuals travel encrypted under their owner's key; the partner
    scales them homomorphically and only the owner can open the product.

    ``seal`` and ``cross`` return payloads, ``cross`` takes the sealed
    residual payload as it arrived, and ``open`` decodes the cross term.
    A cross-term plaintext is a clipped residual times a multiplier, so
    ``cross`` refuses a multiplier that could take it to
    ``paillier.plaintext_bound`` and ``open`` decrypts it mod p^2 only.
    Every exponentiation goes through ``pmap``.
    """

    kind = MessageKind.CipherBlock

    def __init__(self, rng, pmap):
        self.rng = rng
        self.pmap = pmap

    def _receive(self, pk: PublicKey, payload: bytes, sender: str,
                 scale: int, expect: tuple) -> CipherVector:
        """The block as a ``CipherVector`` under ``pk`` at ``scale``; its
        shape must be ``expect``."""
        key_id, got_scale, rows, cols, cts = unpack_ciphers(payload)
        if key_id != pk.key_id:
            raise ProtocolError(f"{self.kind.name} from {sender} is under "
                                f"key {key_id}, expected {pk.key_id}")
        if got_scale != scale:
            raise ProtocolError(f"{self.kind.name} from {sender} has scale "
                                f"2^{got_scale.bit_length() - 1}, expected "
                                f"2^{scale.bit_length() - 1}")
        n2 = pk.n_squared
        if not all(0 < c < n2 for c in cts):
            raise ProtocolError(f"{self.kind.name} from {sender} under key "
                                f"{key_id} holds a ciphertext outside "
                                f"(0, n^2)")
        expect_shape(self.kind, sender, (rows, cols), expect)
        return CipherVector(cts, scale, key_id)

    def seal(self, keys: KeyPair, resid: np.ndarray) -> bytes:
        """Encrypt under the sealer's own key, by CRT via its secret half."""
        cv = paillier.encrypt_vector(keys.secret, resid, self.rng, self.pmap)
        return pack_ciphers(cv.key_id, cv.scale, len(resid), 1,
                            cv.ciphertexts)

    def cross(self, pk: PublicKey, sealed: bytes, mult: np.ndarray,
              sender: str) -> bytes:
        """[[-resid_i]] times row i of ``mult``, flattened row-major;
        ``sealed`` came from ``sender`` under ``pk``."""
        resid = self._receive(pk, sealed, sender, _SEALED_SCALE,
                              (len(mult), 1))
        peak = float(np.abs(mult).max())
        # a non-finite multiplier is left to the encoder's ValueError
        if math.isfinite(peak) and round(peak * paillier.DEFAULT_SCALE) * \
                _RESID_MANTISSA >= paillier.plaintext_bound(pk.n):
            raise OverflowError(f"multiplier {peak!r} could take a cross "
                                f"term past the decryption bound")
        cv = paillier.dual_scalar_product(
            pk, paillier.negate_cipher(pk, resid, self.pmap), mult,
            self.pmap)
        return pack_ciphers(pk.key_id, cv.scale, *mult.shape, cv.ciphertexts)

    def open(self, sk: SecretKey, payload: bytes, sender: str,
             expect: tuple) -> np.ndarray:
        """Decrypt a cross term from ``sender``, which must be under
        ``sk``'s key at the cross-term scale, of shape ``expect``, with
        every plaintext inside the bound."""
        pk = sk.public
        cv = self._receive(pk, payload, sender, _CROSS_SCALE, expect)
        bound = paillier.plaintext_bound(pk.n)
        try:
            values = paillier.decrypt_vector(sk, cv, bound, self.pmap)
        except OverflowError:
            raise ProtocolError(f"{self.kind.name} from {sender} holds a "
                                f"plaintext at or above 2^"
                                f"{bound.bit_length() - 1}") from None
        return values.reshape(expect)


class _ShadowCodec:
    """Test shadow: the same values travel as plaintext float matrices."""

    kind = MessageKind.GradTerm

    def seal(self, keys: KeyPair, resid: np.ndarray) -> bytes:
        return pack_matrix(resid[:, None])

    def cross(self, pk: PublicKey, sealed: bytes, mult: np.ndarray,
              sender: str) -> bytes:
        resid = receive_matrix(self.kind, sender, sealed, (len(mult), 1))
        return pack_matrix(mult * -resid)

    def open(self, sk: SecretKey, payload: bytes, sender: str,
             expect: tuple) -> np.ndarray:
        return receive_matrix(self.kind, sender, payload, expect)


class _RoundHalf:
    """One party's bookkeeping while a round is in flight."""

    def __init__(self, state: DualPartyState, batch_ids: tuple):
        self.state = state
        self.batch_ids = batch_ids
        self.batch = batch = state.store.rows(batch_ids)
        self.out, self.cache = mlp_forward(state.model, batch)
        # filled in as the round's messages arrive; partner_resid is the
        # payload the partner sealed its residual into
        self.received_xhat = self.cross_mult = self.partner_resid = None
        self.plain_in = self.cross_in = None

    def density_job(self) -> tuple:
        """The party's name, the xhat it received and its batch rows
        whose log P its table does not hold yet (``_density_terms``)."""
        return (self.state.name, self.received_xhat,
                self.state._pending(self.batch_ids)[1])

    def local_terms(self, grad_logp: np.ndarray, logp_xhat: np.ndarray):
        """Plaintext gradient part and own residual, both own-space,
        from the density terms at the received xhat.

        The plaintext part is the alignment gradient plus the
        own-residual duality term; it is safe to ship because it is an
        aggregate over the party's density model, not raw features.
        """
        s = self.state
        xhat = self.received_xhat
        _, align_grad = loss_eval("mse", xhat, self.batch)
        logp_x = s.own_log_density(self.batch_ids)
        own_resid = np.clip(logp_xhat - logp_x, -RESIDUAL_CLIP, RESIDUAL_CLIP)
        # d(lam * mean(r^2)) / d xhat_i = 2 lam r_i grad logP(xhat_i) / n
        plain_part = align_grad + 2.0 * s.lam * grad_logp * \
            own_resid[:, None] / xhat.shape[0]
        cross_mult = 2.0 * s.lam * grad_logp / xhat.shape[0]
        return plain_part, own_resid, cross_mult


def _density_terms(kde: KdeModel, store: PartyDataset, xhat: np.ndarray,
                   todo: np.ndarray) -> tuple:
    """grad log P and log P at the rows of ``xhat``, from one kernel
    matrix, and log P of the store rows ``todo`` (None if there are
    none), all under ``kde``."""
    logp_xhat = np.empty(xhat.shape[0])
    grad = grad_log_density_batch(kde, xhat, out=logp_xhat)
    logp_todo = log_density_batch(kde, store.features[todo]) \
        if todo.size else None
    return grad, logp_xhat, logp_todo


def _forked_density_terms(job: tuple) -> tuple:
    """``_density_terms`` for a ``density_job`` of the party it names,
    whose KDE and store are in this process's ``_FORKED``."""
    name, xhat, todo = job
    return _density_terms(*_FORKED[name], xhat, todo)


def _recorded(state: DualPartyState) -> bool:
    """Whether ``round_map`` recorded this state's KDE and store for its
    workers."""
    kde, store = _FORKED.get(state.name, (None, None))
    return kde is state.kde and store is state.store


def _shares_density(state_a: DualPartyState, state_b: DualPartyState,
                    rows: int) -> bool:
    """Whether both density calls of a round of ``rows`` rows have
    kernel matrices of at least ``SHARE_MIN_KERNELS`` entries."""
    return rows * min(len(state_a.kde.support),
                      len(state_b.kde.support)) >= SHARE_MIN_KERNELS


@contextmanager
def round_map(state_a: DualPartyState, state_b: DualPartyState,
              batch_rows: int, use_encryption: bool) -> Iterator[Callable]:
    """The ``pmap`` for rounds of up to ``batch_rows`` rows between two
    states, and the only way a round shares its density work.

    It is ``paillier.parallel_map()``'s map when the rounds have cipher
    work or density calls large enough to share (``_shares_density``),
    and ``serial_map`` otherwise.  To share, both states' KDE and store
    enter ``_FORKED`` before the fork and leave it on exit, so a
    worker finds them by party name in the memory it inherited and a
    job never pickles a support.
    """
    share = _shares_density(state_a, state_b, batch_rows)
    if share:
        _FORKED.update((st.name, (st.kde, st.store))
                       for st in (state_a, state_b))
    try:
        with paillier.parallel_map() if share or use_encryption else \
                nullcontext(paillier.serial_map) as pmap:
            yield pmap
    finally:
        _FORKED.clear()


def run_dual_round(state_a: DualPartyState, state_b: DualPartyState,
                   batch_ids, hub: Hub, rng,
                   use_encryption: bool = True,
                   round_tag: int | None = None,
                   pmap: Callable = paillier.serial_map) -> DualRoundResult:
    """One minibatch of joint dual training over the co-occurring ids.

    Exactly eight directed messages cross the hub, in the fixed order
    (1) A->B inferred batch, (2-4) B->A inferred batch, plaintext
    gradient part and encrypted own residual, (5-7) A->B the symmetric
    three plus the encrypted cross product for B, (8) B->A the
    encrypted cross product for A.  Both parties then decrypt their
    cross term, assemble the full output gradient, backpropagate
    locally and take one SGD step.  Each generator's output gradient
    is the exact gradient of mse(xhat, x) + lam * mean(r^2) in its
    output, the partner's half of the residual r held fixed.

    With ``use_encryption`` off (test shadow mode) the same values move
    as plaintext float payloads; parameter updates then differ from the
    encrypted path only by fixed-point quantization.  ``pmap`` carries
    the encrypted path's exponentiations (``paillier.parallel_map``)
    and, when it comes from ``round_map`` and the round's kernel
    matrices are large enough, B's density terms.
    """
    if {state_a.name, state_b.name} != {"A", "B"}:
        raise ValueError("states must be named A and B")
    if state_a.name != "A":
        state_a, state_b = state_b, state_a
    batch_ids = tuple(batch_ids)
    if not batch_ids:
        raise ValueError("empty minibatch")
    codec = _PaillierCodec(rng, pmap) if use_encryption else _ShadowCodec()
    halves = {st.name: _RoundHalf(st, batch_ids)
              for st in (state_a, state_b)}

    # (1-2) A -> B: xhat_B = f(x_A), then B -> A: xhat_A = g(x_B); each
    # later part a party takes has its output's shape, so none broadcasts
    for src, dst in (("A", "B"), ("B", "A")):
        halves[dst].received_xhat = hub.exchange_matrix(
            src, dst, MessageKind.InferredBatch, halves[src].out,
            (len(batch_ids), halves[dst].state.model.in_width), round_tag,
            codec=(pack_matrix, unpack_matrix))

    # both parties' density terms, before anything more is sent; a
    # round that round_map lets share them computes A's in this process
    # and B's in a worker of pmap.  Rows first seen here enter the
    # states' own-row tables in this process either way.
    ordered = (halves["A"], halves["B"])
    jobs = [half.density_job() for half in ordered]
    if _recorded(state_a) and _recorded(state_b) and \
            _shares_density(state_a, state_b, len(batch_ids)):
        terms = pmap(_forked_density_terms, jobs)
    else:
        terms = [_density_terms(half.state.kde, half.state.store, *job[1:])
                 for half, job in zip(ordered, jobs)]
    local = {}
    for half, job, (grad, logp_xhat, logp_todo) in zip(ordered, jobs, terms):
        if logp_todo is not None:
            half.state._fill(job[2], logp_todo)
        local[half.state.name] = half.local_terms(grad, logp_xhat)

    # (3-6) B -> A, then A -> B: the plaintext part of the gradient for
    # the partner generator's output, and the sealed own residual
    # logP(xhat) - logP(x) under the sender's key
    for src, dst in (("B", "A"), ("A", "B")):
        plain, own_resid, halves[src].cross_mult = local[src]
        halves[dst].plain_in = hub.exchange_matrix(
            src, dst, MessageKind.GradTerm, plain, halves[dst].out.shape,
            round_tag, codec=(pack_matrix, unpack_matrix))
        msg = hub.exchange(src, dst, codec.kind,
                           codec.seal(halves[src].state.keys, own_resid),
                           round_tag)
        halves[dst].partner_resid = msg.payload

    # (7-8) A -> B, then B -> A: the cross product for the receiver's
    # generator under the receiver's key: for each sample, the sender's
    # 2 lam grad logP(xhat) / n times [[logP(x) - logP(xhat)]] of the
    # receiver
    for src, dst in (("A", "B"), ("B", "A")):
        sender = halves[src]
        msg = hub.exchange(src, dst, codec.kind,
                           codec.cross(sender.state.partner_public,
                                       sender.partner_resid,
                                       sender.cross_mult, dst),
                           round_tag)
        halves[dst].cross_in = codec.open(halves[dst].state.keys.secret,
                                          msg.payload, src,
                                          halves[dst].out.shape)

    # local assembly and SGD: no further communication
    for half in halves.values():
        grads = clip_global_norm(backprop_from_output_grad(
            half.state.model, half.cache,
            half.plain_in + half.cross_in).layer_grads, GRAD_CLIP)
        half.state.model = sgd_step(half.state.model, grads, half.state.lr)

    return DualRoundResult(DualModelPair(state_a.model, state_b.model),
                           DualRoundTranscript(batch_ids))
