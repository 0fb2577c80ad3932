"""Dataset loading, vertical/horizontal partitioning and entity alignment.

The simulator starts from one tabular dataset and manufactures the
multi-party world: features are split column-wise between parties A
and B, rows are split into a co-occurrence block (both parties), two
single-party blocks and a held-back test block, and the co-occurring
ids are (re)discovered at run time through a blinded intersection
protocol so that neither party reads the other's id list.
"""

from __future__ import annotations

import csv
import hashlib
import hmac
import math
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .nn import as_batch
from .transport import Hub, MessageKind, ProtocolError, pack_tokens, \
    unpack_tokens


class AlignmentCollisionError(ProtocolError):
    """Blinding produced colliding tokens; the round must be reseeded."""


@dataclass(frozen=True)
class PartyDataset:
    """Ordered ids, a normalized feature matrix, and optional labels."""

    ids: tuple
    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        feats = as_batch(self.features)
        ids = tuple(self.ids)
        if len(ids) != feats.shape[0]:
            raise ValueError("id count does not match feature rows")
        if len(set(ids)) != len(ids):
            raise ValueError("ids must be unique")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (feats.shape[0],):
                raise ValueError("labels must be one per row")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @cached_property
    def index(self) -> dict:
        """id -> row, built on first use (the ids never change)."""
        return {i: row for row, i in enumerate(self.ids)}

    def rows(self, ids) -> np.ndarray:
        idx = self.index
        return self.features[[idx[i] for i in ids]]

    def labels_for(self, ids) -> np.ndarray:
        if self.labels is None:
            raise ValueError("dataset holds no labels")
        idx = self.index
        return self.labels[[idx[i] for i in ids]]


def min_max_normalize(columns: np.ndarray) -> np.ndarray:
    """Column-wise (x - min) / (max - min); constant columns map to 0."""
    x = as_batch(columns).copy()
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    constant = span == 0.0
    if constant.any():
        warnings.warn(f"{int(constant.sum())} constant feature column(s) "
                      "normalized to 0", RuntimeWarning)
        span = np.where(constant, 1.0, span)
    out = (x - lo) / span
    out[:, constant] = 0.0
    return out


def load_normalize(path, id_column: str | None = None,
                   label_column: str | None = None) -> PartyDataset:
    """Load a headered CSV, one-hot encode categoricals, min-max normalize.

    A column is categorical when any entry fails float parsing; each
    such column expands into one 0/1 column per sorted distinct value.
    Labels are mapped to dense integer codes by sorted value.  Without
    an id column the row index is used.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    columns = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    if id_column is not None and id_column not in columns:
        raise ValueError(f"{path}: no id column {id_column!r}")
    if label_column is not None and label_column not in columns:
        raise ValueError(f"{path}: no label column {label_column!r}")

    ids = tuple(columns[id_column]) if id_column else tuple(range(len(rows)))
    labels = None
    if label_column:
        raw = columns[label_column]
        codebook = {v: k for k, v in enumerate(sorted(set(raw)))}
        labels = np.array([codebook[v] for v in raw], dtype=np.int64)

    blocks = []
    for name in header:
        if name in (id_column, label_column):
            continue
        raw = columns[name]
        try:
            blocks.append(np.array([float(v) for v in raw])[:, None])
        except ValueError:
            values = sorted(set(raw))
            onehot = np.zeros((len(raw), len(values)))
            lookup = {v: j for j, v in enumerate(values)}
            for i, v in enumerate(raw):
                onehot[i, lookup[v]] = 1.0
            blocks.append(onehot)
    if not blocks:
        raise ValueError(f"{path}: no feature columns")
    feats = min_max_normalize(np.hstack(blocks))
    return PartyDataset(ids, feats, labels)


def load_idx(path) -> np.ndarray:
    """Parse a big-endian IDX file into a (count, features) float matrix."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[0] or raw[1]:
        raise ValueError(f"{path}: bad IDX magic")
    dtype_code, ndims = raw[2], raw[3]
    dtypes = {0x08: (">u1", 1), 0x09: (">i1", 1), 0x0B: (">i2", 2),
              0x0C: (">i4", 4), 0x0D: (">f4", 4), 0x0E: (">f8", 8)}
    if dtype_code not in dtypes:
        raise ValueError(f"{path}: unknown IDX dtype 0x{dtype_code:02x}")
    dtype, width = dtypes[dtype_code]
    dims = struct.unpack_from(f">{ndims}I", raw, 4)
    offset = 4 + 4 * ndims
    count = int(np.prod(dims))
    if len(raw) - offset != count * width:
        raise ValueError(f"{path}: IDX size mismatch")
    data = np.frombuffer(raw, dtype=dtype, offset=offset).astype(np.float64)
    return data.reshape(dims[0], -1) if ndims > 1 else data.reshape(-1, 1)


# -- vertical feature partition ----------------------------------------------

@dataclass(frozen=True)
class FeatureSplit:
    """Column assignment between the parties, invertible by index lists."""

    party_a: PartyDataset
    party_b: PartyDataset
    cols_a: tuple[int, ...]
    cols_b: tuple[int, ...]

    def reassemble(self) -> np.ndarray:
        full = np.empty((self.party_a.features.shape[0],
                         len(self.cols_a) + len(self.cols_b)))
        full[:, list(self.cols_a)] = self.party_a.features
        full[:, list(self.cols_b)] = self.party_b.features
        return full


def partition_features(ds: PartyDataset, assignment=None,
                       seed: int | None = None) -> FeatureSplit:
    """Split feature columns between A and B; labels stay with B.

    ``assignment`` is a per-column sequence of "A"/"B" tags; when
    omitted, a seeded random half/half split is drawn.
    """
    n_cols = ds.features.shape[1]
    if assignment is None:
        rng = np.random.default_rng(seed)
        order = rng.permutation(n_cols)
        to_b = set(order[:n_cols // 2])
        assignment = ["B" if i in to_b else "A" for i in range(n_cols)]
    assignment = list(assignment)
    if len(assignment) != n_cols or set(assignment) - {"A", "B"}:
        raise ValueError("assignment must tag every column A or B")
    cols_a = tuple(i for i, t in enumerate(assignment) if t == "A")
    cols_b = tuple(i for i, t in enumerate(assignment) if t == "B")
    if not cols_a or not cols_b:
        raise ValueError("both parties need at least one feature column")
    return FeatureSplit(
        PartyDataset(ds.ids, ds.features[:, cols_a]),
        PartyDataset(ds.ids, ds.features[:, cols_b], ds.labels),
        cols_a, cols_b)


# -- horizontal sample partition ---------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Co-occurrence fraction gamma, test fraction, and the shuffle seed."""

    gamma: float
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie strictly between 0 and 1")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class GammaSplit:
    co_occurrence: tuple
    b_only: tuple
    a_only: tuple
    test: tuple


def split_by_gamma(ids, spec: SplitSpec) -> GammaSplit:
    """Carve test rows first, then split the remaining N ids into
    |D_C| = floor(N * gamma), |D_B| = floor(N * (0.5 - gamma/2)) and the
    remainder for D_A."""
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise ValueError("ids must be unique")
    order = np.random.default_rng(spec.seed).permutation(len(ids))
    shuffled = [ids[i] for i in order]
    # the 1e-9 nudge keeps decimal fractions like 0.5 - 0.8/2 from
    # flooring one short of the intended block size
    n_test = int(math.floor(len(ids) * spec.test_fraction + 1e-9))
    test, rest = shuffled[:n_test], shuffled[n_test:]
    n = len(rest)
    n_c = int(math.floor(n * spec.gamma + 1e-9))
    n_b = int(math.floor(n * (0.5 - spec.gamma / 2.0) + 1e-9))
    if n_c == 0 or n_b == 0 or n - n_c - n_b <= 0:
        raise ValueError(f"gamma {spec.gamma} leaves an empty block for "
                         f"{n} ids")
    return GammaSplit(tuple(rest[:n_c]), tuple(rest[n_c:n_c + n_b]),
                      tuple(rest[n_c + n_b:]), tuple(test))


def kfold_split(ids, k: int, seed: int = 0) -> list[tuple]:
    """Seeded k folds with sizes differing by at most one, larger first."""
    ids = list(ids)
    if not 2 <= k <= len(ids):
        raise ValueError(f"cannot make {k} folds from {len(ids)} ids")
    order = np.random.default_rng(seed).permutation(len(ids))
    shuffled = [ids[i] for i in order]
    base, extra = divmod(len(ids), k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(tuple(shuffled[start:start + size]))
        start += size
    return folds


# -- blinded entity alignment --------------------------------------------------

def id_token(key: bytes, identifier, nbytes: int) -> bytes:
    """Keyed hash of an id's repr, truncated to ``nbytes``."""
    return hmac.new(key, repr(identifier).encode("utf-8"),
                    hashlib.sha256).digest()[:nbytes]


def _xor(token: bytes, mask: bytes) -> bytes:
    # Tokens and masks are both ``digest_bytes`` long.
    return (int.from_bytes(token, "big")
            ^ int.from_bytes(mask, "big")).to_bytes(len(token), "big")


def blinded_intersection(ids_a, ids_b, rng: np.random.Generator, hub: Hub,
                         digest_bytes: int = 32,
                         max_attempts: int = 3) -> tuple:
    """Find the co-occurring ids without exchanging raw id lists.

    Four messages on the caller's hub: B sends a keyed-hash session key;
    A returns its hashed ids under a private mask; B double-masks A's
    tokens with a fresh mask, masks its own hashed ids the same way and
    returns both sets; A strips its own mask, intersects, and sends the
    matching masked tokens back for B to resolve.  Token collisions
    abort the round and a fresh salt is drawn.

    Returns the common ids sorted by repr.  Both parties learn exactly
    the intersection; the transcript never carries a raw id.
    """
    if not 1 <= digest_bytes <= hashlib.sha256().digest_size:
        raise ValueError("digest_bytes must be between 1 and 32")
    ids_a, ids_b = list(ids_a), list(ids_b)
    if len(set(ids_a)) != len(ids_a) or len(set(ids_b)) != len(ids_b):
        raise ValueError("party id lists must be unique")
    for attempt in range(max_attempts):
        try:
            return _blinded_round(ids_a, ids_b, rng, hub, digest_bytes)
        except AlignmentCollisionError:
            if attempt == max_attempts - 1:
                raise


def _blinded_round(ids_a, ids_b, rng, hub, digest_bytes: int) -> tuple:
    def draw(nbytes: int) -> bytes:
        return rng.bytes(nbytes)

    # message 1: B -> A, the session key for the keyed hash
    session_key = unpack_tokens(hub.exchange(
        "B", "A", MessageKind.BlindedIds, pack_tokens([draw(32)])).payload)[0]

    # message 2: A -> B, A's keyed-hashed ids under A's private mask
    mask_a = draw(digest_bytes)
    order_a = list(ids_a)
    hashed_a = [id_token(session_key, i, digest_bytes) for i in order_a]
    if len(set(hashed_a)) != len(hashed_a):
        raise AlignmentCollisionError("keyed hash collided inside A's set")
    blinded_a = unpack_tokens(hub.exchange(
        "A", "B", MessageKind.BlindedIds,
        pack_tokens(_xor(t, mask_a) for t in hashed_a)).payload)

    # message 3: B -> A, A's tokens double-masked plus B's masked tokens
    mask_b = draw(digest_bytes)
    hashed_b = {id_token(session_key, i, digest_bytes): i for i in ids_b}
    if len(hashed_b) != len(ids_b):
        raise AlignmentCollisionError("keyed hash collided inside B's set")
    double_masked_a = [_xor(t, mask_b) for t in blinded_a]
    masked_b = sorted(_xor(t, mask_b) for t in hashed_b)
    received = unpack_tokens(hub.exchange(
        "B", "A", MessageKind.BlindedIds,
        pack_tokens([*double_masked_a, *masked_b])).payload)
    returned_a = received[:len(order_a)]
    returned_b = set(received[len(order_a):])

    # message 4: A -> B, the masked tokens common to both sets
    unmasked = [_xor(t, mask_a) for t in returned_a]
    if len(set(unmasked)) != len(unmasked) or len(returned_b) != len(ids_b):
        raise AlignmentCollisionError("masking collapsed distinct tokens")
    common_tokens = [t for t in unmasked if t in returned_b]
    common_at_a = sorted(
        (i for i, t in zip(order_a, unmasked) if t in returned_b), key=repr)
    final_tokens = unpack_tokens(hub.exchange(
        "A", "B", MessageKind.BlindedIds, pack_tokens(common_tokens)).payload)

    # B strips its mask and resolves tokens back to its own ids
    resolved = []
    for t in final_tokens:
        key = _xor(t, mask_b)
        if key not in hashed_b:
            raise AlignmentCollisionError("common token failed to resolve")
        resolved.append(hashed_b[key])
    common_at_b = sorted(resolved, key=repr)
    if common_at_a != common_at_b:
        raise AlignmentCollisionError("parties disagree on the intersection")
    return tuple(common_at_a)
