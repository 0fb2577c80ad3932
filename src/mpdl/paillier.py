"""Additively homomorphic encryption for the cross-party gradient terms.

Paillier's scheme with the ``g = n + 1`` shortcut and the fixed-base
randomness of Damgard, Jurik & Nielsen ("A generalization of
Paillier's public-key system with applications to electronic voting",
IJIS 2010): a plaintext mantissa m encrypts to
``(1 + m*n) * h_s^alpha mod n^2``, where ``h_s = h^n mod n^2`` is fixed
per key, h = -x^2 mod n with x hashed from n alone, and alpha is a
fresh ``ALPHA_BITS``-bit exponent.  Semantic security then rests on the
decisional composite residuosity assumption and on DJN's assumption
that ``h_s^alpha`` for so short an alpha cannot be told from a random
n-th residue.  ``h_s^alpha`` is read from a windowed table of powers of
``h_s``, built on the first encryption under a key and cached per
process, so a run that encrypts nothing builds none.  The private
exponent is ``lambda = phi(n)`` and ``mu = phi(n)^-1 mod n``.  Real
numbers ride on a two-band signed fixed-point encoding: positive
mantissas stay below n/3, negative ones (stored as ``n - v``) stay
above 2n/3, so the bands cannot collide and additive overflow lands in
the detectable middle.

The key holder never exponentiates modulo n^2: it decrypts modulo p^2
and q^2 and recombines by CRT (Paillier 1999, section 7), and when it
encrypts under its own key it reads ``h_s^alpha`` from tables modulo
p^2 and q^2 and recombines it the same way, from the same alpha, so its
ciphertexts equal those of a public-key encryption.
A plaintext known to satisfy |m| < ``plaintext_bound(n)``, below p/2,
needs only the p half: ``decrypt_vector(..., bound=)`` reads it as a
signed residue mod p from one exponentiation mod p^2.  A wrap mod p
cannot be seen, so the bound is enforced where such plaintexts are
made (the dual round's cross terms), and a residue at or above it is
refused.

Supported homomorphic ops: ciphertext + ciphertext, and plaintext *
ciphertext (which multiplies the encoding scales).  ``gmpy2`` is used
for the big-integer exponentiations when available; the pure-Python
fallback computes the same values.

The vector operations take a ``pmap``, a map that returns a list in
input order.  ``serial_map`` is the default.  ``parallel_map()``, which
the dual-training loop opens once around the rounds of an encrypted
run or of a run whose density calls are large enough to share
(``dual.round_map``), forks one worker process per usable CPU beyond
the first (``os.sched_getaffinity``) and yields a map that computes the
first contiguous share of the items in the calling process and the
rest in the workers; on one CPU it forks nothing and yields
``serial_map``.  The workers are not protocol actors: they hold no hub,
send nothing over one, and only evaluate, for the process that forked
them, modular exponentiations and inversions under keys they already
share (building their own copy of a key's table) and one party's
density terms of a dual round under a KDE they already share.
Every random draw stays in the calling process, in the serial order,
so ciphertexts do not depend on the number of workers.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import pickle
import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

try:
    import gmpy2

    def _powmod(base: int, exp: int, mod: int) -> int:
        return int(gmpy2.powmod(base, exp, mod))

    def _invert(a: int, mod: int) -> int:
        return int(gmpy2.invert(a, mod))
except ImportError:  # pragma: no cover - exercised only without gmpy2
    def _powmod(base: int, exp: int, mod: int) -> int:
        return pow(base, exp, mod)

    def _invert(a: int, mod: int) -> int:
        return pow(a, -1, mod)

DEFAULT_SCALE = 2 ** 40
MILLER_RABIN_ROUNDS = 64
# Bits of the encryption exponent alpha: 2 * kappa for a security
# parameter kappa = 128.  Recovering a short exponent by the generic
# square-root methods (baby-step giant-step, Pollard's lambda) takes
# about 2^(ALPHA_BITS / 2) group operations; beyond that, semantic
# security assumes, with Damgard, Jurik & Nielsen (IJIS 2010), that
# h_s^alpha for so short an alpha looks like a random n-th residue.
ALPHA_BITS = 256
# Bits of alpha per row of a fixed-base table: one multiplication per
# nonzero digit.  Measured at 512 bits (2 vCPU Xeon KVM, CPython 3.11,
# no gmpy2), per key, tables mod p^2 and q^2 together: 4 bits take
# 0.21 MB, 4 ms to build and 175-185 us per h_s^alpha; 5 bits 0.34 MB,
# 6 ms, 140-155 us; 8 bits 1.66 MB, 21-24 ms, 90 us.  The ``dual-enc``
# bench run makes about 120 encryptions per key in each process, where
# 4 and 5 bits cost within 3 ms of each other per key; 4 bits keeps
# the smaller tables in the calling process.
_WINDOW_BITS = 4


def miller_rabin(n: int, rng: random.Random) -> bool:
    """Probabilistic primality test with ``MILLER_RABIN_ROUNDS`` random
    witnesses."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = _powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    """Random prime with the top bit set so products keep their size."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if miller_rabin(candidate, rng):
            return candidate


@dataclass(frozen=True)
class PublicKey:
    """The modulus n; the generator is always n + 1."""

    n: int
    key_id: str

    @property
    def n_squared(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class SecretKey:
    """The primes of n and their CRT constants.

    The CRT constants are derived once, at construction; the textbook
    exponent lambda = (p - 1)(q - 1) and mu = lambda^-1 mod n follow
    from p and q.  No secret shows in ``repr``.
    """

    public: PublicKey
    p: int = field(repr=False)
    q: int = field(repr=False)
    p2: int = field(init=False, repr=False, compare=False)
    q2: int = field(init=False, repr=False, compare=False)
    hp: int = field(init=False, repr=False, compare=False)
    hq: int = field(init=False, repr=False, compare=False)
    q_inv_p: int = field(init=False, repr=False, compare=False)
    q2_inv_p2: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, q, g = self.p, self.q, self.public.n + 1
        if p * q != self.public.n:
            raise ValueError("p * q does not match the public modulus")
        p2, q2 = p * p, q * q
        # h_p = L_p(g^(p-1) mod p^2)^-1 mod p, L_p(u) = (u-1)/p
        consts = dict(
            p2=p2, q2=q2,
            hp=_invert((_powmod(g % p2, p - 1, p2) - 1) // p, p),
            hq=_invert((_powmod(g % q2, q - 1, q2) - 1) // q, q),
            q_inv_p=_invert(q, p), q2_inv_p2=_invert(q2, p2))
        for name, value in consts.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    secret: SecretKey


KEY_SIZES = (512, 1024, 2048)


def keygen(bits: int, rng: random.Random) -> KeyPair:
    """Generate a key pair with an n of ``bits`` (within one bit).

    512-bit keys are adequate for tests; experiments use 1024.  The rng
    is the only entropy source, so keygen is reproducible.
    """
    if bits not in KEY_SIZES:
        raise ValueError(f"key size must be one of {KEY_SIZES}")
    half = bits // 2
    while True:
        p = random_prime(half, rng)
        q = random_prime(half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if n.bit_length() not in (bits - 1, bits):
            continue
        if math.gcd(n, phi) != 1:
            continue
        key_id = hashlib.sha256(n.to_bytes((n.bit_length() + 7) // 8,
                                           "big")).hexdigest()[:16]
        public = PublicKey(n=n, key_id=key_id)
        return KeyPair(public=public, secret=SecretKey(public=public, p=p,
                                                       q=q))


@dataclass(frozen=True)
class FixedPoint:
    """Signed fixed-point plaintext: mantissa in [0, n), power-of-two scale."""

    mantissa: int
    scale: int


def encode(value: float, n: int) -> FixedPoint:
    """Encode a real number at ``DEFAULT_SCALE``; magnitudes at or above
    n/(3*DEFAULT_SCALE) overflow."""
    if not math.isfinite(value):
        raise ValueError("cannot encode a non-finite value")
    m = round(value * DEFAULT_SCALE)
    if abs(m) >= n // 3:
        raise OverflowError(f"value {value!r} does not fit the encoding band")
    return FixedPoint(mantissa=m % n, scale=DEFAULT_SCALE)


def decode(fp: FixedPoint, n: int) -> float:
    """Decode a mantissa from the positive or negative band."""
    m = fp.mantissa
    if not 0 <= m < n:
        raise ValueError("mantissa outside [0, n)")
    if m < n // 3:
        return m / fp.scale
    if m > 2 * n // 3:
        return (m - n) / fp.scale
    raise ValueError("mantissa in the overflow band; cannot decode")


def _key_base(n: int) -> int:
    """The base h = -x^2 mod n of the encryption randomness, with x read
    from sha256 over n, counter by counter, 256 bits beyond n's length.

    It depends on n alone, so keygen draws nothing for it and both halves
    of a key derive the same h.  An h sharing a factor with n is refused.
    """
    size = (n.bit_length() + 7) // 8
    seed = n.to_bytes(size, "big")
    stream = b"".join(hashlib.sha256(seed + i.to_bytes(4, "big")).digest()
                      for i in range(size // 32 + 2))
    x = int.from_bytes(stream, "big") % n
    h = -x * x % n
    if math.gcd(h, n) != 1:
        raise ValueError("the derived base h is not coprime to n")
    return h


# a run encrypts under two keys, each with a table mod p^2 and one mod q^2
@functools.lru_cache(maxsize=8)
def _fixed_base_table(n: int, mod: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds h_s^(d * 2^(w*i)) mod ``mod`` for every digit d < 2^w,
    w = ``_WINDOW_BITS``, over the rows an ``ALPHA_BITS`` exponent needs;
    h_s = h^n and ``mod`` is n^2, or p^2 or q^2 of n's key holder.
    """
    base = _powmod(_key_base(n) % mod, n, mod)
    rows = []
    for _ in range(-(-ALPHA_BITS // _WINDOW_BITS)):
        row = [1, base]
        for _ in range(2, 1 << _WINDOW_BITS):
            row.append(row[-1] * base % mod)
        rows.append(tuple(row))
        base = row[-1] * base % mod
    return tuple(rows)


def _fixed_base_pow(n: int, mod: int, alpha: int) -> int:
    """h_s^alpha mod ``mod`` for 0 <= alpha < 2^ALPHA_BITS: one
    multiplication per nonzero digit of alpha, from the cached table."""
    acc, mask = 1, (1 << _WINDOW_BITS) - 1
    for row in _fixed_base_table(n, mod):
        digit = alpha & mask
        if digit:
            acc = acc * row[digit] % mod
        alpha >>= _WINDOW_BITS
    return acc


def _randomizer(key: PublicKey | SecretKey, alpha: int) -> int:
    """h_s^alpha mod n^2; from the tables mod p^2 and q^2, recombined by
    CRT, when ``key`` is the ``SecretKey``."""
    if isinstance(key, SecretKey):
        n, p2, q2 = key.public.n, key.p2, key.q2
        xp = _fixed_base_pow(n, p2, alpha)
        xq = _fixed_base_pow(n, q2, alpha)
        return xq + (xp - xq) * key.q2_inv_p2 % p2 * q2
    return _fixed_base_pow(key.n, key.n_squared, alpha)


def encrypt_mantissa(key: PublicKey | SecretKey, mantissa: int,
                     rng: random.Random) -> int:
    """Raw encryption of an integer mantissa in [0, n):
    ``(1 + m*n) * h_s^alpha mod n^2`` with alpha drawn from ``rng``.

    The key holder may pass its ``SecretKey``: the same alpha is drawn
    and the same ciphertext returned, with ``h_s^alpha`` computed by CRT.
    """
    pk = key.public if isinstance(key, SecretKey) else key
    if not 0 <= mantissa < pk.n:
        raise ValueError("mantissa outside [0, n)")
    n2 = pk.n_squared
    return (1 + mantissa * pk.n) % n2 * \
        _randomizer(key, rng.getrandbits(ALPHA_BITS)) % n2


def decrypt_mantissa(sk: SecretKey, ciphertext: int) -> int:
    """CRT decryption: m = L_p(c^(p-1) mod p^2) * h_p mod p, likewise mod q,
    recombined; equal to L(c^lambda mod n^2) * mu mod n, L(u) = (u-1)/n.
    """
    if not 0 < ciphertext < sk.public.n_squared:
        raise ValueError("ciphertext outside (0, n^2)")
    p, q, p2, q2 = sk.p, sk.q, sk.p2, sk.q2
    mp = (_powmod(ciphertext % p2, p - 1, p2) - 1) // p * sk.hp % p
    mq = (_powmod(ciphertext % q2, q - 1, q2) - 1) // q * sk.hq % q
    return mq + (mp - mq) * sk.q_inv_p % p * q


def plaintext_bound(n: int) -> int:
    """Bound on |m| under which the p half of decryption recovers m.

    2^(floor(bits/2) - 3) for an n of ``bits`` bits.  Keygen sets the
    top bit of each prime, so p >= 2^(floor(bits/2) - 1) and the bound
    is at most p/4.
    """
    return 1 << (n.bit_length() // 2 - 3)


def _decrypt_mod_p(sk: SecretKey, ciphertext: int) -> int:
    """m = L_p(c^(p-1) mod p^2) * h_p mod p, read in (-p/2, p/2).

    Equals the signed plaintext when |m| < p/2; larger plaintexts wrap
    without a trace, so callers bound them first (``plaintext_bound``).
    """
    if not 0 < ciphertext < sk.public.n_squared:
        raise ValueError("ciphertext outside (0, n^2)")
    p, p2 = sk.p, sk.p2
    m = (_powmod(ciphertext % p2, p - 1, p2) - 1) // p * sk.hp % p
    return m - p if m > p // 2 else m


def _mul_mantissa(pk: PublicKey, ciphertext: int, k: int) -> int:
    """c^k mod n^2; negative-band k goes through the inverse shortcut."""
    n2 = pk.n_squared
    if k > pk.n // 2:
        return _powmod(_invert(ciphertext, n2), pk.n - k, n2)
    return _powmod(ciphertext, k, n2)


@dataclass(frozen=True)
class CipherVector:
    """A vector of ciphertexts sharing one key and one encoding scale."""

    ciphertexts: tuple[int, ...]
    scale: int
    key_id: str

    def __len__(self) -> int:
        return len(self.ciphertexts)


def serial_map(fn: Callable, items) -> list:
    """``fn`` over ``items`` in this process, as a list in input order."""
    return [fn(x) for x in items]


def _worker(conn, parent_ends) -> None:
    """Answer each ``(fn, items)`` on ``conn`` with ``(True, results)``
    or ``(False, exception)``, until the other end closes.

    ``parent_ends`` are the copies of the parent's pipe ends that the
    fork gave this process; they are closed first, so that the parent
    closing its end (or exiting) reaches this worker as end of file.
    """
    for end in parent_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles ^C
    while True:
        try:
            fn, items = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        try:
            reply = (True, serial_map(fn, items))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send_bytes(pickle.dumps(reply))
        except BrokenPipeError:  # the caller left without this reply
            return


def _shared_map(conns, fn: Callable, items) -> list:
    """``fn`` over ``items`` cut into contiguous shares, one per worker
    connection in ``conns`` plus the first, which this process computes
    and which is never smaller than another, so it holds the first item;
    results in input order.  Every share's reply is read, even when an
    earlier share raised, so the connections carry nothing into the
    next call."""
    items = list(items)
    shares = len(conns) + 1
    cuts = [-(-len(items) * k // shares) for k in range(shares + 1)]
    busy = []
    for conn, a, b in zip(conns, cuts[1:-1], cuts[2:]):
        if a < b:
            conn.send_bytes(pickle.dumps((fn, items[a:b])))
            busy.append(conn)
    try:
        out = serial_map(fn, items[:cuts[1]])
    finally:
        replies = [pickle.loads(conn.recv_bytes()) for conn in busy]
    for ok, value in replies:
        if not ok:
            raise value
        out.extend(value)
    return out


@contextmanager
def parallel_map() -> Iterator[Callable]:
    """A map like ``serial_map`` that also uses every other usable CPU.

    Forks one worker per usable CPU beyond the first and yields a map
    that computes the first share of its items in this process and the
    rest in the workers; the workers are closed and joined on exit,
    whether the block returns or raises.  On one CPU it forks nothing
    and yields ``serial_map``.  The mapped function and its arguments
    are pickled, so they must be module-level; what a worker needs
    beyond them, such as a KDE, it finds in the memory the fork copied.
    Fork, not spawn: a worker starts as a copy of this process, with
    nothing to import, and it only unpickles and runs integer and numpy
    arithmetic, so it takes none of the package's locks that a fork
    could copy while another thread holds them.
    """
    workers = len(os.sched_getaffinity(0)) - 1 \
        if hasattr(os, "sched_getaffinity") else 0
    if workers < 1:
        yield serial_map
        return
    # loaded here, so that importing the package does not load it
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for _ in range(workers):
            here, there = ctx.Pipe()
            conns.append(here)
            proc = ctx.Process(target=_worker, args=(there, conns),
                               daemon=True)
            proc.start()
            procs.append(proc)
            there.close()
        yield functools.partial(_shared_map, conns)
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()


def encrypt_vector(key: PublicKey | SecretKey, values, rng: random.Random,
                   pmap: Callable = serial_map) -> CipherVector:
    """Encrypt each value as ``encrypt_mantissa`` does its encoding; a
    ``SecretKey`` gives the same ciphertexts faster.

    Every alpha is drawn from ``rng`` first, in order, and only the
    ``h_s^alpha`` go through ``pmap``, so the ciphertexts do not depend
    on it.
    """
    pk = key.public if isinstance(key, SecretKey) else key
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    ms = [encode(float(v), pk.n).mantissa for v in values]
    alphas = [rng.getrandbits(ALPHA_BITS) for _ in ms]
    n, n2 = pk.n, pk.n_squared
    cts = tuple((1 + m * n) % n2 * hs % n2 for m, hs in
                zip(ms, pmap(functools.partial(_randomizer, key), alphas)))
    return CipherVector(cts, DEFAULT_SCALE, pk.key_id)


def decrypt_vector(sk: SecretKey, cv: CipherVector, bound: int | None = None,
                   pmap: Callable = serial_map) -> np.ndarray:
    """Decrypt and decode each ciphertext, by full CRT.

    With ``bound``, a promise that every plaintext has |m| < bound,
    only the p half is computed; a residue at or above the bound raises
    ``OverflowError``.  The bound may not exceed p/2.  The
    exponentiations go through ``pmap``.
    """
    if cv.key_id != sk.public.key_id:
        raise ValueError("ciphertext does not belong to this key")
    if bound is None:
        n = sk.public.n
        return np.array([decode(FixedPoint(m, cv.scale), n) for m in pmap(
            functools.partial(decrypt_mantissa, sk), cv.ciphertexts)])
    if not 0 < bound <= sk.p // 2:
        raise ValueError("plaintext bound must lie in (0, p/2]")
    ms = pmap(functools.partial(_decrypt_mod_p, sk), cv.ciphertexts)
    if any(abs(m) >= bound for m in ms):
        raise OverflowError("a plaintext is at or above the bound")
    return np.array([m / cv.scale for m in ms])


def add_cipher(pk: PublicKey, a: CipherVector, b: CipherVector) -> CipherVector:
    """Elementwise homomorphic addition; scales and keys must match."""
    if a.key_id != b.key_id or a.key_id != pk.key_id:
        raise ValueError("cannot add ciphertexts under different keys")
    if a.scale != b.scale:
        raise ValueError(f"scale mismatch: {a.scale} != {b.scale}")
    if len(a) != len(b):
        raise ValueError("length mismatch")
    n2 = pk.n_squared
    cts = tuple(x * y % n2 for x, y in zip(a.ciphertexts, b.ciphertexts))
    return CipherVector(cts, a.scale, a.key_id)


def mul_plain(pk: PublicKey, cv: CipherVector, values) -> CipherVector:
    """Elementwise plaintext * ciphertext; result scale is the product."""
    if cv.key_id != pk.key_id:
        raise ValueError("ciphertext does not belong to this key")
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if values.shape != (len(cv),):
        raise ValueError("plaintext length does not match ciphertext vector")
    cts = tuple(_mul_mantissa(pk, c, encode(float(v), pk.n).mantissa)
                for c, v in zip(cv.ciphertexts, values))
    return CipherVector(cts, cv.scale * DEFAULT_SCALE, cv.key_id)


def negate_cipher(pk: PublicKey, cv: CipherVector,
                  pmap: Callable = serial_map) -> CipherVector:
    """Homomorphic negation: multiply by -1 at unit scale.  The
    inversions go through ``pmap``."""
    if cv.key_id != pk.key_id:
        raise ValueError("ciphertext does not belong to this key")
    cts = tuple(pmap(functools.partial(_invert, mod=pk.n_squared),
                     cv.ciphertexts))
    return CipherVector(cts, cv.scale, cv.key_id)


def cipher_to_bytes(ciphertext: int) -> bytes:
    """Big-endian bytes, minimal length (length prefixes live in framing)."""
    return ciphertext.to_bytes((ciphertext.bit_length() + 7) // 8 or 1, "big")


def cipher_from_bytes(raw: bytes) -> int:
    return int.from_bytes(raw, "big")


def _chain_pows(base: int, exps: list[int], mod: int) -> list[int]:
    """base^e mod ``mod`` for each e of ``exps``: base^(2^i) is squared
    once, up to the longest e, and each power multiplies the squares
    that its set bits pick."""
    squares = [base]
    for _ in range(1, max(exps, default=0).bit_length()):
        squares.append(squares[-1] * squares[-1] % mod)
    out = []
    for e in exps:
        acc = 1
        for square, bit in zip(squares, reversed(format(e, "b"))):
            if bit == "1":
                acc = acc * square % mod
        out.append(acc)
    return out


def _scale_row(pk: PublicKey, item: tuple[int, list[int]]) -> list[int]:
    """c^k mod n^2 for each mantissa k of a row, from one squaring chain
    on c for the positive band and, only when the row has negative
    entries, one on c^-1 for the n - k of the negative band."""
    c, ks = item
    n, n2 = pk.n, pk.n_squared
    half = n // 2
    pos = iter(_chain_pows(c, [k for k in ks if k <= half], n2))
    negs = [n - k for k in ks if k > half]
    neg = iter(_chain_pows(_invert(c, n2), negs, n2) if negs else ())
    return [next(neg) if k > half else next(pos) for k in ks]


def dual_scalar_product(pk: PublicKey, cv: CipherVector, plain,
                        pmap: Callable = serial_map) -> CipherVector:
    """Each encrypted scalar of ``cv`` times its row of the plaintext
    matrix ``plain``, flattened row-major.

    Used for the cross gradient terms, where a per-sample encrypted
    log-density difference multiplies that sample's plaintext
    log-density gradient.  The rows are encoded here and their
    exponentiations go through ``pmap``.
    """
    if cv.key_id != pk.key_id:
        raise ValueError("ciphertext does not belong to this key")
    plain = np.asarray(plain, dtype=np.float64)
    if plain.ndim != 2 or plain.shape[0] != len(cv):
        raise ValueError("need one plaintext row per ciphertext")
    rows = [[encode(v, pk.n).mantissa for v in row] for row in plain.tolist()]
    cts = tuple(ct for row in pmap(functools.partial(_scale_row, pk),
                                   zip(cv.ciphertexts, rows)) for ct in row)
    return CipherVector(cts, cv.scale * DEFAULT_SCALE, pk.key_id)
