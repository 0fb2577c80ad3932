"""Additively homomorphic encryption for the cross-party gradient terms.

Classic scheme with the ``g = n + 1`` shortcut: a plaintext mantissa m
encrypts to ``(1 + m*n) * r^n mod n^2``, the private exponent is
``lambda = phi(n)`` and ``mu = phi(n)^-1 mod n``.  Real numbers ride on
a two-band signed fixed-point encoding: positive mantissas stay below
n/3, negative ones (stored as ``n - v``) stay above 2n/3, so the bands
cannot collide and additive overflow lands in the detectable middle.

The key holder never exponentiates modulo n^2: it decrypts modulo p^2
and q^2 and recombines by CRT (Paillier 1999, section 7), and when it
encrypts under its own key it computes ``r^n`` the same way from the
same r, so its ciphertexts equal those of a public-key encryption.

Supported homomorphic ops: ciphertext + ciphertext, and plaintext *
ciphertext (which multiplies the encoding scales).  ``gmpy2`` is used
for the big-integer exponentiations when available; the pure-Python
fallback computes the same values.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Sequence

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


def miller_rabin(n: int, rng: random.Random,
                 rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Probabilistic primality test with ``rounds`` random witnesses."""
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
    for _ in range(rounds):
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
    n: int
    g: int
    key_id: str

    @property
    def n_squared(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class SecretKey:
    """The private exponent, the primes of n and their CRT constants.

    ``lam`` and ``mu`` give the textbook decryption; the CRT constants
    are derived once, at construction.  No secret shows in ``repr``.
    """

    lam: int = field(repr=False)
    mu: int = field(repr=False)
    public: PublicKey
    p: int = field(repr=False)
    q: int = field(repr=False)
    p2: int = field(init=False, repr=False, compare=False)
    q2: int = field(init=False, repr=False, compare=False)
    hp: int = field(init=False, repr=False, compare=False)
    hq: int = field(init=False, repr=False, compare=False)
    q_inv_p: int = field(init=False, repr=False, compare=False)
    q2_inv_p2: int = field(init=False, repr=False, compare=False)
    q_mod_p1: int = field(init=False, repr=False, compare=False)
    p_mod_q1: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, q, g = self.p, self.q, self.public.g
        if p * q != self.public.n:
            raise ValueError("p * q does not match the public modulus")
        p2, q2 = p * p, q * q
        # h_p = L_p(g^(p-1) mod p^2)^-1 mod p, L_p(u) = (u-1)/p
        consts = dict(
            p2=p2, q2=q2,
            hp=_invert((_powmod(g % p2, p - 1, p2) - 1) // p, p),
            hq=_invert((_powmod(g % q2, q - 1, q2) - 1) // q, q),
            q_inv_p=_invert(q, p), q2_inv_p2=_invert(q2, p2),
            q_mod_p1=q % (p - 1), p_mod_q1=p % (q - 1))
        for name, value in consts.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    secret: SecretKey
    bits: int


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
        public = PublicKey(n=n, g=n + 1, key_id=key_id)
        secret = SecretKey(lam=phi, mu=_invert(phi, n), public=public,
                           p=p, q=q)
        return KeyPair(public=public, secret=secret, bits=bits)


@dataclass(frozen=True)
class FixedPoint:
    """Signed fixed-point plaintext: mantissa in [0, n), power-of-two scale."""

    mantissa: int
    scale: int


def encode(value: float, n: int, scale: int = DEFAULT_SCALE) -> FixedPoint:
    """Encode a real number; magnitudes at or above n/(3*scale) overflow."""
    if not math.isfinite(value):
        raise ValueError("cannot encode a non-finite value")
    if scale <= 0 or scale & (scale - 1):
        raise ValueError("scale must be a positive power of two")
    m = round(value * scale)
    if abs(m) >= n // 3:
        raise OverflowError(f"value {value!r} does not fit the encoding band")
    return FixedPoint(mantissa=m % n, scale=scale)


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


def _crt_pow_n(sk: SecretKey, r: int) -> int:
    """r^n mod n^2 for r coprime to n, from its residues mod p^2 and q^2.

    a = b (mod p) implies a^p = b^p (mod p^2), so r^n = (r^q)^p mod p^2
    needs r^q only mod p, where Fermat cuts the exponent to q mod (p-1).
    """
    p, q, p2, q2 = sk.p, sk.q, sk.p2, sk.q2
    xp = _powmod(_powmod(r % p, sk.q_mod_p1, p), p, p2)
    xq = _powmod(_powmod(r % q, sk.p_mod_q1, q), q, q2)
    return xq + (xp - xq) * sk.q2_inv_p2 % p2 * q2


def encrypt_mantissa(key: PublicKey | SecretKey, mantissa: int,
                     rng: random.Random) -> int:
    """Raw encryption of an integer mantissa in [0, n).

    The key holder may pass its ``SecretKey``: the same r is drawn and
    the same ciphertext returned, with ``r^n`` computed by CRT.
    """
    pk = key.public if isinstance(key, SecretKey) else key
    if not 0 <= mantissa < pk.n:
        raise ValueError("mantissa outside [0, n)")
    n2 = pk.n_squared
    while True:
        r = rng.randrange(1, pk.n)
        if math.gcd(r, pk.n) == 1:
            break
    rn = (_crt_pow_n(key, r) if isinstance(key, SecretKey)
          else _powmod(r, pk.n, n2))
    return (1 + mantissa * pk.n) % n2 * rn % n2


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


def _mul_mantissa(pk: PublicKey, ciphertext: int, k: int,
                  inverse: int | None = None) -> int:
    """c^k mod n^2; negative-band k goes through the inverse shortcut.

    ``inverse`` is c^-1 mod n^2 when the caller already holds it.
    """
    n2 = pk.n_squared
    if k > pk.n // 2:
        if inverse is None:
            inverse = _invert(ciphertext, n2)
        return _powmod(inverse, pk.n - k, n2)
    return _powmod(ciphertext, k, n2)


@dataclass(frozen=True)
class CipherVector:
    """A vector of ciphertexts sharing one key and one encoding scale."""

    ciphertexts: tuple[int, ...]
    scale: int
    key_id: str

    def __len__(self) -> int:
        return len(self.ciphertexts)


def encrypt_vector(key: PublicKey | SecretKey, values, rng: random.Random,
                   scale: int = DEFAULT_SCALE) -> CipherVector:
    """Encrypt each value; a ``SecretKey`` gives the same ciphertexts faster."""
    pk = key.public if isinstance(key, SecretKey) else key
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    cts = tuple(encrypt_mantissa(key, encode(float(v), pk.n, scale).mantissa,
                                 rng)
                for v in values)
    return CipherVector(cts, scale, pk.key_id)


def decrypt_vector(sk: SecretKey, cv: CipherVector) -> np.ndarray:
    if cv.key_id != sk.public.key_id:
        raise ValueError("ciphertext does not belong to this key")
    n = sk.public.n
    return np.array([decode(FixedPoint(decrypt_mantissa(sk, c), cv.scale), n)
                     for c in cv.ciphertexts])


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


def mul_plain(pk: PublicKey, cv: CipherVector, values,
              scale: int = DEFAULT_SCALE) -> CipherVector:
    """Elementwise plaintext * ciphertext; result scale is the product."""
    if cv.key_id != pk.key_id:
        raise ValueError("ciphertext does not belong to this key")
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if values.shape != (len(cv),):
        raise ValueError("plaintext length does not match ciphertext vector")
    cts = tuple(_mul_mantissa(pk, c, encode(float(v), pk.n, scale).mantissa)
                for c, v in zip(cv.ciphertexts, values))
    return CipherVector(cts, cv.scale * scale, cv.key_id)


def negate_cipher(pk: PublicKey, cv: CipherVector) -> CipherVector:
    """Homomorphic negation: multiply by -1 at unit scale."""
    if cv.key_id != pk.key_id:
        raise ValueError("ciphertext does not belong to this key")
    n2 = pk.n_squared
    cts = tuple(_invert(c, n2) for c in cv.ciphertexts)
    return CipherVector(cts, cv.scale, cv.key_id)


def cipher_to_bytes(ciphertext: int) -> bytes:
    """Big-endian bytes, minimal length (length prefixes live in framing)."""
    return ciphertext.to_bytes((ciphertext.bit_length() + 7) // 8 or 1, "big")


def cipher_from_bytes(raw: bytes) -> int:
    return int.from_bytes(raw, "big")


def dual_scalar_product(pk: PublicKey, scalar_cipher: int, scalar_scale: int,
                        plain_row: Sequence[float],
                        scale: int = DEFAULT_SCALE) -> CipherVector:
    """One encrypted scalar times a plaintext row vector.

    Used for the cross gradient terms, where a per-sample encrypted
    log-density difference multiplies that sample's plaintext
    log-density gradient.  The scalar is inverted at most once, however
    many negative entries the row holds.
    """
    c = int(scalar_cipher)
    ks = [encode(float(v), pk.n, scale).mantissa
          for v in np.atleast_1d(np.asarray(plain_row, dtype=np.float64))]
    inverse = (_invert(c, pk.n_squared) if any(k > pk.n // 2 for k in ks)
               else None)
    cts = tuple(_mul_mantissa(pk, c, k, inverse) for k in ks)
    return CipherVector(cts, scalar_scale * scale, pk.key_id)
