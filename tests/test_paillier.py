"""Additively homomorphic encryption over fixed-point reals.

Keygen, encode/decode band arithmetic, vector homomorphisms, framing.
All oracles: plain Python arithmetic on the same inputs.
"""

import math
import multiprocessing
import os
import pickle
import random
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdl import paillier
from mpdl.paillier import (DEFAULT_SCALE, KEY_SIZES, CipherVector, FixedPoint,
                           add_cipher, cipher_from_bytes, cipher_to_bytes,
                           decode, decrypt_mantissa, decrypt_vector,
                           dual_scalar_product, encode, encrypt_mantissa,
                           encrypt_vector, keygen, miller_rabin, mul_plain,
                           negate_cipher, parallel_map, plaintext_bound,
                           random_prime, serial_map)


@pytest.fixture(scope="module")
def keys():
    return keygen(512, random.Random(1234))


def test_miller_rabin_small_cases():
    rng = random.Random(0)
    primes = {2, 3, 5, 7, 11, 13, 97, 7919}
    for n in range(2, 100):
        assert miller_rabin(n, rng) == (n in primes or all(
            n % p for p in range(2, int(n ** 0.5) + 1)))
    for n in (7919, 104729, (1 << 61) - 1):
        assert miller_rabin(n, rng)
    for n in (1, 0, 561, 41041, 7919 * 104729):
        assert not miller_rabin(n, rng) or n in primes


def test_random_prime_bit_length():
    rng = random.Random(5)
    for _ in range(5):
        p = random_prime(256, rng)
        assert p.bit_length() == 256
        assert p % 2 == 1
        assert miller_rabin(p, rng)


def _textbook_exponents(sk):
    """lambda = (p - 1)(q - 1) and mu = lambda^-1 mod n, from the primes."""
    lam = (sk.p - 1) * (sk.q - 1)
    return lam, pow(lam, -1, sk.public.n)


def test_keygen_contract(keys):
    n = keys.public.n
    assert n.bit_length() in (511, 512)
    lam, mu = _textbook_exponents(keys.secret)
    assert math.gcd(n, lam) == 1
    assert mu * lam % n == 1
    assert keys.public.n_squared == n * n
    assert len(keys.public.key_id) == 16


def test_keygen_rejects_off_menu_sizes():
    rng = random.Random(0)
    for bits in (64, 128, 256, 300, 513, 4096):
        with pytest.raises(ValueError):
            keygen(bits, rng)
    assert KEY_SIZES == (512, 1024, 2048)


def test_keygen_reproducible():
    a = keygen(512, random.Random(77))
    b = keygen(512, random.Random(77))
    assert a.public.n == b.public.n
    assert (a.secret.p, a.secret.q) == (b.secret.p, b.secret.q)


@pytest.fixture(scope="module", params=[512, 1024])
def crt_keys(request):
    return keygen(request.param, random.Random(request.param + 1))


def _textbook_decrypt(keys, c):
    """The lambda/mu formula the CRT decryption must agree with."""
    n = keys.public.n
    lam, mu = _textbook_exponents(keys.secret)
    return (pow(c, lam, n * n) - 1) // n * mu % n


def test_crt_key_carries_its_primes(crt_keys):
    sk = crt_keys.secret
    assert sk.p * sk.q == crt_keys.public.n
    assert sk.p != sk.q


def test_crt_decrypt_matches_textbook(crt_keys):
    pk, sk = crt_keys.public, crt_keys.secret
    n, n2 = pk.n, pk.n_squared
    rng = random.Random(21)
    # fresh ciphertexts from both sign bands and the band edges
    mantissas = [0, 1, 2 ** 40, n // 3 - 1, n - 1, n - 2 ** 40,
                 n - (n // 3 - 1)]
    mantissas += [rng.randrange(n // 3) for _ in range(5)]
    mantissas += [n - rng.randrange(1, n // 3) for _ in range(5)]
    cts = [encrypt_mantissa(pk, m, rng) for m in mantissas]
    for m, c in zip(mantissas, cts):
        assert decrypt_mantissa(sk, c) == m == _textbook_decrypt(crt_keys, c)
    # sums and plaintext products of ciphertexts
    for a, b in zip(cts, cts[1:]):
        total = a * b % n2
        assert decrypt_mantissa(sk, total) == _textbook_decrypt(crt_keys,
                                                                total)
        k = rng.randrange(n)
        prod = pow(a, k, n2)
        assert decrypt_mantissa(sk, prod) == _textbook_decrypt(crt_keys,
                                                               prod)


def test_plaintext_bound_stays_below_half_of_p(crt_keys):
    pk, sk = crt_keys.public, crt_keys.secret
    bound = plaintext_bound(pk.n)
    assert bound == 2 ** (pk.n.bit_length() // 2 - 3)
    assert bound <= sk.p // 2 and bound <= sk.q // 2


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bounded_decrypt_equals_full_crt_property(crt_keys, data):
    pk, sk = crt_keys.public, crt_keys.secret
    bound = plaintext_bound(pk.n)
    ms = data.draw(st.lists(st.integers(-(bound - 1), bound - 1),
                            min_size=1, max_size=4))
    scale = data.draw(st.sampled_from([DEFAULT_SCALE, DEFAULT_SCALE ** 2]))
    rng = random.Random(sum(ms))
    cv = CipherVector(tuple(encrypt_mantissa(sk, m % pk.n, rng) for m in ms),
                      scale, pk.key_id)
    full = decrypt_vector(sk, cv)
    bounded = decrypt_vector(sk, cv, bound=bound)
    assert bounded.dtype == full.dtype and bounded.shape == full.shape
    assert bounded.tobytes() == full.tobytes()


def test_bounded_decrypt_refuses_a_plaintext_at_the_bound(crt_keys):
    pk, sk = crt_keys.public, crt_keys.secret
    bound = plaintext_bound(pk.n)
    rng = random.Random(31)
    for m in (bound, -bound, bound + 1, sk.p // 2):
        cv = CipherVector((encrypt_mantissa(sk, m % pk.n, rng),),
                          DEFAULT_SCALE, pk.key_id)
        with pytest.raises(OverflowError, match="at or above the bound"):
            decrypt_vector(sk, cv, bound=bound)
        # full CRT reads the same ciphertext without complaint
        assert decrypt_vector(sk, cv)[0] == m / DEFAULT_SCALE


def test_bounded_decrypt_checks_its_bound_and_ciphertexts(keys):
    sk = keys.secret
    cv = encrypt_vector(sk, [1.5], random.Random(32))
    for bad in (0, -1, sk.p // 2 + 1, keys.public.n):
        with pytest.raises(ValueError, match="bound"):
            decrypt_vector(sk, cv, bound=bad)
    assert decrypt_vector(sk, cv, bound=sk.p // 2)[0] == 1.5
    with pytest.raises(ValueError, match="outside"):
        decrypt_vector(sk, CipherVector((0,), DEFAULT_SCALE,
                                        keys.public.key_id),
                       bound=plaintext_bound(keys.public.n))


def test_secret_key_encryption_equals_public(crt_keys):
    pk, sk = crt_keys.public, crt_keys.secret
    for seed in range(8):
        m = random.Random(seed).randrange(pk.n)
        assert encrypt_mantissa(sk, m, random.Random(seed)) == \
            encrypt_mantissa(pk, m, random.Random(seed))
    values = [0.0, 1.5, -2.25, 1e-6, -12345.678]
    assert encrypt_vector(sk, values, random.Random(9)) == \
        encrypt_vector(pk, values, random.Random(9))
    with pytest.raises(ValueError):
        encrypt_mantissa(sk, pk.n, random.Random(0))


def test_secret_key_repr_hides_secrets(keys):
    sk = keys.secret
    text = repr(sk) + repr(keys)
    for secret in (*_textbook_exponents(sk), sk.p, sk.q, sk.hp, sk.hq):
        assert str(secret) not in text
    assert keys.public.key_id in text


def test_encode_decode_examples(keys):
    n = keys.public.n
    fp = encode(-1.5, n)
    assert fp.mantissa == n - 3 * 2 ** 39  # -1.5 * 2^40 mod n
    assert decode(fp, n) == -1.5
    assert decode(encode(0.0, n), n) == 0.0
    assert decode(encode(1.0, n), n) == 1.0
    # Quantization error is at most half a quantum.
    x = 0.1
    assert abs(decode(encode(x, n), n) - x) <= 0.5 / DEFAULT_SCALE


def test_encode_band_overflow(keys):
    n = keys.public.n
    huge = 2.0 * float(n // 3) / DEFAULT_SCALE
    with pytest.raises(OverflowError):
        encode(huge, n)
    with pytest.raises(OverflowError):
        encode(-huge, n)
    with pytest.raises(ValueError):
        encode(math.nan, n)
    with pytest.raises(ValueError):
        encode(math.inf, n)


def test_decode_middle_band_rejected(keys):
    n = keys.public.n
    with pytest.raises(ValueError):
        decode(FixedPoint(n // 2, DEFAULT_SCALE), n)
    with pytest.raises(ValueError):
        decode(FixedPoint(n, DEFAULT_SCALE), n)
    with pytest.raises(ValueError):
        decode(FixedPoint(-1, DEFAULT_SCALE), n)


def test_encrypt_decrypt_round_trip(keys):
    rng = random.Random(2)
    for value in (0.0, 1.0, -1.0, 3.25, -3.25, 1e-6, 12345.678):
        cv = encrypt_vector(keys.public, [value], rng)
        got = decrypt_vector(keys.secret, cv)[0]
        assert abs(got - value) <= 0.5 / DEFAULT_SCALE


def test_encryption_is_probabilistic(keys):
    rng = random.Random(3)
    a = encrypt_vector(keys.public, [0.5], rng)
    b = encrypt_vector(keys.public, [0.5], rng)
    assert a.ciphertexts != b.ciphertexts
    assert decrypt_vector(keys.secret, a) == decrypt_vector(keys.secret, b)


def test_encrypt_mantissa_domain(keys):
    rng = random.Random(4)
    with pytest.raises(ValueError):
        encrypt_mantissa(keys.public, -1, rng)
    with pytest.raises(ValueError):
        encrypt_mantissa(keys.public, keys.public.n, rng)
    with pytest.raises(ValueError):
        decrypt_mantissa(keys.secret, 0)


def test_add_cipher_example(keys):
    rng = random.Random(6)
    a = encrypt_vector(keys.public, [3.25], rng)
    b = encrypt_vector(keys.public, [-1.25], rng)
    total = decrypt_vector(keys.secret, add_cipher(keys.public, a, b))
    assert total[0] == 2.0  # both addends exact in fixed point


def test_mul_plain_example(keys):
    rng = random.Random(7)
    c = encrypt_vector(keys.public, [2.0], rng)
    prod = mul_plain(keys.public, c, [-0.5])
    assert prod.scale == DEFAULT_SCALE ** 2
    assert decrypt_vector(keys.secret, prod)[0] == -1.0


def test_negate_cipher(keys):
    rng = random.Random(8)
    c = encrypt_vector(keys.public, [1.5, -2.25, 0.0], rng)
    got = decrypt_vector(keys.secret, negate_cipher(keys.public, c))
    assert np.array_equal(got, [-1.5, 2.25, 0.0])


def test_homomorphic_ops_match_plain_arithmetic(keys):
    """Random add/mul pairs agree with plain float results to one quantum."""
    rng = random.Random(9)
    nprng = np.random.default_rng(9)
    xs = nprng.uniform(-100, 100, size=40)
    ys = nprng.uniform(-100, 100, size=40)
    ca = encrypt_vector(keys.public, xs, rng)
    cb = encrypt_vector(keys.public, ys, rng)
    got_add = decrypt_vector(keys.secret, add_cipher(keys.public, ca, cb))
    assert np.all(np.abs(got_add - (xs + ys)) <= 2 ** -40)
    got_mul = decrypt_vector(keys.secret, mul_plain(keys.public, ca, ys))
    # Product of two encodings: error ~ |y| * quantum plus quantization of y.
    tol = (np.abs(ys) + np.abs(xs) + 1) * 2 ** -40
    assert np.all(np.abs(got_mul - xs * ys) <= tol)


def test_accumulated_sum_error_bound(keys):
    """Summing 50 ciphertexts keeps total error within 50 quanta."""
    rng = random.Random(10)
    nprng = np.random.default_rng(10)
    values = nprng.uniform(-5, 5, size=50)
    acc = encrypt_vector(keys.public, [values[0]], rng)
    for v in values[1:]:
        acc = add_cipher(keys.public, acc,
                         encrypt_vector(keys.public, [v], rng))
    got = decrypt_vector(keys.secret, acc)[0]
    assert abs(got - values.sum()) <= 50 * 2 ** -40


def test_dual_scalar_product(keys):
    rng = random.Random(11)
    scalar = -0.75
    row = [0.5, -2.0, 4.0]
    c = encrypt_vector(keys.public, [scalar], rng)
    out = dual_scalar_product(keys.public, c, [row])
    got = decrypt_vector(keys.secret, out)
    assert np.allclose(got, np.array(row) * scalar, atol=5 * 2 ** -40)


def test_dual_scalar_product_inverts_once_per_row(keys, monkeypatch):
    rng = random.Random(14)
    cv = encrypt_vector(keys.public, [0.3], rng)
    c = cv.ciphertexts[0]
    row = [-0.5, 2.0, -4.0, -1e-3, 0.0]
    # the same ciphertexts as an elementwise plaintext product
    reference = mul_plain(keys.public, CipherVector((c,) * len(row),
                                                    DEFAULT_SCALE,
                                                    keys.public.key_id), row)
    calls = []
    invert = paillier._invert

    def counting_invert(a, mod):
        calls.append(a)
        return invert(a, mod)

    monkeypatch.setattr(paillier, "_invert", counting_invert)
    out = dual_scalar_product(keys.public, cv, [row])
    assert out == reference
    assert calls == [c]
    calls.clear()
    dual_scalar_product(keys.public, cv, [[0.5, 2.0]])
    assert calls == []


def test_dual_scalar_product_checks_its_key_and_rows(keys):
    other = keygen(512, random.Random(4321))
    cv = encrypt_vector(keys.public, [0.5, -1.0], random.Random(15))
    with pytest.raises(ValueError, match="key"):
        dual_scalar_product(other.public, cv, [[1.0], [2.0]])
    for plain in ([[1.0]], [1.0, 2.0], [[[1.0]], [[2.0]]]):
        with pytest.raises(ValueError, match="one plaintext row"):
            dual_scalar_product(keys.public, cv, plain)


# -- the worker processes ----------------------------------------------------


def _cipher_ops(keys, pmap):
    """Every vector operation that takes a map, on fixed inputs, and the
    encryption rng's next draw."""
    pk, sk = keys.public, keys.secret
    rng = random.Random(21)
    values = np.linspace(-3.0, 3.0, 11)
    sealed = encrypt_vector(sk, values, rng, pmap)
    public = encrypt_vector(pk, values[:3], rng, pmap)
    mult = np.random.default_rng(22).normal(size=(11, 3))
    cross = dual_scalar_product(pk, negate_cipher(pk, sealed), mult, pmap)
    return (sealed, public, cross, rng.random(),
            decrypt_vector(sk, sealed, None, pmap).tobytes(),
            decrypt_vector(sk, cross, plaintext_bound(pk.n), pmap).tobytes())


def test_parallel_map_gives_the_serial_results(keys):
    with parallel_map() as pmap:
        assert _cipher_ops(keys, pmap) == _cipher_ops(keys, serial_map)
        # fewer items than processes, and none
        assert pmap(abs, [-1]) == [1]
        assert pmap(abs, []) == []
        assert len(multiprocessing.active_children()) == \
            len(os.sched_getaffinity(0)) - 1
    assert multiprocessing.active_children() == []


def test_parallel_map_on_one_cpu_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with parallel_map() as pmap:
        assert pmap is serial_map
        assert multiprocessing.active_children() == []


def test_parallel_map_raises_a_workers_error_and_stays_usable(keys):
    sk = keys.secret
    # the zero sits in the last share, which a worker computes when
    # there is one
    bad = CipherVector((1,) * 7 + (0,), DEFAULT_SCALE, keys.public.key_id)
    with parallel_map() as pmap:
        with pytest.raises(ValueError, match=r"outside \(0, n\^2\)"):
            decrypt_vector(sk, bad, None, pmap)
        assert pmap(abs, range(-4, 4)) == [4, 3, 2, 1, 0, 1, 2, 3]
    assert multiprocessing.active_children() == []


def test_parallel_map_joins_its_workers_when_the_block_raises():
    with pytest.raises(RuntimeError, match="injected"):
        with parallel_map() as pmap:
            assert pmap(abs, [-2, 3, -4]) == [2, 3, 4]
            raise RuntimeError("injected")
    assert multiprocessing.active_children() == []


def test_worker_returns_when_its_caller_left_without_the_reply():
    # the caller closes its end after the request: the reply meets a
    # broken pipe, and the worker must return rather than raise
    parent, child = multiprocessing.get_context("fork").Pipe()
    parent.send_bytes(pickle.dumps((abs, [-1, 2])))
    parent.close()
    handler = signal.getsignal(signal.SIGINT)
    try:
        assert paillier._worker(child, []) is None
    finally:
        signal.signal(signal.SIGINT, handler)
        child.close()


def test_cross_key_and_scale_guards(keys):
    other = keygen(512, random.Random(4321))
    rng = random.Random(12)
    ca = encrypt_vector(keys.public, [1.0], rng)
    cb = encrypt_vector(other.public, [1.0], rng)
    with pytest.raises(ValueError):
        add_cipher(keys.public, ca, cb)
    with pytest.raises(ValueError):
        decrypt_vector(other.secret, ca)
    with pytest.raises(ValueError):
        mul_plain(keys.public, cb, [1.0])
    scaled = mul_plain(keys.public, ca, [1.0])
    with pytest.raises(ValueError):
        add_cipher(keys.public, ca, scaled)  # 2^40 vs 2^80 scales
    with pytest.raises(ValueError):
        add_cipher(keys.public, ca, encrypt_vector(keys.public, [1., 2.], rng))
    with pytest.raises(ValueError):
        mul_plain(keys.public, ca, [1.0, 2.0])


def test_cipher_bytes_round_trip(keys):
    rng = random.Random(13)
    cv = encrypt_vector(keys.public, [math.pi], rng)
    c = cv.ciphertexts[0]
    assert cipher_from_bytes(cipher_to_bytes(c)) == c
    assert cipher_to_bytes(0) == b"\x00"
    assert cipher_from_bytes(b"\x00") == 0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_encode_decode_inverse_property(value):
    # Pure band arithmetic, no keygen needed: any odd composite modulus works.
    n = (2 ** 512) + 1
    assert abs(decode(encode(value, n), n) - value) <= 0.5 / DEFAULT_SCALE


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-2 ** 52, max_value=2 ** 52))
def test_mantissa_band_mapping(m):
    # decode returns floats, so stay below 2^53 where they are exact ints
    n = (2 ** 512) + 1
    fp = FixedPoint(m % n, 1)
    assert decode(fp, n) == m
