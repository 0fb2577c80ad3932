"""Tour of the crypto toolbox: fixed-point Paillier and blinded alignment.

Run with ``python3 demos/01_cipher_toolbox.py``.
"""

import random

import numpy as np

from mpdl.data import blinded_intersection
from mpdl.paillier import (DEFAULT_SCALE, add_cipher, decrypt_vector,
                           encrypt_vector, keygen, mul_plain)
from mpdl.transport import Hub, MessageKind, unpack_tokens


def main() -> None:
    print("== additively homomorphic arithmetic ==")
    keys = keygen(512, random.Random(2024))
    print(f"fresh 512-bit keypair, key id {keys.public.key_id}")

    a = np.array([3.25, -1.25, 0.125])
    b = np.array([0.5, 2.0, -4.0])
    enc_a = encrypt_vector(keys.public, a, random.Random(1))
    enc_b = encrypt_vector(keys.public, b, random.Random(2))
    print(f"operands encode at scale 2^40 ({DEFAULT_SCALE}); every value "
          f"here sits exactly on that grid")

    sums = decrypt_vector(keys.secret, add_cipher(keys.public, enc_a, enc_b))
    prods = decrypt_vector(keys.secret, mul_plain(keys.public, enc_a, b))
    print(f"  a          = {a}")
    print(f"  b          = {b}")
    print(f"  dec(a + b) = {sums}")
    print(f"  dec(a * b) = {prods}   (ciphertext-by-plaintext)")

    again = encrypt_vector(keys.public, a, random.Random(99))
    same = [x == y for x, y in zip(enc_a.ciphertexts, again.ciphertexts)]
    print(f"re-encrypting the same vector reuses no ciphertext: "
          f"{sum(same)} of {len(same)} collide (encryption is randomized)")

    print()
    print("== blinded id alignment ==")
    ids_a = [f"patient-{i:03d}" for i in range(0, 60)]
    ids_b = [f"patient-{i:03d}" for i in range(40, 100)]
    hub = Hub()
    common = blinded_intersection(ids_a, ids_b, np.random.default_rng(7), hub)
    expected = sorted(set(ids_a) & set(ids_b), key=repr)
    print(f"A holds {len(ids_a)} ids, B holds {len(ids_b)}; both learn the "
          f"{len(common)} shared ones: {common[:3]} ... {common[-1]}")
    assert list(common) == expected

    for msg in hub.transcript.messages():
        if msg.kind == MessageKind.BlindedIds:
            token = unpack_tokens(msg.payload)[0]
            print(f"what actually crossed the wire: {len(token)}-byte keyed "
                  f"digests such as {token.hex()}")
            break
    hub.close()


if __name__ == "__main__":
    main()
