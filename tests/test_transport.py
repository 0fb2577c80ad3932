"""Message framing, channel semantics, transcripts and boundary predicates."""

import gc
import re
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdl.transport import (ACTORS, Hub, MessageKind, ProtocolError,
                            ProtocolMessage, allowed_kinds_only,
                            decode_message, encode_message,
                            forbid_plaintext_rows, forbid_plaintext_values,
                            pack_ciphers, pack_json, pack_matrix, pack_tokens,
                            receive_matrix, transcript_assert,
                            unpack_ciphers, unpack_json, unpack_matrix,
                            unpack_tokens)


# -- framing -------------------------------------------------------------------

def test_frame_round_trip_all_kinds():
    for kind in MessageKind:
        msg = ProtocolMessage(7, "A", "B", kind, b"payload-bytes", None)
        assert decode_message(encode_message(msg)) == msg


def test_frame_round_trip_with_batch_tag():
    msg = ProtocolMessage(2 ** 40, "B", "C", MessageKind.PartialSum,
                          b"\x00\xff" * 9, batch_tag=31)
    got = decode_message(encode_message(msg))
    assert got == msg
    assert got.batch_tag == 31


def test_frame_header_layout():
    msg = ProtocolMessage(0x0102030405060708, "A", "C", MessageKind.GradTerm,
                          b"xyz", batch_tag=0xA0B0C0D0)
    want = (struct.pack("<I", 19) + struct.pack("<Q", 0x0102030405060708) +
            b"AC\x02\x01" + struct.pack("<I", 0xA0B0C0D0) + b"xyz")
    assert encode_message(msg) == want
    untagged = ProtocolMessage(9, "B", "A", MessageKind.Control, b"")
    assert encode_message(untagged) == (struct.pack("<IQ", 12, 9) +
                                        b"BA\x08\x00")


def test_frame_rejects_unknown_actor():
    msg = ProtocolMessage(0, "A", "Z", MessageKind.Control, b"")
    with pytest.raises(ProtocolError):
        encode_message(msg)


def test_decode_rejects_malformed_frames():
    good = encode_message(ProtocolMessage(1, "A", "B", MessageKind.Control,
                                          b"xy"))
    with pytest.raises(ProtocolError):
        decode_message(good[:-1])          # truncated
    with pytest.raises(ProtocolError):
        decode_message(good + b"\x00")     # trailing byte
    with pytest.raises(ProtocolError):
        decode_message(b"\x01\x00")        # shorter than the length field
    bad_kind = bytearray(good)
    bad_kind[4 + 10] = 99                  # kind byte inside the header
    with pytest.raises(ProtocolError):
        decode_message(bytes(bad_kind))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.sampled_from(ACTORS),
       st.sampled_from(ACTORS), st.sampled_from(list(MessageKind)),
       st.binary(max_size=200),
       st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
def test_frame_round_trip_property(msg_id, sender, receiver, kind, payload,
                                   tag):
    msg = ProtocolMessage(msg_id, sender, receiver, kind, payload, tag)
    assert decode_message(encode_message(msg)) == msg


# -- payload layouts -------------------------------------------------------------

def test_matrix_payload_round_trip():
    mats = [np.zeros((1, 1)), np.arange(12.0).reshape(3, 4),
            np.array([[-0.0, np.pi]]), np.arange(5.0)]
    for m in mats:
        got = unpack_matrix(pack_matrix(m))
        assert np.array_equal(got, np.atleast_2d(m))
    with pytest.raises(ProtocolError):
        unpack_matrix(b"\x00" * 7)
    with pytest.raises(ProtocolError):
        unpack_matrix(pack_matrix(np.ones((2, 2)))[:-3])


def test_matrix_payload_layout():
    # header u32 rows, u32 cols, then row-major little-endian float64,
    # whatever the input's byte order or memory layout
    m = np.arange(6.0).reshape(2, 3)
    want = (b"\x02\x00\x00\x00\x03\x00\x00\x00" +
            b"".join(struct.pack("<d", v) for v in m.ravel()))
    assert pack_matrix(m) == want
    assert pack_matrix(m.astype(">f8")) == want
    assert pack_matrix(np.asfortranarray(m)) == want
    assert pack_matrix(np.arange(6).reshape(2, 3)) == want
    got = unpack_matrix(want)
    assert got.dtype == np.float64 and got.flags.writeable
    assert np.array_equal(got, m)
    with pytest.raises(ProtocolError):
        unpack_matrix(want + b"\x00" * 8)


def test_cipher_payload_round_trip():
    cts = (0, 1, 2 ** 700 + 13, 5)
    payload = pack_ciphers("abcdef0123456789", 2 ** 40, 2, 2, cts)
    key_id, scale, rows, cols, got = unpack_ciphers(payload)
    assert (key_id, scale, rows, cols) == ("abcdef0123456789", 2 ** 40, 2, 2)
    assert got == cts
    with pytest.raises(ProtocolError):
        pack_ciphers("short", 2 ** 40, 1, 1, (1,))
    with pytest.raises(ProtocolError):
        pack_ciphers("abcdef0123456789", 3, 1, 1, (1,))
    with pytest.raises(ProtocolError):
        pack_ciphers("abcdef0123456789", 2, 1, 2, (1,))
    with pytest.raises(ProtocolError):
        unpack_ciphers(payload[:-2])


def test_cipher_payload_with_a_non_ascii_key_id_is_a_protocol_error():
    payload = pack_ciphers("abcdef0123456789", 2 ** 40, 1, 1, (7,))
    with pytest.raises(ProtocolError, match="key id"):
        unpack_ciphers(b"\xff" * 16 + payload[16:])


_VALID_CIPHERS = pack_ciphers("abcdef0123456789", 2 ** 80, 2, 2,
                              (1, 2 ** 600 + 7, 3, 2 ** 1023))
_VALID_MATRIX = pack_matrix(np.arange(6.0).reshape(2, 3))


def _damaged(valid: bytes):
    """Arbitrary bytes, truncations and one-byte mutations of ``valid``."""
    return st.one_of(
        st.binary(max_size=300),
        st.integers(0, len(valid) - 1).map(lambda k: valid[:k]),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
            lambda t: valid[:t[0]] + bytes([t[1]]) + valid[t[0] + 1:]))


def _decodes_or_refuses(decoder, payload: bytes) -> None:
    try:
        decoder(payload)
    except ProtocolError:
        pass


@settings(max_examples=300, deadline=None)
@given(_damaged(_VALID_CIPHERS))
def test_unpack_ciphers_fails_only_with_protocol_error(payload):
    _decodes_or_refuses(unpack_ciphers, payload)


@settings(max_examples=300, deadline=None)
@given(_damaged(_VALID_MATRIX))
def test_unpack_matrix_fails_only_with_protocol_error(payload):
    _decodes_or_refuses(unpack_matrix, payload)


_VALID_TOKENS = pack_tokens([b"", b"\x00\x01", b"tok" * 5])
_VALID_JSON = pack_json({"supplement_ids": ["1", "'a'"], "labels": [0, 1],
                         "x": -2.5e-3, "ok": True, "none": None})


@settings(max_examples=300, deadline=None)
@given(_damaged(_VALID_TOKENS))
def test_unpack_tokens_fails_only_with_protocol_error(payload):
    _decodes_or_refuses(unpack_tokens, payload)


@settings(max_examples=300, deadline=None)
@given(_damaged(_VALID_JSON))
def test_unpack_json_fails_only_with_protocol_error(payload):
    _decodes_or_refuses(unpack_json, payload)


@pytest.mark.parametrize("payload", [b"[" * 100_000 + b"]" * 100_000,
                                     b"{\"a\":" * 100_000, b"1" * 5000],
                         ids=["nested-array", "nested-object", "long-int"])
def test_unpack_json_refuses_what_the_parser_cannot_hold(payload):
    with pytest.raises(ProtocolError, match="malformed control payload"):
        unpack_json(payload)


@settings(max_examples=300, deadline=None)
@given(_damaged(encode_message(ProtocolMessage(
    7, "A", "B", MessageKind.GradTerm, _VALID_MATRIX, 3))))
def test_decode_message_fails_only_with_protocol_error(frame):
    _decodes_or_refuses(decode_message, frame)


def test_token_payload_round_trip():
    tokens = (b"", b"\x00", b"abc", b"\xff" * 40)
    assert unpack_tokens(pack_tokens(tokens)) == tokens
    with pytest.raises(ProtocolError):
        unpack_tokens(pack_tokens(tokens) + b"\x00")
    with pytest.raises(ProtocolError):
        unpack_tokens(b"\x01")


def test_token_payload_cut_short_reports_truncation():
    full = pack_tokens((b"abc", b"\xff" * 40))
    for cut in range(4, len(full)):  # inside a length field or a token
        with pytest.raises(ProtocolError, match="token payload truncated"):
            unpack_tokens(full[:cut])


def test_json_payload_round_trip():
    obj = {"epoch": 3, "loss": 0.5, "tags": ["a", "b"]}
    assert unpack_json(pack_json(obj)) == obj
    with pytest.raises(ProtocolError):
        unpack_json(b"\xff\xfe not json")


# -- hub and channels --------------------------------------------------------------

def test_hub_fifo_per_channel():
    hub = Hub()
    for i in range(5):
        hub.send("A", "B", MessageKind.Control, bytes([i]))
    got = [hub.recv("B", "A").payload[0] for _ in range(5)]
    assert got == [0, 1, 2, 3, 4]
    hub.close()


def test_hub_msg_ids_globally_monotone():
    hub = Hub()
    hub.send("A", "B", MessageKind.Control, b"")
    hub.send("B", "C", MessageKind.Control, b"")
    hub.send("C", "A", MessageKind.Control, b"")
    ids = [m.msg_id for m in hub.transcript.messages()]
    assert ids == [0, 1, 2]
    hub.close()


def test_hub_bad_batch_tag_uses_no_msg_id():
    hub = Hub()
    try:
        for tag in (-1, 2 ** 32):
            with pytest.raises(ProtocolError, match="batch tag"):
                hub.send("A", "B", MessageKind.Control, b"", batch_tag=tag)
        sent = hub.send("A", "B", MessageKind.Control, b"",
                        batch_tag=2 ** 32 - 1)
        assert sent.msg_id == 0
        assert len(hub.transcript) == 1
        assert hub.recv("B", "A").batch_tag == 2 ** 32 - 1
    finally:
        hub.close()


@pytest.mark.parametrize("backend", ["local", "tcp"])
def test_hub_failed_send_leaves_transcript_empty(backend):
    hub = Hub(backend=backend)
    hub.close()
    with pytest.raises(ProtocolError, match="channel closed"):
        hub.send("A", "B", MessageKind.Control, b"x")
    assert len(hub.transcript) == 0


def test_hub_failed_send_uses_no_msg_id(monkeypatch):
    hub = Hub()
    channel = hub._channels[("A", "B")]
    original, failed = channel.send, []

    def fail_once(frame):
        if not failed:
            failed.append(frame)
            raise ProtocolError("send timed out")
        original(frame)

    monkeypatch.setattr(channel, "send", fail_once)
    try:
        with pytest.raises(ProtocolError, match="send timed out"):
            hub.send("A", "B", MessageKind.Control, b"lost")
        sent = hub.send("A", "B", MessageKind.Control, b"kept")
        assert sent.msg_id == 0
        assert [m.payload for m in hub.transcript.messages()] == [b"kept"]
        assert hub.recv("B", "A") == sent
    finally:
        hub.close()


# a repeated or reordered frame carries an id at or below the last one
# its channel's receiver took; unchecked, one of the same kind and shape
# was taken as the next message
@pytest.mark.parametrize("order, message", [
    ((0, 0, 1), "msg 0 (Control) from A does not follow msg 0"),
    ((1, 0), "msg 0 (Control) from A does not follow msg 1"),
], ids=["repeated", "reordered"])
def test_hub_refuses_a_frame_that_does_not_follow_the_last_taken(order,
                                                                 message):
    hub = Hub()
    channel = hub._channels[("A", "B")]
    original, held = channel.send, []
    channel.send = held.append
    try:
        for k in range(2):
            hub.send("A", "B", MessageKind.Control, bytes([k]))
        for k in order:
            original(held[k])
        assert hub.recv("B", "A").msg_id == order[0]
        with pytest.raises(ProtocolError,
                           match=rf"^{re.escape(message)} on its channel$"):
            hub.recv("B", "A")
    finally:
        hub.close()


# a NaN or an infinity in a peer's matrix is that peer's fault, named on
# receipt; unchecked it surfaced as nn.as_batch's ValueError
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "+inf", "-inf"])
def test_a_non_finite_matrix_entry_is_a_protocol_fault(bad):
    mat = np.ones((3, 2))
    mat[1, 0] = bad
    with pytest.raises(ProtocolError, match="^GradTerm from B holds a "
                                            "non-finite entry$"):
        receive_matrix(MessageKind.GradTerm, "B", pack_matrix(mat), (3, 2))
    hub = Hub()
    try:
        with pytest.raises(ProtocolError, match="^DeltaError from C holds a "
                                                "non-finite entry$"):
            hub.exchange_matrix("C", "A", MessageKind.DeltaError, mat,
                                (3, 2))
    finally:
        hub.close()


def test_hub_recv_timeout():
    hub = Hub(timeout=0.05)
    with pytest.raises(ProtocolError):
        hub.recv("B", "A")
    hub.close()


def test_local_hub_refuses_an_empty_recv_at_once():
    # the three actors share one thread, so no frame can still arrive;
    # the recv used to wait out the default 30 s timeout
    hub = Hub()
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="^recv on an empty channel$"):
        hub.recv("B", "A")
    assert time.monotonic() - start < 1.0
    hub.close()


def test_hub_kind_mismatch():
    hub = Hub()
    hub.send("A", "B", MessageKind.Control, b"")
    with pytest.raises(ProtocolError):
        hub.recv("B", "A", MessageKind.GradTerm)
    hub.close()


def test_hub_unknown_channel_and_actor():
    with pytest.raises(ProtocolError):
        Hub(backend="carrier-pigeon")
    hub = Hub()
    with pytest.raises(ProtocolError, match="no channel"):
        hub.send("A", "A", MessageKind.Control, b"")
    with pytest.raises(ProtocolError, match="no channel"):
        hub.send("A", "X", MessageKind.Control, b"")
    hub.close()


@pytest.mark.parametrize("backend", ["local", "tcp"])
def test_hub_exchange_delivers_what_send_records(backend, monkeypatch):
    hub = Hub(backend=backend)
    sent = []

    def spy(*args):
        sent.append(Hub.send(hub, *args))
        return sent[-1]

    monkeypatch.setattr(hub, "send", spy)
    try:
        hub.send("C", "A", MessageKind.Control, b"first")
        hub.recv("A", "C")
        got = hub.exchange("B", "C", MessageKind.GradTerm,
                           pack_matrix(np.eye(2)), batch_tag=3)
        assert got == sent[-1] == ProtocolMessage(
            1, "B", "C", MessageKind.GradTerm, pack_matrix(np.eye(2)), 3)
        assert len(hub.transcript) == 2
        assert hub.transcript.entries[-1].message == got
        again = hub.exchange("B", "C", MessageKind.GradTerm, b"")
        assert again.msg_id == 2 and len(hub.transcript) == 3
    finally:
        hub.close()
    with pytest.raises(ProtocolError, match="channel closed"):
        hub.exchange("B", "C", MessageKind.GradTerm, b"")
    assert len(hub.transcript) == 3


def _run_script(hub):
    hub.send("A", "B", MessageKind.InferredBatch,
             pack_matrix(np.arange(6.0).reshape(2, 3)))
    hub.recv("B", "A", MessageKind.InferredBatch)
    hub.send("B", "A", MessageKind.GradTerm, pack_matrix(np.eye(2)),
             batch_tag=4)
    hub.recv("A", "B", MessageKind.GradTerm)
    hub.send("B", "C", MessageKind.PartialSum, pack_matrix(np.ones((1, 2))))
    hub.recv("C", "B", MessageKind.PartialSum)


def test_tcp_backend_produces_identical_transcript():
    local = Hub(backend="local")
    tcp = Hub(backend="tcp")
    _run_script(local)
    _run_script(tcp)
    assert local.transcript.frames() == tcp.transcript.frames()
    local.close()
    tcp.close()


def test_tcp_send_of_unread_large_frame_times_out():
    # 32 MB is far beyond the socket buffers, so with nobody reading the
    # send can only finish by timing out
    hub = Hub(backend="tcp", timeout=1.0)
    errors = []

    def send():
        try:
            hub.send("A", "B", MessageKind.Control, bytes(32 << 20))
        except ProtocolError as exc:
            errors.append(exc)

    worker = threading.Thread(target=send, daemon=True)
    try:
        worker.start()
        worker.join(timeout=20)
        assert not worker.is_alive(), "send into a full socket never returned"
        assert [str(e) for e in errors] == ["send timed out"]
        # a timed-out send may have left half a frame on the wire
        with pytest.raises(ProtocolError, match="channel closed"):
            hub.send("A", "B", MessageKind.Control, b"")
    finally:
        hub.close()


def test_tcp_channel_closed_raises_protocol_error():
    hub = Hub(backend="tcp")
    hub.close()
    with pytest.raises(ProtocolError, match="channel closed"):
        hub.send("A", "B", MessageKind.Control, b"x")
    with pytest.raises(ProtocolError, match="channel closed"):
        hub.recv("B", "A")


def test_transcript_keeps_each_frame_once():
    count, size = 50, 64 * 1024
    hub = Hub()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(count):
            payload = bytes([i]) * size
            hub.send("A", "B", MessageKind.MatrixBlock, payload)
            hub.recv("B", "A", MessageKind.MatrixBlock)
        del payload
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        hub.close()
    frame_bytes = sum(map(len, hub.transcript.frames()))
    assert frame_bytes > count * size
    assert retained < 1.25 * frame_bytes


# -- boundary predicates -------------------------------------------------------------

def test_transcript_assert_empty_is_vacuous_pass():
    hub = Hub()
    report = transcript_assert(hub.transcript, {
        "no_rows": forbid_plaintext_rows("B", np.ones((1, 3))),
        "kinds": allowed_kinds_only("C", [MessageKind.PartialSum]),
    })
    assert report.ok
    assert report.failures() == {}
    hub.close()


def test_forbid_plaintext_rows_detects_injected_leak():
    secret = np.array([[0.25, 0.5, 0.125], [0.75, 0.1, 0.9]])
    hub = Hub()
    hub.send("A", "B", MessageKind.MatrixBlock, pack_matrix(secret[1:2]))
    report = transcript_assert(hub.transcript,
                               {"leak": forbid_plaintext_rows("B", secret)})
    assert not report.ok
    assert "msg 0" in report.failures()["leak"]
    hub.close()


def test_forbid_plaintext_rows_passes_on_perturbed_copy():
    secret = np.array([[0.25, 0.5, 0.125]])
    hub = Hub()
    hub.send("A", "B", MessageKind.MatrixBlock,
             pack_matrix(secret + 1e-12))  # not bit-identical
    report = transcript_assert(hub.transcript,
                               {"leak": forbid_plaintext_rows("B", secret)})
    assert report.ok
    hub.close()


def test_forbid_plaintext_rows_scopes_to_receiver():
    secret = np.array([[1.0, 2.0]])
    hub = Hub()
    hub.send("A", "C", MessageKind.MatrixBlock, pack_matrix(secret))
    report = transcript_assert(hub.transcript,
                               {"leak": forbid_plaintext_rows("B", secret)})
    assert report.ok  # leak went to C, predicate only guards B
    report = transcript_assert(hub.transcript,
                               {"leak": forbid_plaintext_rows(None, secret)})
    assert not report.ok
    hub.close()


def test_forbid_plaintext_values():
    hub = Hub()
    hub.send("B", "A", MessageKind.PartialSum,
             pack_matrix(np.array([[3.0, 0.777]])))
    bad = transcript_assert(hub.transcript,
                            {"v": forbid_plaintext_values("A", [0.777])})
    assert not bad.ok
    ok = transcript_assert(hub.transcript,
                           {"v": forbid_plaintext_values("A", [0.778])})
    assert ok.ok
    hub.close()


def test_allowed_kinds_only():
    hub = Hub()
    _run_script(hub)
    report = transcript_assert(hub.transcript, {
        "c_kinds": allowed_kinds_only("C", [MessageKind.PartialSum]),
        "a_kinds": allowed_kinds_only("A", [MessageKind.GradTerm]),
        "b_kinds": allowed_kinds_only("B", [MessageKind.Control]),
    })
    assert report.results["c_kinds"] is None
    assert report.results["a_kinds"] is None
    assert report.results["b_kinds"] is not None
    hub.close()
