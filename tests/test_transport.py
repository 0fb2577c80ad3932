"""Message framing, channel semantics, transcripts and boundary predicates."""

import gc
import json
import struct
import threading
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
                            require_cipher_key, transcript_assert,
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


def test_hub_recv_timeout():
    hub = Hub(timeout=0.05)
    with pytest.raises(ProtocolError):
        hub.recv("B", "A")
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


def test_transcript_views():
    hub = Hub()
    _run_script(hub)
    t = hub.transcript
    assert len(t) == 3
    assert [m.kind for m in t.view("A")] == [MessageKind.InferredBatch,
                                             MessageKind.GradTerm]
    assert [m.sender for m in t.received_by("C")] == ["B"]
    hub.close()


def test_transcript_jsonl(tmp_path):
    hub = Hub()
    _run_script(hub)
    path = tmp_path / "t.jsonl"
    hub.transcript.to_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 3
    assert rows[0]["kind"] == "InferredBatch"
    assert "payload_sha256" in rows[0] and "payload_hex" not in rows[0]
    hub.close()


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


def test_require_cipher_key():
    hub = Hub()
    payload = pack_ciphers("0123456789abcdef", 2 ** 40, 1, 1, (42,))
    hub.send("A", "B", MessageKind.CipherBlock, payload)
    good = transcript_assert(hub.transcript, {
        "key": require_cipher_key("B", "A", "0123456789abcdef")})
    assert good.ok
    bad = transcript_assert(hub.transcript, {
        "key": require_cipher_key("B", "A", "ffffffffffffffff")})
    assert not bad.ok
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
