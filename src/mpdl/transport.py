"""Typed message transport between the three actors A, B and C.

Every cross-party byte in the package rides on a ProtocolMessage.  The
wire format is a length-framed little-endian envelope; payload layouts
are fixed per message kind.  Every hub owns the six FIFO channels among
A, B and C, one per directed pair, assigns globally monotone message
ids to the frames its channels accept, and keeps each such frame once
in a transcript (a send that raises leaves no trace); messages are
decoded on access.  ``Hub.exchange`` is one delivery: a send, then the
receiver taking that message before anything else is sent; every other
module delivers each of its messages this way and never calls
``Hub.send`` or ``Hub.recv`` itself.  ``Hub.exchange_matrix`` delivers
one matrix: every matrix delivery is checked on receipt by kind, sender
and shape, and a mis-shaped one raises ``ProtocolError`` there.
Transcripts are the audit surface: boundary checks are declarative
predicates evaluated over them after a protocol run.

Two interchangeable backends exist: in-process queues (default) and
TCP sockets on localhost with one port per directed channel.  Both
move the same encoded frames, so transcripts are byte-identical for
the same seed.  A hub's timeout is set once, when its channels are
built, and bounds every blocking receive (and every TCP send).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from hashlib import sha256
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .paillier import cipher_from_bytes, cipher_to_bytes

ACTORS = ("A", "B", "C")
DEFAULT_TIMEOUT = 30.0


class ProtocolError(RuntimeError):
    """Message order, schema or boundary violation."""


class MessageKind(IntEnum):
    InferredBatch = 1
    GradTerm = 2
    CipherBlock = 3
    PartialSum = 4
    DeltaError = 5
    BlindedIds = 6
    MatrixBlock = 7
    Control = 8


@dataclass(frozen=True)
class ProtocolMessage:
    msg_id: int
    sender: str
    receiver: str
    kind: MessageKind
    payload: bytes
    batch_tag: int | None = None


# u32 length, u64 msg_id, sender, receiver, kind, flags [, u32 batch tag]
_HEAD = struct.Struct("<IQBBBB")
_HEAD_TAGGED = struct.Struct("<IQBBBBI")
_U32 = struct.Struct("<I")
_MAX_TAG = 2 ** 32 - 1
# a dict lookup costs a small fraction of the MessageKind(...) call
_KINDS = {k.value: k for k in MessageKind}


def encode_message(msg: ProtocolMessage) -> bytes:
    """Frame: u32 length, u64 msg_id, sender, receiver, kind, flags, payload."""
    if msg.sender not in ACTORS or msg.receiver not in ACTORS:
        raise ProtocolError(f"unknown actor in {msg.sender!r}->{msg.receiver!r}")
    tag = msg.batch_tag
    if tag is None:
        head = _HEAD.pack(_HEAD.size - 4 + len(msg.payload), msg.msg_id,
                          ord(msg.sender), ord(msg.receiver), int(msg.kind), 0)
    elif 0 <= tag <= _MAX_TAG:
        head = _HEAD_TAGGED.pack(_HEAD_TAGGED.size - 4 + len(msg.payload),
                                 msg.msg_id, ord(msg.sender),
                                 ord(msg.receiver), int(msg.kind), 1, tag)
    else:
        raise ProtocolError(f"batch tag {tag} outside 0..{_MAX_TAG}")
    return head + msg.payload


def decode_message(frame: bytes) -> ProtocolMessage:
    size = len(frame)
    if size < 4:
        raise ProtocolError("frame too short")
    # a declared length of at least 12 means at least a whole fixed header
    if size < _HEAD.size:
        raise ProtocolError("frame length mismatch")
    length, msg_id, sender, receiver, kind, flags = _HEAD.unpack_from(frame)
    if size != 4 + length:
        raise ProtocolError("frame length mismatch")
    offset = _HEAD.size
    batch_tag = None
    if flags & 1:
        if length < 16:
            raise ProtocolError("frame too short for batch tag")
        (batch_tag,) = _U32.unpack_from(frame, offset)
        offset += 4
    if kind not in _KINDS:
        raise ProtocolError(f"unknown message kind {kind}")
    sender, receiver = chr(sender), chr(receiver)
    if sender not in ACTORS or receiver not in ACTORS:
        raise ProtocolError("unknown actor byte in frame")
    return ProtocolMessage(msg_id, sender, receiver, _KINDS[kind],
                           frame[offset:], batch_tag)


# -- payload layouts ---------------------------------------------------------

def pack_matrix(arr) -> bytes:
    """u32 rows, u32 cols, row-major float64 little-endian."""
    a = np.ascontiguousarray(np.atleast_2d(np.asarray(arr, dtype=np.float64)))
    if a.ndim != 2:
        raise ProtocolError("matrix payloads must be 2-D")
    return struct.pack("<II", a.shape[0], a.shape[1]) + a.astype(
        "<f8", copy=False).tobytes()


def unpack_matrix(payload: bytes) -> np.ndarray:
    if len(payload) < 8:
        raise ProtocolError("matrix payload too short")
    rows, cols = struct.unpack_from("<II", payload, 0)
    if len(payload) - 8 != rows * cols * 8:
        raise ProtocolError("matrix payload size mismatch")
    return np.frombuffer(payload, "<f8", rows * cols, offset=8).reshape(
        rows, cols).copy()


def expect_shape(kind: MessageKind, sender: str, got: tuple,
                 want: tuple) -> None:
    """Refuse a received payload of shape ``got`` where ``want`` is due."""
    if got != want:
        raise ProtocolError(f"{MessageKind(kind).name} from {sender} has "
                            f"shape {got}, expected {want}")


def receive_matrix(kind: MessageKind, sender: str, payload: bytes,
                   expect: tuple, unpack=unpack_matrix) -> np.ndarray:
    """The matrix of shape ``expect`` that ``sender`` packed."""
    mat = unpack(payload)
    expect_shape(kind, sender, mat.shape, expect)
    return mat


def _pack_blobs(blobs: Iterable[bytes]) -> bytes:
    """Each blob behind its u32 length."""
    return b"".join(_U32.pack(len(b)) + b for b in blobs)


def _unpack_blobs(payload: bytes, offset: int, count: int,
                  what: str) -> list[bytes]:
    """``count`` length-prefixed blobs from ``offset`` to the end."""
    out = []
    for _ in range(count):
        if offset + 4 > len(payload):
            raise ProtocolError(f"{what} payload truncated")
        (length,) = _U32.unpack_from(payload, offset)
        offset += 4
        if offset + length > len(payload):
            raise ProtocolError(f"{what} payload truncated")
        out.append(payload[offset:offset + length])
        offset += length
    if offset != len(payload):
        raise ProtocolError(f"trailing bytes in {what} payload")
    return out


def pack_ciphers(key_id: str, scale: int, rows: int, cols: int,
                 ciphertexts: Sequence[int]) -> bytes:
    """Cipher block: key id, power-of-two scale exponent, shape, big-endian ints."""
    if scale <= 0 or scale & (scale - 1):
        raise ProtocolError("cipher scale must be a positive power of two")
    if len(ciphertexts) != rows * cols:
        raise ProtocolError("cipher count does not match shape")
    kid = key_id.encode("ascii")
    if len(kid) != 16:
        raise ProtocolError("key id must be 16 ascii chars")
    return kid + struct.pack("<HII", scale.bit_length() - 1, rows, cols) + \
        _pack_blobs(cipher_to_bytes(int(c)) for c in ciphertexts)


def unpack_ciphers(payload: bytes) -> tuple[str, int, int, int, tuple[int, ...]]:
    if len(payload) < 26:
        raise ProtocolError("cipher payload too short")
    try:
        key_id = payload[:16].decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError("cipher key id is not ascii") from None
    scale_exp, rows, cols = struct.unpack_from("<HII", payload, 16)
    cts = _unpack_blobs(payload, 26, rows * cols, "cipher")
    return key_id, 2 ** scale_exp, rows, cols, tuple(map(cipher_from_bytes,
                                                        cts))


def pack_tokens(tokens: Iterable[bytes]) -> bytes:
    toks = [bytes(t) for t in tokens]
    return _U32.pack(len(toks)) + _pack_blobs(toks)


def unpack_tokens(payload: bytes) -> tuple[bytes, ...]:
    if len(payload) < 4:
        raise ProtocolError("token payload too short")
    (count,) = _U32.unpack_from(payload, 0)
    return tuple(_unpack_blobs(payload, 4, count, "token"))


def pack_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def unpack_json(payload: bytes):
    # ValueError covers bad UTF-8, bad JSON and an integer longer than
    # the interpreter converts; RecursionError, arrays nested too deep
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError("malformed control payload") from exc


# -- channels ----------------------------------------------------------------

class _LocalChannel:
    """FIFO byte-frame queue with reads that block up to ``timeout``."""

    def __init__(self, timeout: float):
        self._timeout = timeout
        self._frames = deque()
        self._cond = threading.Condition()
        self._closed = False

    def send(self, frame: bytes) -> None:
        with self._cond:
            if self._closed:
                raise ProtocolError("channel closed")
            self._frames.append(frame)
            self._cond.notify()

    def recv(self) -> bytes:
        deadline = time.monotonic() + self._timeout
        with self._cond:
            while not self._frames:
                if self._closed:
                    raise ProtocolError("channel closed")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ProtocolError("recv timed out")
                self._cond.wait(remaining)
            return self._frames.popleft()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class _TcpChannel:
    """One directed channel over a localhost TCP connection.

    Both sockets carry a timeout, so neither a send into a full socket
    buffer nor a read from a silent peer blocks for longer than that.
    """

    def __init__(self, timeout: float, host: str = "127.0.0.1"):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, 0))
        listener.listen(1)
        self.port = listener.getsockname()[1]
        self._write = socket.create_connection(listener.getsockname())
        self._read, _ = listener.accept()
        listener.close()
        # generous buffers: protocol scripts may queue several frames
        # before the peer drains them
        self._write.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 22)
        self._read.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        self._write.settimeout(timeout)
        self._read.settimeout(timeout)

    def send(self, frame: bytes) -> None:
        try:
            self._write.sendall(frame)
        except socket.timeout as exc:
            # part of the frame may be on the wire: the stream is no
            # longer framed, so nothing more may travel on it
            self.close()
            raise ProtocolError("send timed out") from exc
        except OSError as exc:
            raise ProtocolError("channel closed") from exc

    def recv(self) -> bytes:
        try:
            head = self._read_exact(4)
            (length,) = _U32.unpack(head)
            return head + self._read_exact(length)
        except socket.timeout as exc:
            raise ProtocolError("recv timed out") from exc
        except OSError as exc:
            raise ProtocolError("channel closed") from exc

    def _read_exact(self, count: int) -> bytes:
        chunks = []
        while count:
            chunk = self._read.recv(count)
            if not chunk:
                raise ProtocolError("channel closed")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        for sock in (self._write, self._read):
            try:
                sock.close()
            except OSError:
                pass


class TranscriptEntry:
    """One delivered message, kept only as its frame."""

    __slots__ = ("frame",)

    def __init__(self, frame: bytes):
        self.frame = frame

    @property
    def message(self) -> ProtocolMessage:
        """The message, decoded from the frame on every access."""
        return decode_message(self.frame)


class Transcript:
    """Ordered record of every message a hub delivered."""

    def __init__(self):
        self.entries: list[TranscriptEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ProtocolMessage]:
        """Messages in send order, each decoded only when reached."""
        return (e.message for e in self.entries)

    def messages(self) -> list[ProtocolMessage]:
        return list(self)

    def view(self, actor: str) -> list[ProtocolMessage]:
        """Messages the actor could observe: sent by it or delivered to it."""
        return [m for m in self if actor in (m.sender, m.receiver)]

    def received_by(self, actor: str) -> list[ProtocolMessage]:
        return [m for m in self if m.receiver == actor]

    def frames(self) -> list[bytes]:
        return [e.frame for e in self.entries]

    def to_jsonl(self, path) -> None:
        """One JSON object per message: its header fields, payload size
        and payload sha256, never the payload itself."""
        with open(path, "w") as fh:
            for m in self:
                row = {"msg_id": m.msg_id, "sender": m.sender,
                       "receiver": m.receiver, "kind": m.kind.name,
                       "batch_tag": m.batch_tag,
                       "payload_bytes": len(m.payload),
                       "payload_sha256": sha256(m.payload).hexdigest()}
                fh.write(json.dumps(row, sort_keys=True) + "\n")


class Hub:
    """Channel fabric plus transcript recorder for one protocol run.

    ``backend`` is "local" or "tcp"; both move identical frames.
    """

    def __init__(self, backend: str = "local",
                 timeout: float = DEFAULT_TIMEOUT):
        if backend not in ("local", "tcp"):
            raise ProtocolError(f"unknown backend {backend!r}")
        channel = _LocalChannel if backend == "local" else _TcpChannel
        self.transcript = Transcript()
        self._lock = threading.Lock()
        self._next_id = 0
        self._channels = {(s, r): channel(timeout)
                          for s in ACTORS for r in ACTORS if s != r}

    def send(self, sender: str, receiver: str, kind: MessageKind,
             payload: bytes, batch_tag: int | None = None) -> ProtocolMessage:
        if (sender, receiver) not in self._channels:
            raise ProtocolError(f"no channel {sender!r}->{receiver!r}")
        with self._lock:
            # bytes() freezes a bytearray or memoryview; an exact bytes
            # object comes back as itself, uncopied
            msg = ProtocolMessage(self._next_id, sender, receiver,
                                  MessageKind(kind), bytes(payload), batch_tag)
            frame = encode_message(msg)
            # a frame is recorded, and its id used up, only once its
            # channel has taken it; a local send never blocks and a TCP
            # send is bounded by the hub timeout
            self._channels[(sender, receiver)].send(frame)
            self._next_id += 1
            self.transcript.entries.append(TranscriptEntry(frame))
        return msg

    def recv(self, receiver: str, sender: str,
             kind: MessageKind | None = None) -> ProtocolMessage:
        if (sender, receiver) not in self._channels:
            raise ProtocolError(f"no channel {sender!r}->{receiver!r}")
        frame = self._channels[(sender, receiver)].recv()
        msg = decode_message(frame)
        if msg.sender != sender or msg.receiver != receiver:
            raise ProtocolError("frame delivered on the wrong channel")
        if kind is not None and msg.kind != kind:
            raise ProtocolError(f"expected {MessageKind(kind).name}, got "
                                f"{msg.kind.name} (msg {msg.msg_id})")
        return msg

    def exchange(self, sender: str, receiver: str, kind: MessageKind,
                 payload: bytes, batch_tag: int | None = None
                 ) -> ProtocolMessage:
        """Send one message and take its delivery at the receiver."""
        self.send(sender, receiver, kind, payload, batch_tag)
        return self.recv(receiver, sender, kind)

    def exchange_matrix(self, sender: str, receiver: str, kind: MessageKind,
                        array, expect: tuple, batch_tag: int | None = None,
                        *, codec=(pack_matrix, unpack_matrix)) -> np.ndarray:
        """Deliver ``array``, which the receiver takes as a matrix of
        shape ``expect``; ``codec`` is (pack, unpack) as the caller names
        them, for profilers that wrap them there (``bench/spans.py``)."""
        msg = self.exchange(sender, receiver, kind, codec[0](array),
                            batch_tag)
        return receive_matrix(kind, sender, msg.payload, expect, codec[1])

    def close(self) -> None:
        for ch in self._channels.values():
            ch.close()


# -- declarative transcript checks -------------------------------------------

Predicate = Callable[[Transcript], str | None]

MATRIX_KINDS = (MessageKind.InferredBatch, MessageKind.GradTerm,
                MessageKind.PartialSum, MessageKind.DeltaError,
                MessageKind.MatrixBlock)


@dataclass
class AssertionReport:
    results: dict[str, str | None]

    @property
    def ok(self) -> bool:
        return all(v is None for v in self.results.values())

    def failures(self) -> dict[str, str]:
        return {k: v for k, v in self.results.items() if v is not None}


def transcript_assert(transcript: Transcript,
                      predicates: Mapping[str, Predicate]) -> AssertionReport:
    """Evaluate named predicates; each returns None (pass) or a detail."""
    return AssertionReport({name: pred(transcript)
                            for name, pred in predicates.items()})


def _matrix_payloads(transcript: Transcript, receiver: str | None
                     ) -> Iterable[tuple[ProtocolMessage, np.ndarray]]:
    for msg in transcript:
        if receiver is not None and msg.receiver != receiver:
            continue
        if msg.kind not in MATRIX_KINDS:
            continue
        yield msg, unpack_matrix(msg.payload)


def forbid_plaintext_rows(receiver: str | None, forbidden) -> Predicate:
    """Fail if any float payload row equals (bit-for-bit) a forbidden row."""
    forb = np.atleast_2d(np.asarray(forbidden, dtype=np.float64))

    def pred(transcript: Transcript) -> str | None:
        for msg, mat in _matrix_payloads(transcript, receiver):
            if mat.shape[1] != forb.shape[1]:
                continue
            hits = (mat[:, None, :] == forb[None, :, :]).all(axis=2)
            if hits.any():
                row = int(np.argwhere(hits)[0][0])
                return (f"msg {msg.msg_id} ({msg.kind.name} -> "
                        f"{msg.receiver}) leaks forbidden row {row}")
        return None

    return pred


def forbid_plaintext_values(receiver: str | None, forbidden) -> Predicate:
    """Fail if any float payload entry equals a forbidden scalar exactly."""
    vals = np.unique(np.asarray(forbidden, dtype=np.float64).ravel())

    def pred(transcript: Transcript) -> str | None:
        for msg, mat in _matrix_payloads(transcript, receiver):
            if np.isin(mat.ravel(), vals).any():
                return (f"msg {msg.msg_id} ({msg.kind.name} -> "
                        f"{msg.receiver}) carries a forbidden value")
        return None

    return pred


def require_cipher_key(receiver: str, sender: str, key_id: str) -> Predicate:
    """All CipherBlocks on a directed channel must be under one key."""

    def pred(transcript: Transcript) -> str | None:
        for msg in transcript:
            if (msg.kind == MessageKind.CipherBlock and
                    msg.receiver == receiver and msg.sender == sender):
                found = unpack_ciphers(msg.payload)[0]
                if found != key_id:
                    return (f"msg {msg.msg_id} cipher key {found} != "
                            f"expected {key_id}")
        return None

    return pred


def allowed_kinds_only(receiver: str, kinds) -> Predicate:
    """The receiver may only ever see the listed message kinds."""
    allowed = set(kinds)

    def pred(transcript: Transcript) -> str | None:
        for msg in transcript:
            if msg.receiver == receiver and msg.kind not in allowed:
                return (f"msg {msg.msg_id} of kind {msg.kind.name} "
                        f"delivered to {receiver}")
        return None

    return pred
