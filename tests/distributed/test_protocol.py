"""Frames and codecs: the wire vocabulary of the task-queue fabric."""

import socket
import struct
import threading

import pytest

from repro.api import InstanceSpec, SolveRequest
from repro.api.wire import (
    MAC_BYTES,
    MAX_FRAME_BYTES,
    FrameError,
    WireFormatError,
    decode_frame,
    encode_frame,
    recv_frame,
    request_to_wire,
    send_frame,
)
from repro.api.service import replay, solve
from repro.distributed.protocol import (
    decode_result,
    decode_task,
    describe_error,
    encode_result,
    encode_task,
)


def _double(x):
    return 2 * x


class TestFrames:
    def test_roundtrip(self):
        payload = {"type": "task", "task": 7, "nested": {"a": [1, 2]}}
        raw = encode_frame(payload)
        length = struct.unpack(">I", raw[:4])[0]
        assert length == len(raw) - 4
        assert decode_frame(raw[4:]) == payload

    def test_send_recv_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "one"})
            send_frame(a, {"type": "two", "n": 3})
            assert recv_frame(b) == {"type": "one"}
            assert recv_frame(b) == {"type": "two", "n": 3}
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            raw = encode_frame({"type": "task"})
            a.sendall(raw[: len(raw) - 2])  # truncated body
            a.close()
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversize_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

        with pytest.raises(FrameError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_non_object_body_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"[1, 2, 3]")
        with pytest.raises(FrameError):
            decode_frame(b"not json")

    def test_frame_error_is_wire_error(self):
        assert issubclass(FrameError, WireFormatError)

    def test_interleaved_senders_never_tear_frames(self):
        """Many threads writing framed messages through one lock-free
        sendall each — frames must come out whole (sendall is atomic
        per call for these sizes, the locks in the fabric guard the
        *composition*, asserted here as a regression canary)."""
        a, b = socket.socketpair()
        n_threads, n_each = 4, 25
        lock = threading.Lock()

        def pump(tag):
            for i in range(n_each):
                with lock:
                    send_frame(a, {"tag": tag, "i": i})

        threads = [
            threading.Thread(target=pump, args=(t,))
            for t in range(n_threads)
        ]
        try:
            for t in threads:
                t.start()
            seen = set()
            for _ in range(n_threads * n_each):
                msg = recv_frame(b)
                seen.add((msg["tag"], msg["i"]))
            assert len(seen) == n_threads * n_each
        finally:
            for t in threads:
                t.join()
            a.close()
            b.close()


class TestFrameMacs:
    """Per-frame HMAC trailers: every frame is individually
    authenticated when a secret is configured, not just the
    handshake."""

    SECRET = b"fleet-secret"

    def test_authenticated_roundtrip(self):
        payload = {"type": "task", "task": 7}
        raw = encode_frame(payload, secret=self.SECRET)
        plain = encode_frame(payload)
        assert len(raw) == len(plain) + MAC_BYTES  # trailer, in-prefix
        assert decode_frame(raw[4:], secret=self.SECRET) == payload

    def test_flipped_byte_anywhere_is_rejected(self):
        raw = encode_frame({"type": "task", "task": 7},
                           secret=self.SECRET)
        for index in (4, len(raw) // 2, len(raw) - 1):
            tampered = bytearray(raw)
            tampered[index] ^= 0x01
            with pytest.raises(FrameError, match="MAC"):
                decode_frame(bytes(tampered[4:]), secret=self.SECRET)

    def test_wrong_secret_is_rejected(self):
        raw = encode_frame({"type": "task"}, secret=self.SECRET)
        with pytest.raises(FrameError, match="MAC"):
            decode_frame(raw[4:], secret=b"other-secret")

    def test_unauthenticated_frame_rejected_by_verifier(self):
        raw = encode_frame({"type": "task"})
        with pytest.raises(FrameError):
            decode_frame(raw[4:], secret=self.SECRET)

    def test_short_frame_rejected_before_parsing(self):
        with pytest.raises(FrameError, match="shorter"):
            decode_frame(b"{}", secret=self.SECRET)

    def test_send_recv_over_socketpair_with_macs(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "one"}, secret=self.SECRET)
            send_frame(a, {"type": "two", "n": 3}, secret=self.SECRET)
            assert recv_frame(b, secret=self.SECRET) == {"type": "one"}
            assert recv_frame(b, secret=self.SECRET) == {
                "type": "two", "n": 3
            }
        finally:
            a.close()
            b.close()

    def test_recv_with_secret_refuses_plain_sender(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "one"})  # no MAC
            with pytest.raises(FrameError):
                recv_frame(b, secret=self.SECRET)
        finally:
            a.close()
            b.close()


class TestTaskCodec:
    def test_known_fn_travels_by_name(self):
        request = SolveRequest(
            spec=InstanceSpec(n_operators=10, seed=4), seed=4
        )
        payload = encode_task(solve, request)
        assert payload["codec"] == "wire"
        assert payload["fn"] == "solve-task"
        fn, item = decode_task(payload)
        assert fn is solve
        assert request_to_wire(item) == request_to_wire(request)

    def test_replay_task_known(self):
        from repro.api import ReplayRequest

        request = ReplayRequest(trace="multi-app", policy="static",
                                seed=5, n_results=10)
        payload = encode_task(replay, request)
        assert payload["codec"] == "wire"
        assert payload["fn"] == "replay-task"

    def test_unknown_fn_falls_back_to_pickle(self):
        payload = encode_task(_double, 21)
        assert payload["codec"] == "pickle"
        fn, item = decode_task(payload)
        assert fn(item) == 42

    def test_unwirable_item_falls_back_to_pickle(self):
        """A known fn whose item can't ride the wire codec (in-memory
        trace) still travels — via pickle."""
        from repro.api import ReplayRequest
        from repro.dynamic import make_trace

        request = ReplayRequest(
            trace=make_trace("multi-app", seed=5), policy="static"
        )
        payload = encode_task(replay, request)
        assert payload["codec"] == "pickle"
        fn, item = decode_task(payload)
        assert fn is replay
        assert item.policy == "static"

    def test_unknown_codec_rejected(self):
        with pytest.raises(FrameError):
            decode_task({"codec": "carrier-pigeon"})
        with pytest.raises(FrameError):
            decode_task({"codec": "wire", "fn": "no-such-task"})
        with pytest.raises(FrameError):
            decode_result({"codec": "carrier-pigeon"})


class TestResultCodec:
    def test_typed_roundtrip(self):
        request = SolveRequest(
            spec=InstanceSpec(n_operators=8, seed=2), seed=2
        )
        value = solve(request)
        out = decode_result(encode_result(value))
        assert out.ok == value.ok
        assert out.result.cost == value.result.cost
        assert out.seed == value.seed


class TestDescribeError:
    def test_fields(self):
        try:
            raise ValueError("boom")
        except ValueError as err:
            info = describe_error(err)
        assert info["type"] == "ValueError"
        assert info["message"] == "boom"
        assert "ValueError: boom" in info["traceback"]
