"""Message vocabulary and task/result codecs for the task-queue fabric.

Everything between a :class:`~repro.distributed.Coordinator` and its
workers travels as length-prefixed JSON frames
(:func:`repro.api.wire.send_frame` / :func:`~repro.api.wire.recv_frame`)
whose ``"type"`` field is one of the ``MSG_*`` constants below.

Task payloads use one of two codecs:

* ``"wire"`` — for the known service task functions
  (:func:`repro.api.service.solve`,
  :func:`~repro.api.service.replay`,
  :func:`repro.service.broker.execute_request`) applied to typed
  requests, the item rides the human-readable
  :mod:`repro.api.wire` format and the function travels *by name* —
  the worker re-resolves it, exactly like strategies travel by
  registry name into process-pool workers;
* ``"pickle"`` — any other ``(fn, item)`` pair (sweep grid cells,
  replay requests carrying in-memory traces, test fixtures) rides a
  base64-wrapped pickle, preserving the :class:`~repro.api.Executor`
  protocol's "any module-level function" generality.

Results always ride the pickle codec: the bit-identical guarantee is
asserted on the full typed result objects, not on a lossy JSON view.

Trust boundary: like :class:`~repro.api.executors.ParallelExecutor`
(whose pool workers unpickle whatever the parent sends), the fabric
assumes coordinator and workers trust each other — run it on a
private network, not the open internet.  A shared secret
(``Coordinator(secret=...)`` / ``repro worker --secret``, or the
``REPRO_SECRET`` environment variable) adds a mutual HMAC-SHA256
handshake on top: the coordinator challenges each registering worker
and refuses the connection on a bad or missing MAC *before* any task
frame — and therefore before any pickle payload — is exchanged, and
the worker likewise verifies the coordinator's counter-MAC before it
will execute anything.  The secret authenticates the peer; it does
not encrypt the stream — pair it with a private network or tunnel.
"""

from __future__ import annotations

import base64
import hashlib
import hmac as _hmac
import pickle
import traceback as _traceback
from typing import Any, Callable

from ..api.wire import FrameError, WireFormatError, request_to_wire

__all__ = [
    "MSG_AUTH",
    "MSG_CHALLENGE",
    "MSG_DRAIN",
    "MSG_GOODBYE",
    "MSG_HEARTBEAT",
    "MSG_REGISTER",
    "MSG_RESULT",
    "MSG_SHUTDOWN",
    "MSG_TASK",
    "MSG_TASK_ERROR",
    "MSG_WELCOME",
    "PROTOCOL_VERSION",
    "auth_mac",
    "decode_result",
    "decode_task",
    "describe_error",
    "encode_result",
    "encode_task",
    "macs_equal",
]

PROTOCOL_VERSION = 1

# worker → coordinator
MSG_REGISTER = "register"      # {"worker", "pid", "window", "protocol",
                               #  "nonce" when a secret is configured}
MSG_AUTH = "auth"              # {"mac": HMAC(secret, worker‖nonces)}
MSG_HEARTBEAT = "heartbeat"    # liveness (any frame refreshes it too)
MSG_RESULT = "result"          # {"task": id, "payload": <result codec>}
MSG_TASK_ERROR = "task-error"  # {"task": id, "error": describe_error()}
MSG_GOODBYE = "goodbye"        # drained; deregister me
# coordinator → worker
MSG_CHALLENGE = "challenge"    # {"nonce"} — sent only with a secret
MSG_WELCOME = "welcome"        # {"worker", "heartbeat_s",
                               #  "mac" when a secret is configured}
MSG_TASK = "task"              # {"task": id, "payload": <task codec>}
MSG_SHUTDOWN = "shutdown"      # stop now (coordinator is closing)
# both directions
MSG_DRAIN = "drain"            # worker→coord: stop assigning to me;
                               # coord→worker: no more tasks follow —
                               # finish what you have and say goodbye


def auth_mac(secret: str, *parts: str) -> str:
    """HMAC-SHA256 over NUL-joined ``parts``, hex-encoded.

    Both handshake directions use it with a role tag as the first
    part (``"worker"`` / ``"coordinator"``) followed by the two
    nonces, so a transcript replayed in the other direction — or
    against a different session's nonces — never verifies.
    """
    message = b"\x00".join(p.encode("utf8") for p in parts)
    return _hmac.new(
        secret.encode("utf8"), message, hashlib.sha256
    ).hexdigest()


def macs_equal(provided: "str | None", expected: str) -> bool:
    """Constant-time MAC comparison tolerant of absent/odd inputs."""
    return _hmac.compare_digest(str(provided or ""), expected)


def _wire_task_fns() -> dict[str, Callable]:
    """The task functions allowed to travel by name (resolved lazily —
    importing them at module import time would cycle through
    :mod:`repro.api.service`)."""
    from ..api.service import replay, solve
    from ..service.broker import execute_request

    return {
        "solve-task": solve,
        "replay-task": replay,
        "execute-request": execute_request,
    }


def encode_task(fn: Callable, item: Any) -> dict:
    """Encode one ``fn(item)`` application as a JSON-able payload."""
    for name, known in _wire_task_fns().items():
        if fn is known:
            try:
                return {
                    "codec": "wire",
                    "fn": name,
                    "request": request_to_wire(item),
                }
            except WireFormatError:
                break  # e.g. an in-memory WorkloadTrace → pickle
    blob = pickle.dumps((fn, item), protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "codec": "pickle",
        "blob": base64.b64encode(blob).decode("ascii"),
    }


def decode_task(payload: dict) -> tuple[Callable, Any]:
    """Rebuild ``(fn, item)`` from a task payload (worker side)."""
    codec = payload.get("codec")
    if codec == "wire":
        from ..api.wire import request_from_wire

        fns = _wire_task_fns()
        name = payload.get("fn")
        if name not in fns:
            raise FrameError(f"unknown wire task function {name!r}")
        return fns[name], request_from_wire(payload["request"])
    if codec == "pickle":
        fn, item = pickle.loads(base64.b64decode(payload["blob"]))
        return fn, item
    raise FrameError(f"unknown task codec {codec!r}")


def encode_result(value: Any) -> dict:
    """Encode a task's return value for the trip back."""
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "codec": "pickle",
        "blob": base64.b64encode(blob).decode("ascii"),
    }


def decode_result(payload: dict) -> Any:
    if payload.get("codec") != "pickle":
        raise FrameError(
            f"unknown result codec {payload.get('codec')!r}"
        )
    return pickle.loads(base64.b64decode(payload["blob"]))


def describe_error(err: BaseException) -> dict:
    """A worker-side exception as JSON-able data (for MSG_TASK_ERROR)."""
    return {
        "type": type(err).__name__,
        "message": str(err),
        "traceback": "".join(
            _traceback.format_exception(type(err), err, err.__traceback__)
        ),
    }
