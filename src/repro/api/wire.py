"""JSON wire format for the typed requests — the service boundary's
serialization layer.

:func:`request_to_wire` / :func:`request_from_wire` convert
:class:`~repro.api.requests.SolveRequest`,
:class:`~repro.api.requests.ReplayRequest`, and
:class:`~repro.api.requests.SweepRequest` to and from plain JSON-able
dicts, tagged with a ``"kind"`` discriminator.  The HTTP front door
(:mod:`repro.service.http`) and the ``repro submit`` CLI both speak
exactly this format, and the round-trip is lossless:
``request_from_wire(request_to_wire(r)) == r`` (asserted
property-style in ``tests/api/test_wire.py``).

Malformed payloads fail fast with :class:`WireFormatError` — unknown
fields are *rejected*, with a difflib close-match suggestion in the
same spirit as the strategy registry's error messages, so a typo'd
quota or flag never silently becomes a default::

    unknown field 'portfolo' for solve request; did you mean
    'portfolio'? (valid fields: downgrade, instance, ...)

Allowed field sets are derived from the request dataclasses at call
time, so a field added to a request is automatically legal on the
wire (encode support must still be added here — the round-trip tests
catch the mismatch).

Notes on non-scalar fields:

* ``SolveRequest.instance`` travels via
  :func:`repro.io.instance_to_dict` (full problem instance);
  ``SolveRequest.spec`` travels as its dataclass dict — prefer specs
  on the wire, they are tiny;
* ``ReplayRequest.trace`` must be a trace *family name* on the wire
  (an in-memory :class:`~repro.dynamic.traces.WorkloadTrace` object is
  not portable; the (family, seed) pair regenerates it exactly);
* ``SweepRequest.configs`` travels as a list of ``{"x": .., "config":
  {..}}`` pairs (JSON objects cannot have float keys).
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any, Mapping

from ..methodology import ExperimentConfig
from .requests import InstanceSpec, ReplayRequest, SolveRequest, SweepRequest

__all__ = [
    "FrameError",
    "MAC_BYTES",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "WireFormatError",
    "decode_frame",
    "encode_frame",
    "recv_frame",
    "request_from_wire",
    "request_to_wire",
    "send_frame",
]

#: Bumped on incompatible wire changes; servers reject newer payloads.
WIRE_VERSION = 1

_KINDS = ("solve", "replay", "sweep")


class WireFormatError(ValueError):
    """A wire payload could not be decoded into a request."""


def _reject_unknown(
    data: Mapping[str, Any], allowed: tuple[str, ...], what: str
) -> None:
    from ..errors import did_you_mean

    for key in data:
        if key in allowed:
            continue
        raise WireFormatError(
            f"unknown field {key!r} for {what}{did_you_mean(key, allowed)}"
            f" (valid fields: {', '.join(sorted(allowed))})"
        )


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _require_mapping(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise WireFormatError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    return data


def _decode_dataclass(cls, data: Any, what: str):
    """Build a flat dataclass (InstanceSpec, ExperimentConfig) from a
    wire dict with unknown-field rejection; list-valued fields whose
    dataclass default is a tuple are converted back."""
    data = _require_mapping(data, what)
    allowed = _field_names(cls)
    _reject_unknown(data, allowed, what)
    kwargs = {
        k: tuple(v) if isinstance(v, list) else v for k, v in data.items()
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise WireFormatError(f"bad {what}: {err}") from err


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def solve_request_to_wire(request: SolveRequest) -> dict:
    from ..io import instance_to_dict

    return {
        "kind": "solve",
        "version": WIRE_VERSION,
        "instance": (
            None if request.instance is None
            else instance_to_dict(request.instance)
        ),
        "spec": (
            None if request.spec is None
            else dataclasses.asdict(request.spec)
        ),
        "strategy": request.strategy,
        "portfolio": (
            None if request.portfolio is None else list(request.portfolio)
        ),
        "server": request.server,
        "downgrade": request.downgrade,
        "refine": request.refine,
        "seed": request.seed,
        "time_budget_s": request.time_budget_s,
        "label": request.label,
        "bid": request.bid,
        "trace_id": request.trace_id,
    }


def solve_request_from_wire(data: Mapping[str, Any]) -> SolveRequest:
    from ..io import instance_from_dict

    body = _strip_envelope(data, "solve request")
    _reject_unknown(body, _field_names(SolveRequest), "solve request")
    kwargs = dict(body)
    if kwargs.get("instance") is not None:
        try:
            kwargs["instance"] = instance_from_dict(kwargs["instance"])
        except Exception as err:
            raise WireFormatError(
                f"bad solve request instance: {err}"
            ) from err
    if kwargs.get("spec") is not None:
        kwargs["spec"] = _decode_dataclass(
            InstanceSpec, kwargs["spec"], "solve request spec"
        )
    if kwargs.get("portfolio") is not None:
        kwargs["portfolio"] = tuple(kwargs["portfolio"])
    return _build(SolveRequest, kwargs, "solve request")


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

def replay_request_to_wire(request: ReplayRequest) -> dict:
    if not isinstance(request.trace, str):
        raise WireFormatError(
            "only trace family names travel on the wire; build the"
            " ReplayRequest with trace=<name>, seed=<seed> (the pair"
            " regenerates the trace exactly) instead of an in-memory"
            " WorkloadTrace"
        )
    wire: dict = {"kind": "replay", "version": WIRE_VERSION}
    wire.update(dataclasses.asdict(request))
    return wire


def replay_request_from_wire(data: Mapping[str, Any]) -> ReplayRequest:
    body = _strip_envelope(data, "replay request")
    _reject_unknown(body, _field_names(ReplayRequest), "replay request")
    if not isinstance(body.get("trace", "ramp"), str):
        raise WireFormatError(
            "replay request 'trace' must be a trace family name"
        )
    return _build(ReplayRequest, dict(body), "replay request")


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def sweep_request_to_wire(request: SweepRequest) -> dict:
    return {
        "kind": "sweep",
        "version": WIRE_VERSION,
        "name": request.name,
        "parameter": request.parameter,
        "x_values": list(request.x_values),
        "heuristics": list(request.heuristics),
        "configs": [
            {"x": x, "config": dataclasses.asdict(request.configs[x])}
            for x in request.x_values
        ],
    }


def sweep_request_from_wire(data: Mapping[str, Any]) -> SweepRequest:
    body = _strip_envelope(data, "sweep request")
    _reject_unknown(body, _field_names(SweepRequest), "sweep request")
    configs: dict[float, ExperimentConfig] = {}
    for pair in body.get("configs", ()):
        pair = _require_mapping(pair, "sweep request config entry")
        _reject_unknown(
            pair, ("x", "config"), "sweep request config entry"
        )
        if "x" not in pair or "config" not in pair:
            raise WireFormatError(
                "sweep request config entries need both 'x' and 'config'"
            )
        try:
            x = float(pair["x"])
        except (TypeError, ValueError) as err:
            raise WireFormatError(f"bad sweep request point: {err}") from err
        configs[x] = _decode_dataclass(
            ExperimentConfig, pair["config"], "sweep request config"
        )
    kwargs = dict(body)
    kwargs["configs"] = configs
    return _build(SweepRequest, kwargs, "sweep request")


# ----------------------------------------------------------------------
# tagged dispatch
# ----------------------------------------------------------------------

_TO_WIRE = {
    SolveRequest: solve_request_to_wire,
    ReplayRequest: replay_request_to_wire,
    SweepRequest: sweep_request_to_wire,
}
_FROM_WIRE = {
    "solve": solve_request_from_wire,
    "replay": replay_request_from_wire,
    "sweep": sweep_request_from_wire,
}


def request_to_wire(
    request: "SolveRequest | ReplayRequest | SweepRequest",
) -> dict:
    """Encode any typed request as a ``kind``-tagged JSON-able dict."""
    encoder = _TO_WIRE.get(type(request))
    if encoder is None:
        raise WireFormatError(
            f"cannot encode {type(request).__name__} on the wire"
            f" (expected one of: SolveRequest, ReplayRequest,"
            f" SweepRequest)"
        )
    return encoder(request)


def request_from_wire(
    data: Mapping[str, Any],
) -> "SolveRequest | ReplayRequest | SweepRequest":
    """Decode a ``kind``-tagged wire dict back into a typed request."""
    data = _require_mapping(data, "wire payload")
    kind = data.get("kind")
    if kind is None:
        raise WireFormatError(
            f"wire payload needs a 'kind' field"
            f" (one of: {', '.join(_KINDS)})"
        )
    decoder = _FROM_WIRE.get(kind)
    if decoder is None:
        from ..errors import did_you_mean

        raise WireFormatError(
            f"unknown request kind {kind!r}{did_you_mean(str(kind), _KINDS)}"
            f" (valid kinds: {', '.join(_KINDS)})"
        )
    return decoder(data)


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def _strip_envelope(data: Mapping[str, Any], what: str) -> dict:
    """Drop the envelope fields, checking the version is supported."""
    data = _require_mapping(data, what)
    body = dict(data)
    body.pop("kind", None)
    version = body.pop("version", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version!r} for {what}"
            f" (this build speaks version {WIRE_VERSION})"
        )
    return body


def _build(cls, kwargs: dict, what: str):
    """Construct the request, folding constructor validation errors
    (bad strategy names, exclusive-field violations) into
    :class:`WireFormatError` so the HTTP layer maps them to 400s."""
    try:
        return cls(**kwargs)
    except WireFormatError:
        raise
    except (TypeError, ValueError, KeyError) as err:
        raise WireFormatError(f"bad {what}: {err}") from err


# ----------------------------------------------------------------------
# length-prefixed JSON frames (the distributed subsystem's transport)
# ----------------------------------------------------------------------

#: Largest accepted frame body.  Problem instances are ~100 KB on the
#: wire; this bound refuses absurdity (and garbage length prefixes from
#: a non-protocol peer), it is not capacity planning.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")  # 4-byte big-endian unsigned length


#: Size of the HMAC-SHA256 trailer appended to authenticated frames.
MAC_BYTES = 32


class FrameError(WireFormatError):
    """A TCP frame could not be read or decoded: mid-frame EOF, an
    oversized or garbage length prefix, a non-JSON body, or a missing
    or wrong message authentication code."""


def _frame_mac(secret: bytes, body: bytes) -> bytes:
    import hashlib
    import hmac

    return hmac.new(secret, body, hashlib.sha256).digest()


def encode_frame(
    payload: Mapping[str, Any], *, secret: bytes | None = None
) -> bytes:
    """Serialise one message as ``<4-byte length><JSON utf-8 body>``.

    With *secret*, a 32-byte raw HMAC-SHA256 of the body is appended
    inside the length prefix — every frame is then individually
    authenticated, not just the handshake.
    """
    body = json.dumps(payload, sort_keys=True).encode("utf8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte limit"
        )
    if secret is not None:
        body += _frame_mac(secret, body)
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes, *, secret: bytes | None = None) -> dict:
    """Decode one frame *body* (the length prefix already stripped).

    With *secret*, the trailing 32-byte MAC is verified in constant
    time before the JSON is even parsed; a short, tampered, or
    wrong-key frame raises :class:`FrameError`.
    """
    if secret is not None:
        import hmac

        if len(body) < MAC_BYTES:
            raise FrameError(
                f"authenticated frame of {len(body)} bytes is shorter"
                f" than the {MAC_BYTES}-byte MAC trailer"
            )
        body, mac = body[:-MAC_BYTES], body[-MAC_BYTES:]
        if not hmac.compare_digest(mac, _frame_mac(secret, body)):
            raise FrameError(
                "frame MAC verification failed (tampered frame or"
                " mismatched --secret)"
            )
    try:
        payload = json.loads(body.decode("utf8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FrameError(f"frame body is not JSON: {err}") from err
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame body must be a JSON object,"
            f" got {type(payload).__name__}"
        )
    return payload


def send_frame(
    sock, payload: Mapping[str, Any], *, secret: bytes | None = None
) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(payload, secret=secret))


def _recv_exact(sock, n: int, *, at_boundary: bool) -> bytes | None:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if at_boundary and remaining == n:
                return None  # clean EOF between frames
            raise FrameError(
                f"connection closed mid-frame"
                f" ({n - remaining} of {n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock, *, secret: bytes | None = None) -> dict | None:
    """Read one frame from a blocking socket.

    Returns ``None`` on a clean EOF at a frame boundary (the peer hung
    up between messages); raises :class:`FrameError` on mid-frame EOF,
    an oversized length, a non-JSON body, or (with *secret*) a failed
    MAC check.
    """
    header = _recv_exact(sock, _LENGTH.size, at_boundary=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds the"
            f" {MAX_FRAME_BYTES}-byte limit (is the peer speaking the"
            f" frame protocol?)"
        )
    body = _recv_exact(sock, length, at_boundary=False) if length else b""
    return decode_frame(body, secret=secret)
