"""The profile-feedback wire protocol: length-prefixed, versioned JSON.

Every message — request or response — is one *frame*: a 4-byte big-endian
unsigned length followed by that many bytes of UTF-8 JSON.  Requests carry
``{"v": PROTOCOL_VERSION, "op": <operation>, ...}``; responses carry
``{"v": ..., "ok": true/false, ...}`` with an ``error`` message when
``ok`` is false.  JSON is always encoded canonically (sorted keys, compact
separators), so two semantically equal payloads are byte-equal on the wire
— the property the server/offline differential gate leans on.

Operations:

``upload``
    ``{"program", "dataset", "profile"}`` — accumulate one run's branch
    counters (a ``BranchProfile`` dict) into the aggregator.
``predict``
    ``{"program", "mode", "exclude"}`` — serve the combined summary
    profile over the program's datasets (leave-one-out when ``exclude``
    names a dataset, all datasets when null), byte-identical to the
    offline ``database_predict`` over the same profiles.
``stats``
    aggregator contents plus service metrics.
``health``
    liveness, current epoch, in-flight depth.
"""
from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

from repro.profiling.branch_profile import BranchProfile

#: Bump on any incompatible change to framing or payload layout.
PROTOCOL_VERSION = 1

#: Operations the server understands.
OPS = ("upload", "predict", "stats", "health")

#: Hard ceiling on one frame's body; a header claiming more is rejected
#: before any allocation, so a corrupt or hostile peer cannot balloon
#: server memory.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed, truncated, oversized, or version-skewed message."""


def canonical_json(payload: Dict[str, Any]) -> bytes:
    """Canonical (sorted, compact) JSON encoding of a payload."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame: length header plus canonical JSON body."""
    body = canonical_json(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse a frame body; the payload must be a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def check_version(payload: Dict[str, Any]) -> None:
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer sent {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )


def _claimed_length(header: bytes) -> int:
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header claims {length} bytes, cap is {MAX_FRAME_BYTES}"
        )
    return length


# -- message constructors ------------------------------------------------------


def request(op: str, **fields: Any) -> Dict[str, Any]:
    if op not in OPS:
        raise ProtocolError(f"unknown operation {op!r}; use one of {OPS}")
    payload = {"v": PROTOCOL_VERSION, "op": op}
    payload.update(fields)
    return payload


def ok_response(**fields: Any) -> Dict[str, Any]:
    payload = {"v": PROTOCOL_VERSION, "ok": True}
    payload.update(fields)
    return payload


def error_response(message: str) -> Dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "ok": False, "error": message}


# -- profile marshalling -------------------------------------------------------


def profile_to_wire(profile: BranchProfile) -> Dict[str, Any]:
    return profile.to_dict()


def profile_from_wire(data: Dict[str, Any]) -> BranchProfile:
    try:
        return BranchProfile.from_dict(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed profile payload: {exc}") from None


def canonical_profile_bytes(profile: BranchProfile) -> bytes:
    """The bytes the differential gate compares: a profile's canonical
    JSON form.  Server-side and offline combining must agree on these
    exactly — not approximately — for every mode."""
    return canonical_json(profile.to_dict())


# -- framing -------------------------------------------------------------------


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """``count`` bytes, or fewer only when the peer closed first."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF before a header starts.

    EOF mid-header or mid-body raises ``ProtocolError`` — the peer
    vanished inside a message.
    """
    header = _recv_exact(sock, _HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ProtocolError(
            f"connection closed mid-header ({len(header)} of "
            f"{_HEADER.size} bytes)"
        )
    length = _claimed_length(header)
    body = _recv_exact(sock, length)
    if len(body) < length:
        raise ProtocolError(
            f"connection closed mid-frame ({len(body)} of {length} bytes)"
        )
    return decode_body(body)


def write_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(payload))
