"""The driver↔worker control protocol of the process-per-node runner.

One frame = one control object, sent over a ``multiprocessing`` pipe
with ``send_bytes``/``recv_bytes``.  Frames are self-describing, in
either of the two codecs the p2p wire speaks
(:mod:`repro.p2p.messages`): stable JSON (the default) or the binary
restricted-pickle codec (first byte :data:`~repro.p2p.messages.
FRAME_BINARY`).  No negotiation is needed on the pipe — the driver
spawned the worker from the same package, so both ends decode both
codecs; the driver simply encodes with its configured codec and the
worker answers in the codec of the last command it received.  Three
frame shapes flow:

* **commands** (driver → worker): ``{"op": <command>, "cmd_id": n,
  ...arguments}`` — see :data:`COMMANDS` for the vocabulary.
* **replies** (worker → driver): ``{"op": "reply", "cmd_id": n,
  ...result}`` answering exactly one command, or ``{"op": "error",
  "cmd_id": n, "error": str, "error_kind": str}`` when the command
  raised.
* **events** (worker → driver, unsolicited): ``{"op": "event",
  "event": str, ...}`` — session completions
  (``request_complete``) and worker-fatal notices pushed by the
  worker's delivery threads.

Every worker → driver frame carries a ``totals`` member with the
worker's current transport counters, so the driver's aggregate
traffic window is refreshed by the very frames that move it forward.

Rows cross the channel pre-encoded via
:func:`repro.relational.values.encode_row` (marked nulls and all
value types survive the JSON round trip); rules travel as
:meth:`repro.core.rulefile.RuleFile.to_payload`, reports as
:meth:`repro.core.statistics.UpdateReport.to_payload`.
"""

from __future__ import annotations

import json
from typing import Any

from repro._util import stable_json
from repro.errors import ProtocolError
from repro.p2p.messages import FRAME_BINARY, decode_binary, encode_binary

#: Driver → worker command vocabulary.  ``configure`` must be first
#: (it builds the node); ``connect`` wires the exchanged ports;
#: everything else may arrive in any order; ``shutdown`` is last.
COMMANDS = (
    "configure",        # build transport + node: name/schema/config/store
    "connect",          # install {peer: port} for every sibling worker
    "load_facts",       # bulk-load {relation: [encoded rows]}
    "set_rules",        # install a rule-file payload (node filters relevance)
    "insert",           # one local row
    "submit_update",    # submit a global update; returns its id
    "submit_query",     # submit a network query; returns its id
    "cancel",           # withdraw a queued request by id
    "session_status",   # {done, participated} for one request id
    "query_answer",     # answer rows of a completed query
    "query_local",      # answer a query from local data only
    "report",           # the node's UpdateReport payload for one update
    "snapshot",         # {relation: [encoded rows]} of the whole store
    "lifetime_totals",  # NodeStatistics.lifetime_totals()
    "transport_stats",  # the worker transport's traffic counters
    "peer_down",        # a sibling worker died: close links toward it
    "install_faults",   # install a FaultInjector spec on the transport
    "checkpoint",       # write a durable snapshot to the snapshot path
    "rejoin",           # restore from snapshot + run the rejoin handshake
    "ping",             # liveness probe
    "shutdown",         # stop the transport and exit the process
)

#: Worker → driver unsolicited event names.
EVENTS = (
    "request_complete",  # a session finished at this worker's node
    "fatal",             # a delivery thread raised; worker is suspect
)


def encode_frame(frame: dict[str, Any], codec: str = "json") -> bytes:
    """Serialise one control frame in *codec* (``"json"``/``"binary"``)."""
    if codec == "binary":
        return encode_binary(frame)
    return stable_json(frame).encode("utf-8")


def decode_frame(data: bytes) -> dict[str, Any]:
    """Parse one self-describing control frame (either codec); raises
    ProtocolError on malformed input."""
    if data[:1] == FRAME_BINARY:
        frame = decode_binary(data)
    else:
        try:
            frame = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"malformed control frame: {exc}") from exc
    if not isinstance(frame, dict) or "op" not in frame:
        raise ProtocolError(f"control frame without op: {frame!r}")
    return frame


def command(op: str, cmd_id: int, **arguments: Any) -> dict[str, Any]:
    """Build a driver → worker command frame."""
    if op not in COMMANDS:
        raise ProtocolError(f"unknown control command {op!r}")
    frame = {"op": op, "cmd_id": cmd_id}
    frame.update(arguments)
    return frame


def reply(cmd_id: int, totals: dict[str, int], **result: Any) -> dict[str, Any]:
    """Build a worker → driver success reply."""
    frame: dict[str, Any] = {"op": "reply", "cmd_id": cmd_id, "totals": totals}
    frame.update(result)
    return frame


def error_reply(
    cmd_id: int, totals: dict[str, int], exc: BaseException
) -> dict[str, Any]:
    """Build a worker → driver error reply for a failed command."""
    return {
        "op": "error",
        "cmd_id": cmd_id,
        "totals": totals,
        "error": str(exc),
        "error_kind": type(exc).__name__,
    }


def event(name: str, totals: dict[str, int], **details: Any) -> dict[str, Any]:
    """Build a worker → driver unsolicited event frame."""
    if name not in EVENTS:
        raise ProtocolError(f"unknown control event {name!r}")
    frame: dict[str, Any] = {"op": "event", "event": name, "totals": totals}
    frame.update(details)
    return frame
