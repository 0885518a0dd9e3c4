"""Round-trip tests for the driver↔worker control protocol.

Every command in :data:`repro.runner.protocol.COMMANDS` and every
event in :data:`~repro.runner.protocol.EVENTS` must survive
``encode_frame``/``decode_frame`` byte-exactly — including payloads
carrying marked-null rows and non-ASCII values (rows cross the pipe
via :func:`repro.relational.values.encode_row`).
"""

import pytest

from repro.core.node import NodeConfig
from repro.core.rulefile import RuleFile
from repro.core.statistics import UpdateReport
from repro.errors import ProtocolError
from repro.relational.values import MarkedNull, decode_row, encode_row
from repro.runner import protocol

TOTALS = {"messages_sent": 3, "bytes_sent": 512, "messages_delivered": 2}

#: Representative arguments for every control command.  Rows include
#: a marked null and non-ASCII text; identifiers carry the real id
#: shapes.
ROWS = [
    encode_row((1, "Trento⟪è⟫")),
    encode_row((MarkedNull("N0@TN"), "Bolzano/Bozen — Südtirol")),
]
COMMAND_ARGUMENTS = {
    "configure": {
        "name": "TN",
        "schema": "person(name: str, city: str)\nresident(name!)",
        "config": {"subsumption_dedup": True, "max_active_sessions": 2},
        "store": "sqlite",
        "seed": 7,
    },
    "connect": {"peers": {"BZ": 40001, "TN": 40002, "München": 40003}},
    "load_facts": {"facts": {"person": ROWS}},
    "set_rules": {
        "rules": RuleFile.from_text(
            "TN:resident(n) <- BZ:person(n, c), c = 'Trento'"
        ).to_payload()
    },
    "insert": {"relation": "person", "row": ROWS[1]},
    "submit_update": {},
    "submit_query": {"query": "q(n) <- person(n, c)", "cache": False},
    "cancel": {"kind": "update", "request_id": "update-ab12cd-0003"},
    "session_status": {"request_id": "update-ab12cd-0003", "kind": "update"},
    "query_answer": {"request_id": "query-ab12cd-0001"},
    "query_local": {"query": "q(n) <- person(n, c)"},
    "report": {"request_id": "update-ab12cd-0003"},
    "snapshot": {},
    "lifetime_totals": {},
    "transport_stats": {},
    "peer_down": {"peer": "BZ"},
    "install_faults": {
        "spec": {
            "seed": 7,
            "models": [{"model": "loss", "probability": 0.2, "retries": 2}],
        }
    },
    "checkpoint": {},
    "rejoin": {},
    "ping": {},
    "shutdown": {},
}

EVENT_DETAILS = {
    "request_complete": {
        "kind": "update",
        "request_id": "update-ab12cd-0003",
        "node": "TN",
    },
    "fatal": {"error": "KeyError: 'naïveté'"},
}


class TestCommandRoundTrips:
    def test_every_command_has_representative_arguments(self):
        assert set(COMMAND_ARGUMENTS) == set(protocol.COMMANDS)

    @pytest.mark.parametrize("op", protocol.COMMANDS)
    def test_round_trip(self, op):
        frame = protocol.command(op, 17, **COMMAND_ARGUMENTS[op])
        decoded = protocol.decode_frame(protocol.encode_frame(frame))
        assert decoded == frame
        assert decoded["op"] == op
        assert decoded["cmd_id"] == 17

    def test_unknown_command_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.command("explode", 1)

    def test_rows_survive_with_nulls_and_unicode(self):
        frame = protocol.command(
            "load_facts", 1, facts={"person": ROWS}
        )
        decoded = protocol.decode_frame(protocol.encode_frame(frame))
        rows = [decode_row(row) for row in decoded["facts"]["person"]]
        assert rows[0] == (1, "Trento⟪è⟫")
        null, city = rows[1]
        assert isinstance(null, MarkedNull)
        assert null == MarkedNull("N0@TN")
        assert city == "Bolzano/Bozen — Südtirol"


class TestReplyAndEventRoundTrips:
    def test_reply_round_trip(self):
        frame = protocol.reply(9, TOTALS, request_id="update-ab12cd-0003")
        decoded = protocol.decode_frame(protocol.encode_frame(frame))
        assert decoded == frame
        assert decoded["totals"] == TOTALS

    def test_error_reply_round_trip(self):
        frame = protocol.error_reply(9, TOTALS, ProtocolError("naïve ‰ bad"))
        decoded = protocol.decode_frame(protocol.encode_frame(frame))
        assert decoded["op"] == "error"
        assert decoded["error"] == "naïve ‰ bad"
        assert decoded["error_kind"] == "ProtocolError"

    @pytest.mark.parametrize("name", protocol.EVENTS)
    def test_event_round_trip(self, name):
        frame = protocol.event(name, TOTALS, **EVENT_DETAILS[name])
        decoded = protocol.decode_frame(protocol.encode_frame(frame))
        assert decoded == frame

    def test_unknown_event_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.event("surprise", TOTALS)

    def test_report_payload_round_trip(self):
        report = UpdateReport(
            update_id="update-ab12cd-0003", node="TN", origin="BZ",
            started_at=1.5, finished_at=2.25, status="closed",
            rows_imported=4, nulls_minted=1, longest_path=3,
        )
        report.rule_traffic("r0").record(volume=128, rows=7, new_rows=4)
        frame = protocol.reply(3, TOTALS, report=report.to_payload())
        decoded = protocol.decode_frame(protocol.encode_frame(frame))
        rebuilt = UpdateReport.from_payload(decoded["report"])
        assert rebuilt == report


class TestMalformedFrames:
    def test_not_json(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"\x00\xffnot json")

    def test_missing_op(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b'{"cmd_id": 1}')

    def test_config_round_trips_through_nodeconfig(self):
        from dataclasses import asdict

        config = NodeConfig(subsumption_dedup=True, max_active_sessions=3)
        frame = protocol.command("configure", 1, name="X", schema="r(a)",
                                 config=asdict(config), store="memory", seed=0)
        decoded = protocol.decode_frame(protocol.encode_frame(frame))
        assert NodeConfig(**decoded["config"]) == config
