"""The RPC contract rules, held by the op table: a table whose codes the
8-bit op field cannot tell apart is refused when it is built, a row needs
a server method to answer it and a client method that sends it, and an
op outside the table is refused by the encoder and the decoder."""

from __future__ import annotations

import pytest

from repro.runtime import LocalCluster, Message
from repro.runtime.protocol import (
    BIN_OPS,
    OP_PING,
    Op,
    ProtocolError,
    encode_binary_request,
    op_table,
    parse_frame,
)
from repro.runtime.server import handlers_for


@pytest.fixture(scope="module")
def sent(tmp_path_factory) -> dict:
    """Op → whether each reply was OK, for one call of every client method
    against a one-server cluster."""
    with LocalCluster(n_servers=1, workdir=tmp_path_factory.mktemp("sweep")) as cluster:
        path, fresh = cluster.populate(n_files=2, file_bytes=256)
        server = cluster.servers[0]
        replies: dict = {}
        dispatch = server._dispatch

        def _record(msg, span, installs):
            reply = dispatch(msg, span, installs)
            replies.setdefault(msg.op, []).append(reply.ok)
            return reply

        server._dispatch = _record
        client = cluster.client()
        client.read(path)
        client.write(fresh, b"new bytes")
        client.transfer(0, [("/moved.bin", b"moved")])
        client.ping(0)
        client.server_stat(0)
        client.obs_snapshot(0, spans_limit=1, events_limit=1)
        client.join_plan(0, planned_keys=2, planned_bytes=512, epoch=1)
    return {op: all(oks) for op, oks in replies.items()}


def _with(*extra: Op) -> tuple:
    return (*BIN_OPS.values(), *extra)


class TestConformingPairIsClean:
    def test_baseline_pair_clean(self, sent):
        # every row is sent by a client method and answered OK by its handler
        assert sent == dict.fromkeys(BIN_OPS, True)


class TestRPC001SentNeverHandled:
    def test_client_only_op_flagged(self):
        with pytest.raises(ProtocolError, match="not in the op table"):
            encode_binary_request(Message.request("PURGE"))
        frame = bytearray(encode_binary_request(Message.request(OP_PING)))
        frame[4] = max(op.code for op in BIN_OPS.values()) + 1  # the op byte
        with pytest.raises(ProtocolError, match="unknown op code"):
            parse_frame(frame, requests_only=True)


class TestRPC002HandledNeverSent:
    def test_server_only_branch_flagged(self, sent):
        # a row the server can answer (it names an existing method) but no
        # client method sends is what the sweep leaves over
        table = op_table(*_with(Op("PURGE", 8, "_ping")))
        assert set(handlers_for(table)) == set(table)
        assert set(table) - set(sent) == {"PURGE"}


class TestBinaryOpTable:
    def test_clean_table_baseline(self):
        assert op_table(*BIN_OPS.values()) == BIN_OPS
        assert set(handlers_for(BIN_OPS)) == set(BIN_OPS)

    def test_table_entry_without_handler_or_sender(self, sent):
        table = op_table(*_with(Op("PURGE", 8, "_purge")))  # its code is legal
        with pytest.raises(AttributeError, match="_purge"):
            handlers_for(table)
        assert "PURGE" not in sent

    def test_duplicate_wire_code_flagged(self):
        with pytest.raises(ValueError, match="cannot tell the two ops apart"):
            op_table(*_with(Op("PURGE", BIN_OPS[OP_PING].code, "_ping")))

    def test_non_integer_wire_code_flagged(self):
        with pytest.raises(ValueError, match="non-integer wire code"):
            op_table(*_with(Op("PURGE", "8", "_ping")))

    def test_out_of_range_wire_code_flagged(self):
        for code in (0, 256, 300):
            with pytest.raises(ValueError, match="8-bit op field"):
                op_table(*_with(Op("PURGE", code, "_ping")))
