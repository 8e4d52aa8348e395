"""The op table holds the wire contract: every row is sent by a client
method and answered by a server method, and the encoder refuses a
message whose fields are not its row's."""

import pytest

from repro.runtime import FTCacheServer, LocalCluster, Message
from repro.runtime.protocol import (
    BIN_OPS,
    OP_JOIN_PLAN,
    OP_OBS,
    OP_PING,
    OP_READ,
    OP_STAT,
    ProtocolError,
    encode_binary_request,
    encode_binary_response_header,
    parse_frame,
)


def _reply(op) -> dict:
    """An OK reply's row fields, zeroed (none for STAT's any-field row)."""
    return {} if op.reply is None else dict.fromkeys(op.reply, 0)


class TestOpTable:
    def test_rows_have_distinct_byte_codes_and_a_server_method(self):
        codes = [op.code for op in BIN_OPS.values()]
        assert len(set(codes)) == len(codes) and all(type(c) is int and 0 < c < 256 for c in codes)
        assert all(callable(getattr(FTCacheServer, op.handler)) for op in BIN_OPS.values())

    def test_every_op_is_sent_by_a_client_method_and_answered(self, tmp_path):
        """One call of each client method reaches the server's dispatch with
        its op, and each is answered OK: together they cover the table."""
        with LocalCluster(n_servers=1, workdir=tmp_path) as cluster:
            path, fresh = cluster.populate(n_files=2, file_bytes=256)
            server = cluster.servers[0]
            seen = []
            dispatch = server._dispatch
            server._dispatch = lambda msg, span, installs: seen.append(msg.op) or dispatch(msg, span, installs)
            client = cluster.client()
            assert client.read(path) == cluster.pfs.read(path)  # a miss: READ reaches dispatch
            client.write(fresh, b"new bytes")  # PUT
            assert client.stats["cache_installs"] == 1
            assert client.transfer(0, [("/moved.bin", b"moved")]) == [{"accepted": True, "queue_len": 1}]
            assert client.ping(0) is True
            assert client.server_stat(0)["node_id"] == 0
            assert set(client.obs_snapshot(0, spans_limit=1, events_limit=1)) >= {"spans", "events"}
            assert client.join_plan(0, planned_keys=2, planned_bytes=512, epoch=1) is True
            assert server.join_plan == {"planned_keys": 2, "planned_bytes": 512, "epoch": 1}
            sent = client.stats
            assert (sent["transfers_sent"], sent["join_plans_sent"]) == (1, 1)
            assert server.stats.snapshot()["transfer_bytes"] == len(b"moved")
        assert sorted(seen) == sorted(BIN_OPS)

    @pytest.mark.parametrize("msg", [
        Message.request(OP_READ, path="/k", ttl=3),
        Message.request(OP_OBS, spans_limit=1),
        Message.request(OP_JOIN_PLAN, planned_keys=1, planned_bytes=2, epoch=3, node=4),
        Message.request(OP_STAT, k=1),
    ], ids=["undeclared", "missing", "one_too_many", "stat_request"])
    def test_request_fields_outside_the_row_refused(self, msg):
        with pytest.raises(ProtocolError, match="row declares"):
            encode_binary_request(msg)

    @pytest.mark.parametrize("op, msg", [
        (OP_PING, Message.ok_response()),
        (OP_PING, Message.ok_response(node_id=1, hits=2)),
        (OP_JOIN_PLAN, Message.ok_response(node_id=1)),
        (OP_READ, Message.ok_response(source="cache", node_id=1)),
        (OP_READ, Message.error_response("nope", node_id=1)),
    ], ids=["missing", "undeclared", "one_missing", "read_ok", "error"])
    def test_reply_fields_outside_the_row_refused(self, op, msg):
        with pytest.raises(ProtocolError, match="row declares"):
            encode_binary_response_header(op, msg)

    def test_ok_replies_decode_every_row_field(self):
        for op in BIN_OPS.values():  # a row's flag and aux fields are there whether set or not
            got = parse_frame(encode_binary_response_header(op.name, Message.ok_response(**_reply(op))))[0]
            assert got.ok and set(got.header) == op.ok_fixed | set(_reply(op))
