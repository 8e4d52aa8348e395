"""Tests for the wire protocol and directory-backed storage."""

import socket
import threading

import pytest

from repro.runtime import (
    Message,
    NVMeDir,
    PFSDir,
    ProtocolError,
    recv_message,
    send_binary_request,
)
from repro.runtime.protocol import encode_binary_request, encode_binary_response_header


def _pair():
    a, b = socket.socketpair()
    return a, b


class TestProtocol:
    def test_round_trip_with_payload(self):
        a, b = _pair()
        try:
            send_binary_request(a, Message.request("OBS", path="/x", spans_limit=1, events_limit=2))
            msg = recv_message(b)
            assert msg.op == "OBS" and msg.header["path"] == "/x" and msg.header["events_limit"] == 2
            reply = Message.ok_response(payload=b"\x00\x01data", source="cache")
            b.sendall(encode_binary_response_header("READ", reply) + reply.payload)
            resp = recv_message(a)
            assert resp.ok and resp.payload == b"\x00\x01data" and resp.header["source"] == "cache"
        finally:
            a.close()
            b.close()

    def test_empty_payload(self):
        a, b = _pair()
        try:
            send_binary_request(a, Message.request("PING"))
            assert recv_message(b).payload == b""
        finally:
            a.close()
            b.close()

    def test_large_payload_chunked(self):
        a, b = _pair()
        data = bytes(range(256)) * 4096  # 1 MiB
        out = {}

        def reader():
            out["msg"] = recv_message(b)

        t = threading.Thread(target=reader, name="protocol-reader", daemon=True)
        t.start()
        try:
            send_binary_request(a, Message(header={"op": "PUT", "path": "/big"}, payload=data))
            t.join(timeout=5)
            assert out["msg"].payload == data
        finally:
            a.close()
            b.close()

    def test_error_response(self):
        m = Message.error_response("nope", code="ENOENT")
        assert not m.ok and m.header["reason"] == "nope"

    def test_eof_mid_frame_raises(self):
        a, b = _pair()
        a.sendall(encode_binary_request(Message.request("READ", path="/dataset/x.bin"))[:30])
        a.close()
        with pytest.raises(ConnectionError):
            recv_message(b)
        b.close()

    def test_corrupt_header_raises(self):
        """A length-prefixed JSON frame — or anything else that does not open
        with the magic — fails on its first bytes, peer still connected."""
        a, b = _pair()
        try:
            a.sendall(b"\x00\x00\x00\x04notj")
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_oversized_header_rejected(self):
        a, b = _pair()
        try:
            head = bytearray(encode_binary_request(Message.request("OBS", spans_limit=1, events_limit=1))[:22])
            head[18:22] = (2**21).to_bytes(4, "big")  # a 2 MiB fields payload
            a.sendall(bytes(head))
            with pytest.raises(ProtocolError, match="payload length"):
                recv_message(b)
        finally:
            a.close()
            b.close()


class TestNVMeDir:
    def test_write_read_contains(self, tmp_path):
        nv = NVMeDir(tmp_path / "nvme")
        nv.write("/data/a.bin", b"hello")
        assert nv.contains("/data/a.bin")
        assert nv.read("/data/a.bin") == b"hello"
        assert nv.used_bytes == 5
        assert nv.entry_count() == 1

    def test_distinct_keys_no_collision(self, tmp_path):
        nv = NVMeDir(tmp_path)
        nv.write("/a/x.bin", b"1")
        nv.write("/b/x.bin", b"2")  # same basename, different path
        assert nv.read("/a/x.bin") == b"1"
        assert nv.read("/b/x.bin") == b"2"

    def test_capacity_pressure_evicts_lru(self, tmp_path):
        nv = NVMeDir(tmp_path, capacity_bytes=10)
        nv.write("/a", b"12345")
        nv.write("/b", b"123456789")  # evicts /a instead of raising
        assert not nv.contains("/a")
        assert nv.read("/b") == b"123456789"
        assert nv.evictions == 1 and nv.used_bytes == 9

    def test_oversized_entry_still_rejected(self, tmp_path):
        nv = NVMeDir(tmp_path, capacity_bytes=10)
        with pytest.raises(OSError, match="exceeds cache capacity"):
            nv.write("/big", b"x" * 11)

    def test_drop(self, tmp_path):
        nv = NVMeDir(tmp_path)
        nv.write("/a", b"abc")
        nv.drop("/a")
        assert not nv.contains("/a") and nv.used_bytes == 0
        nv.drop("/never-existed")  # no-op

    def test_clear(self, tmp_path):
        nv = NVMeDir(tmp_path)
        for i in range(4):
            nv.write(f"/f{i}", b"x")
        nv.clear()
        assert nv.entry_count() == 0 and nv.used_bytes == 0

    def test_used_bytes_rescanned_on_reopen(self, tmp_path):
        nv = NVMeDir(tmp_path)
        nv.write("/a", b"12345678")
        again = NVMeDir(tmp_path)
        assert again.used_bytes == 8


class TestPFSDir:
    def test_write_read(self, tmp_path):
        pfs = PFSDir(tmp_path / "pfs")
        pfs.write("/ds/train/s1.bin", b"payload")
        assert pfs.exists("/ds/train/s1.bin")
        assert pfs.read("/ds/train/s1.bin") == b"payload"
        assert pfs.reads == 1

    def test_missing_file(self, tmp_path):
        pfs = PFSDir(tmp_path)
        with pytest.raises(FileNotFoundError):
            pfs.read("/nope")

    def test_path_escape_blocked(self, tmp_path):
        pfs = PFSDir(tmp_path / "pfs")
        with pytest.raises(PermissionError):
            pfs.read("/../../etc/passwd")

    def test_read_delay(self, tmp_path):
        import time

        pfs = PFSDir(tmp_path, read_delay=0.05)
        pfs.write("/a", b"x")
        t0 = time.monotonic()
        pfs.read("/a")
        assert time.monotonic() - t0 >= 0.045

    def test_negative_delay_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PFSDir(tmp_path, read_delay=-1)
