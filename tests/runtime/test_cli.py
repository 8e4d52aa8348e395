"""Tests for the runtime CLI (in-process invocation)."""

import socket
import threading

import pytest

from repro.runtime import FTCacheServer, NVMeDir, PFSDir
from repro.runtime.__main__ import _parse_servers, main


class TestParseServers:
    def test_single(self):
        assert _parse_servers("0=127.0.0.1:7000") == {0: ("127.0.0.1", 7000)}

    def test_multiple(self):
        out = _parse_servers("0=localhost:1,1=localhost:2")
        assert out == {0: ("localhost", 1), 1: ("localhost", 2)}

    def test_bad_spec(self):
        with pytest.raises(SystemExit):
            _parse_servers("garbage")
        with pytest.raises(SystemExit):
            _parse_servers("")
        with pytest.raises(SystemExit, match="node 0 is named twice"):
            _parse_servers("0=127.0.0.1:7000,0=127.0.0.1:7001")


@pytest.fixture
def live_cluster(tmp_path):
    """Two real servers + populated PFS, without the LocalCluster wrapper."""
    pfs = PFSDir(tmp_path / "pfs")
    main(["populate", "--pfs", str(tmp_path / "pfs"), "--files", "8", "--bytes", "512"])
    servers = [
        FTCacheServer(i, NVMeDir(tmp_path / f"nvme{i}"), pfs).start() for i in range(2)
    ]
    yield tmp_path, servers
    for s in servers:
        s.close()


class TestCommands:
    def test_populate_writes_files(self, tmp_path, capsys):
        assert main(["populate", "--pfs", str(tmp_path / "p"), "--files", "3", "--bytes", "64"]) == 0
        assert "wrote 3" in capsys.readouterr().out
        assert (tmp_path / "p" / "dataset" / "train" / "sample_000002.bin").stat().st_size == 64

    def test_get_through_client(self, live_cluster, capsys):
        tmp_path, servers = live_cluster
        spec = ",".join(f"{i}={s.address[0]}:{s.address[1]}" for i, s in enumerate(servers))
        rc = main(
            [
                "get",
                "/dataset/train/sample_000001.bin",
                "--servers",
                spec,
                "--pfs",
                str(tmp_path / "pfs"),
                "--ttl",
                "1.0",
            ]
        )
        assert rc == 0
        assert "512 bytes" in capsys.readouterr().out

    def test_get_writes_out_file(self, live_cluster, tmp_path, capsys):
        wd, servers = live_cluster
        spec = ",".join(f"{i}={s.address[0]}:{s.address[1]}" for i, s in enumerate(servers))
        out = tmp_path / "sample.bin"
        rc = main(
            [
                "get",
                "/dataset/train/sample_000000.bin",
                "--servers",
                spec,
                "--pfs",
                str(wd / "pfs"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.stat().st_size == 512

    def test_get_missing_file_is_a_verdict(self, live_cluster, capsys):
        tmp_path, servers = live_cluster
        spec = ",".join(f"{i}={s.address[0]}:{s.address[1]}" for i, s in enumerate(servers))
        rc = main(["get", "/dataset/train/nope.bin", "--servers", spec, "--pfs", str(tmp_path / "pfs")])
        assert rc == 1
        assert capsys.readouterr().out.startswith("error: no such file")

    def test_get_with_every_node_declared_is_a_verdict(self, tmp_path, capsys):
        """The only node refuses, is declared and leaves the ring: one line, exit 1."""
        rc = main(["get", "/dataset/train/sample_000000.bin", "--servers", "0=127.0.0.1:1",
                   "--pfs", str(tmp_path / "pfs"), "--ttl", "0.2", "--threshold", "1"])
        assert rc == 1
        assert capsys.readouterr().out.startswith("error: ")

    def test_stat_live_server(self, live_cluster, capsys):
        _, servers = live_cluster
        host, port = servers[0].address
        assert main(["stat", "--server", f"{host}:{port}"]) == 0
        assert "node 0" in capsys.readouterr().out

    def test_stat_unreachable(self, capsys):
        assert main(["stat", "--server", "127.0.0.1:1", "--ttl", "0.2"]) == 1
        assert "unreachable" in capsys.readouterr().out

    @pytest.mark.parametrize("answer", [lambda got: got, lambda got: b"SSH-2.0-OpenSSH\r\n"],
                             ids=["echo", "banner"])
    def test_stat_against_a_peer_that_is_no_server(self, answer, capsys):
        """A plain echo socket (our own STAT frame comes back) or a peer
        speaking another protocol: one line, exit 1, no traceback."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def peer() -> None:
                conn, _ = listener.accept()
                with conn:
                    conn.sendall(answer(conn.recv(64)))

            t = threading.Thread(target=peer, name="cli-echo-peer", daemon=True)
            t.start()
            host, port = listener.getsockname()
            assert main(["stat", "--server", f"{host}:{port}", "--ttl", "2"]) == 1
            t.join(timeout=5)
        assert capsys.readouterr().out.startswith("unreachable: ")

    def test_serve_run_seconds(self, tmp_path, capsys):
        done = {}

        def run():
            done["rc"] = main(
                [
                    "serve",
                    "--node-id",
                    "5",
                    "--nvme",
                    str(tmp_path / "nv"),
                    "--pfs",
                    str(tmp_path / "pfs"),
                    "--run-seconds",
                    "0.3",
                ]
            )

        t = threading.Thread(target=run, name="cli-run", daemon=True)
        t.start()
        t.join(timeout=5)
        assert not t.is_alive()
        assert done["rc"] == 0
