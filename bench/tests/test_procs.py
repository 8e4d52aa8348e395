import os
import signal

import pytest

import procs


def test_banner_parsing():
    line = "ftcache server node 2 listening on 127.0.0.1:43211 (nvme=/x/nvme2, pfs=/x/pfs)"
    assert procs.parse_banner(line) == ("127.0.0.1", 43211)
    assert procs.parse_banner("echo listening on localhost:9") == ("localhost", 9)
    with pytest.raises(ValueError):
        procs.parse_banner("Traceback (most recent call last):")


def test_sigkilled_server_is_reaped_and_scratch_removed():
    ps = procs.ProcessSet()
    work = ps.make_workdir("reap-test")
    (work / "pfs").mkdir()
    try:
        servers = ps.spawn_servers([0, 1], work)
        assert all(p.address[1] > 0 for p in servers.values())
        assert procs.proc_cpu_seconds(servers[0].pid) is not None
        assert procs.proc_rss_mb(servers[0].pid) > 1
        pids = [p.pid for p in servers.values()]
        os.kill(pids[1], signal.SIGKILL)  # dies behind the benchmark's back
    finally:
        ps.reap_all()
    assert servers[0].popen.returncode == -signal.SIGKILL
    assert servers[1].popen.returncode == -signal.SIGKILL
    for pid in pids:  # waited for, so neither running nor a zombie
        assert not os.path.exists(f"/proc/{pid}")
        assert procs.proc_cpu_seconds(pid) is None
    assert not work.exists() and ps.procs == []


def test_deliberate_kill_keeps_the_cpu_reading():
    ps = procs.ProcessSet()
    work = ps.make_workdir("kill-test")
    (work / "pfs").mkdir()
    try:
        server = ps.spawn_servers([0], work)[0]
        server.kill()
        server.kill()  # idempotent
        assert server.cpu_at_kill is not None and server.cpu_seconds() == server.cpu_at_kill
    finally:
        ps.reap_all()
