"""Server processes for the benchmark: spawn, address from the banner,
``/proc`` accounting, and reaping on every exit path.

Each server is ``python -m repro.runtime serve`` in its own interpreter, so
the load generator's GIL never schedules server work.  Children stay in the
benchmark's process group (a ``killpg`` from whoever runs the benchmark
reaches them too); :class:`ProcessSet` kills and waits for every child it
started from ``atexit`` and from the SIGTERM/SIGINT/SIGHUP handlers.
"""

from __future__ import annotations

import atexit
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ROOT", "SRC", "ServerProc", "ProcessSet", "parse_banner", "proc_cpu_seconds", "proc_rss_mb"]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK_ROOT = BENCH / ".work"

_BANNER = re.compile(r"listening on ([0-9A-Za-z_.\-]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def parse_banner(line: str) -> tuple[str, int]:
    """``... listening on HOST:PORT ...`` → ``(HOST, PORT)``."""
    m = _BANNER.search(line)
    if m is None:
        raise ValueError(f"no address in banner {line!r}")
    return m.group(1), int(m.group(2))


def _proc_stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            # comm may contain spaces; everything after the last ')' is fixed
            return f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def proc_cpu_seconds(pid: int) -> float | None:
    """utime + stime of a live process, or None once it is gone."""
    fields = _proc_stat_fields(pid)
    if fields is None:
        return None
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_rss_mb(pid: int) -> float | None:
    fields = _proc_stat_fields(pid)
    if fields is None:
        return None
    return int(fields[21]) * _PAGE / 2**20


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ServerProc:
    """One child process and the address its banner announced."""

    node_id: int
    popen: subprocess.Popen
    address: tuple[str, int]
    #: CPU seconds read just before a deliberate kill (``/proc`` is gone after)
    cpu_at_kill: float | None = None

    @property
    def pid(self) -> int:
        return self.popen.pid

    def cpu_seconds(self) -> float:
        live = proc_cpu_seconds(self.pid)
        if live is not None:
            return live
        return self.cpu_at_kill or 0.0

    def kill(self) -> None:
        """SIGKILL and reap (idempotent)."""
        if self.popen.poll() is None:
            self.cpu_at_kill = proc_cpu_seconds(self.pid)
            self.popen.kill()
        self.popen.wait()
        if self.popen.stdout is not None:
            self.popen.stdout.close()


def _read_banner(popen: subprocess.Popen, timeout: float) -> str:
    deadline = time.monotonic() + timeout
    fd = popen.stdout.fileno()
    buf = b""
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0 or popen.poll() is not None:
            raise RuntimeError(f"server pid {popen.pid} printed no banner (exit={popen.poll()}, got {buf!r})")
        if select.select([fd], [], [], min(left, 0.2))[0]:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"server pid {popen.pid} closed stdout before its banner")
            buf += chunk
    return buf.split(b"\n", 1)[0].decode("utf-8", "replace")


@dataclass
class ProcessSet:
    """Every child this benchmark run started; reaps them all on exit."""

    procs: list[ServerProc] = field(default_factory=list)
    workdirs: list[Path] = field(default_factory=list)
    _installed: bool = False

    def install_handlers(self) -> None:
        if self._installed:
            return
        self._installed = True
        atexit.register(self.reap_all)
        for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(sig, self._on_signal)

    def _on_signal(self, signum, frame) -> None:
        self.reap_all()
        raise SystemExit(128 + signum)

    def _launch(self, node_id: int, argv: list[str], log: Path | None) -> ServerProc:
        stderr = open(log, "ab") if log is not None else subprocess.DEVNULL
        try:
            popen = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                                     stdin=subprocess.DEVNULL, env=child_env(), cwd=str(ROOT))
        finally:
            if log is not None:
                stderr.close()
        # registered before the banner wait, so a child that never prints
        # one is still reaped
        proc = ServerProc(node_id, popen, ("", 0))
        self.procs.append(proc)
        return proc

    def spawn_servers(self, node_ids, work: Path, capacity: int = 0,
                      pfs_delay: float = 0.0) -> dict[int, ServerProc]:
        """Start ``python -m repro.runtime serve`` once per node id (all
        interpreters boot concurrently), then read each banner."""
        procs = {}
        for node_id in node_ids:
            argv = [sys.executable, "-m", "repro.runtime", "serve",
                    "--node-id", str(node_id), "--port", "0",
                    "--nvme", str(work / f"nvme{node_id}"), "--pfs", str(work / "pfs"),
                    "--capacity", str(capacity), "--pfs-delay", str(pfs_delay)]
            procs[node_id] = self._launch(node_id, argv, work / f"server{node_id}.log")
        for proc in procs.values():
            proc.address = parse_banner(_read_banner(proc.popen, timeout=20.0))
        return procs

    def spawn_echo(self) -> ServerProc:
        proc = self._launch(-1, [sys.executable, str(BENCH / "echo_server.py")], None)
        proc.address = parse_banner(_read_banner(proc.popen, timeout=20.0))
        return proc

    def make_workdir(self, prefix: str) -> Path:
        """Scratch directory inside the checkout, removed by :meth:`reap_all`."""
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=WORK_ROOT))
        self.workdirs.append(work)
        return work

    def reap_all(self) -> None:
        """Kill and wait for every child, then remove every scratch dir."""
        for proc in self.procs:
            proc.kill()
        self.procs.clear()
        for work in self.workdirs:
            shutil.rmtree(work, ignore_errors=True)
        self.workdirs.clear()
