"""A server process imports only the server layer.

Every compute node starts one ``python -m repro.runtime serve`` per job,
and a joining node starts one inside the join, so what a server imports is
paid on every boot.  The server needs its codec, storage, :mod:`repro.obs`
and the lock witness — not numpy, the ring, the client or the simulator.
The check serves one request of every op first, so an import
that was merely deferred from boot to the first request fails it too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: modules (and their submodules) a server process must not load
FORBIDDEN = (
    "numpy",
    "repro.core",
    "repro.sim",
    "repro.cluster",
    "repro.hvac",
    "repro.dl",
    "repro.rebalance",
    "repro.runtime.client",
    "repro.runtime.cluster",
    "repro.runtime.chaos",
    "repro.runtime.dataloader",
)

_SCRIPT = textwrap.dedent(
    """
    import json, os, queue, socket, sys, threading
    from pathlib import Path

    from repro.runtime.__main__ import main
    from repro.runtime.protocol import (
        BIN_OPS, OP_JOIN_PLAN, OP_OBS, OP_PING, OP_PUT, OP_READ, OP_STAT, OP_TRANSFER,
        Message, recv_message, send_binary_request,
    )

    root = Path(sys.argv[1])
    (root / "pfs" / "cold").mkdir(parents=True)
    (root / "pfs" / "cold" / "a.bin").write_bytes(b"c" * 4096)


    class Banner:
        def __init__(self):
            self.lines = queue.Queue()

        def write(self, text):
            self.lines.put(text)
            return len(text)

        def flush(self):
            pass


    banner = sys.stdout = Banner()
    argv = ["serve", "--node-id", "3", "--nvme", str(root / "nvme"), "--pfs", str(root / "pfs"),
            "--run-seconds", "120"]
    threading.Thread(target=main, args=(argv,), name="serve", daemon=True).start()
    line = banner.lines.get(timeout=60)
    sys.stdout = sys.__stdout__
    host, port = line.split(" listening on ")[1].split()[0].rsplit(":", 1)


    def request(op, payload=b"", **fields):
        msg = Message.request(op, **fields)
        msg.payload = payload
        send_binary_request(sock, msg)
        return recv_message(sock)


    sent = set()
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        def check(op, resp, **want):
            sent.add(op)
            assert resp.ok, (op, resp.header)
            for field, value in want.items():
                assert resp.header[field] == value, (op, resp.header)
            return resp

        check(OP_READ, request(OP_READ, path="/cold/a.bin"), source="pfs")
        check(OP_PUT, request(OP_PUT, b"h" * 4096, path="/hot.bin"))
        hit = check(OP_READ, request(OP_READ, path="/hot.bin"), source="cache")
        assert hit.payload == b"h" * 4096
        check(OP_TRANSFER, request(OP_TRANSFER, b"t" * 4096, path="/moved.bin"), accepted=True)
        check(OP_STAT, request(OP_STAT))
        check(OP_OBS, request(OP_OBS, spans_limit=8, events_limit=8))
        check(OP_PING, request(OP_PING), node_id=3)
        check(OP_JOIN_PLAN, request(OP_JOIN_PLAN, planned_keys=1, planned_bytes=4096, epoch=1),
              accepted_keys=1)
    assert sent == set(BIN_OPS), sorted(set(BIN_OPS) - sent)
    print(json.dumps(sorted(sys.modules)), flush=True)
    os._exit(0)  # the serve thread's --run-seconds is not waited out
    """
)


def test_a_server_that_served_every_op_loaded_only_the_server(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "repro.runtime.server" in loaded
    leaked = sorted(m for m in loaded if any(m == f or m.startswith(f + ".") for f in FORBIDDEN))
    assert leaked == [], leaked
