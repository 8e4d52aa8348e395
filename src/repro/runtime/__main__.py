"""Operational CLI for the threaded runtime.

Run standalone cache servers and talk to them — the shape of the
artifact's ``ftc_server`` / ``libftc_client`` pair, as console commands::

    # terminal 1..n: one server per "node"
    python -m repro.runtime serve --node-id 0 --port 7000 \\
        --nvme /tmp/ftc/nvme0 --pfs /tmp/ftc/pfs

    # any terminal: reads through the fault-tolerant client
    python -m repro.runtime get /dataset/train/sample_000001.bin \\
        --servers 0=127.0.0.1:7000,1=127.0.0.1:7001 --pfs /tmp/ftc/pfs

    # health/occupancy of one server
    python -m repro.runtime stat --server 127.0.0.1:7000

    # synthetic dataset into the PFS dir
    python -m repro.runtime populate --pfs /tmp/ftc/pfs --files 64 --bytes 65536
"""

from __future__ import annotations

import argparse
import socket
import sys
import time
from typing import TYPE_CHECKING

from ..obs import configure_logging
from .protocol import OP_STAT, Message, ProtocolError, recv_message, send_binary_request, set_nodelay
from .server import FTCacheServer
from .storage import NVMeDir, PFSDir

if TYPE_CHECKING:
    from .client import FTCacheClient

__all__ = ["main"]


def _parse_servers(spec: str) -> dict[int, tuple[str, int]]:
    """``0=host:port,1=host:port`` → {0: (host, port), ...}."""
    out: dict[int, tuple[str, int]] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            node_s, addr = part.split("=", 1)
            host, port_s = addr.rsplit(":", 1)
            node, port = int(node_s), int(port_s)
        except ValueError:
            raise SystemExit(f"bad server spec {part!r}; expected node=host:port") from None
        if node in out:
            raise SystemExit(f"bad server spec {part!r}: node {node} is named twice")
        out[node] = (host, port)
    if not out:
        raise SystemExit("--servers must name at least one server")
    return out


def cmd_serve(args: argparse.Namespace) -> int:
    nvme = NVMeDir(args.nvme, capacity_bytes=args.capacity or None)
    pfs = PFSDir(args.pfs, read_delay=args.pfs_delay)
    server = FTCacheServer(args.node_id, nvme, pfs, host=args.host, port=args.port).start()
    host, port = server.address
    print(f"ftcache server node {args.node_id} listening on {host}:{port} "
          f"(nvme={args.nvme}, pfs={args.pfs})", flush=True)
    try:
        while args.run_seconds is None or args.run_seconds > 0:
            step = 0.5 if args.run_seconds is None else min(0.5, args.run_seconds)
            time.sleep(step)
            if args.run_seconds is not None:
                args.run_seconds -= step
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.close()
    return 0


def _client(args: argparse.Namespace) -> FTCacheClient:
    # the client side (ring, policy, numpy) is imported here, not by a server
    from ..core.fault_policy import make_policy
    from ..core.hash_ring import HashRing
    from .client import FTCacheClient

    servers = _parse_servers(args.servers)
    ring = HashRing(nodes=sorted(servers), vnodes_per_node=args.vnodes)
    policy = make_policy(args.policy, ring)
    return FTCacheClient(
        servers=servers,
        policy=policy,
        pfs=PFSDir(args.pfs),
        ttl=args.ttl,
        timeout_threshold=args.threshold,
    )


def cmd_get(args: argparse.Namespace) -> int:
    from ..core.fault_policy import UnrecoverableNodeFailure
    from ..core.hash_ring import EmptyRingError
    from .client import ReadError

    client = _client(args)
    try:
        t0 = time.perf_counter()
        data = client.read(args.path)
        elapsed = (time.perf_counter() - t0) * 1e3
    except (ReadError, EmptyRingError, UnrecoverableNodeFailure, OSError) as exc:
        # no node left, no such file, a node lost under NoFT: a verdict, not a traceback
        print(f"error: {exc}")
        return 1
    finally:
        client.close()
    sys.stdout.write(f"{len(data)} bytes in {elapsed:.1f} ms "
                     f"(timeouts={client.stats['timeouts']}, declared={client.stats['declared']})\n")
    if args.out:
        with open(args.out, "wb") as f:
            f.write(data)
        print(f"wrote {args.out}")
    return 0


def cmd_stat(args: argparse.Namespace) -> int:
    host, port_s = args.server.rsplit(":", 1)
    try:
        with socket.create_connection((host, int(port_s)), timeout=args.ttl) as sock:
            sock.settimeout(args.ttl)
            set_nodelay(sock)
            send_binary_request(sock, Message.request(OP_STAT))
            resp = recv_message(sock)
            if resp.status is None:  # a frame, but no reply: an echo, say
                raise ProtocolError(f"{resp.op} frame in reply: not an FT-Cache server")
    except (OSError, ProtocolError) as exc:  # nothing there, or something else is
        print(f"unreachable: {exc}")
        return 1
    if not resp.ok:
        print(f"error: {resp.header.get('reason')}")
        return 1
    h = resp.header
    print(f"node {h.get('node_id')}: {h.get('cached_entries')} entries, "
          f"{h.get('cached_bytes', 0) / 1e6:.1f} MB cached, "
          f"{h.get('hits')} hits / {h.get('misses')} misses, "
          f"{h.get('evictions', 0)} evictions, "
          f"mover {h.get('mover_queue_len', 0)} installing / "
          f"{h.get('mover_dropped', 0)} dropped / {h.get('mover_coalesced', 0)} coalesced")
    return 0


def cmd_populate(args: argparse.Namespace) -> int:
    import numpy as np

    pfs = PFSDir(args.pfs)
    rng = np.random.default_rng(args.seed)
    for i in range(args.files):
        pfs.write(f"/dataset/train/sample_{i:06d}.bin", rng.bytes(args.bytes))
    print(f"wrote {args.files} x {args.bytes} B under {args.pfs}/dataset/train/")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.runtime",
                                     description="FT-Cache threaded runtime tools")
    parser.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="stdlib logging level for the repro hierarchy (before the subcommand)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run one cache server")
    p.add_argument("--node-id", type=int, required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--nvme", required=True, help="node-local cache directory")
    p.add_argument("--pfs", required=True, help="shared PFS directory")
    p.add_argument("--capacity", type=int, default=0, help="cache capacity bytes (0 = unbounded)")
    p.add_argument("--pfs-delay", type=float, default=0.0)
    p.add_argument("--run-seconds", type=float, default=None, help="exit after N seconds (tests)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("get", help="read one path through the FT client")
    p.add_argument("path")
    p.add_argument("--servers", required=True, help="node=host:port[,node=host:port...]")
    p.add_argument("--pfs", required=True)
    p.add_argument("--policy", default="nvme", help="nvme | pfs | NoFT")
    p.add_argument("--vnodes", type=int, default=100)
    p.add_argument("--ttl", type=float, default=1.0)
    p.add_argument("--threshold", type=int, default=3)
    p.add_argument("--out", default="", help="also write the bytes to this file")
    p.set_defaults(fn=cmd_get)

    p = sub.add_parser("stat", help="query one server's occupancy")
    p.add_argument("--server", required=True, help="host:port")
    p.add_argument("--ttl", type=float, default=1.0)
    p.set_defaults(fn=cmd_stat)

    p = sub.add_parser("populate", help="write a synthetic dataset into the PFS dir")
    p.add_argument("--pfs", required=True)
    p.add_argument("--files", type=int, default=64)
    p.add_argument("--bytes", type=int, default=65536)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_populate)

    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
