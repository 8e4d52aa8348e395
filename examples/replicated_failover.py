#!/usr/bin/env python
"""Replicated FT-Cache: failures without a single PFS refetch.

Extends the paper's single-copy design with 2-way replication
(``repro.core.replication``): every cache entry lives on two salted ring
positions, the client write-through-pushes PFS-sourced reads to the other
replica, and a dead primary fails over to the warm replica within one TTL —
no recache traffic at all.  Real sockets, real files, a real kill.

Run:  python examples/replicated_failover.py
"""

import time

from repro.runtime import LocalCluster


def main() -> None:
    with LocalCluster(
        n_servers=4,
        policy="replicated",     # ReplicatedRecache, k=2
        replicas=2,
        ttl=0.4,
        timeout_threshold=2,
        pfs_read_delay=0.002,
    ) as cluster:
        paths = cluster.populate(n_files=48, file_bytes=64 * 1024, seed=7)
        client = cluster.client()

        print(f"{len(cluster.servers)} servers, 2-way replication, "
              f"{len(paths)} files x 64 KiB")

        t0 = time.perf_counter()
        for p in paths:
            client.read(p)
        print(f"cold pass: {(time.perf_counter() - t0) * 1e3:6.1f} ms "
              f"({cluster.pfs.reads} PFS reads)")
        time.sleep(0.4)  # the servers' installs land
        print(f"replica pushes: {client.stats['replica_pushes']} (each sent before its read returned)")

        # Pick a file with two distinct replicas and kill its primary.
        path = next(p for p in paths if len(set(client.policy.replica_targets(p))) == 2)
        primary = client.policy.replica_targets(path)[0]
        print(f"\nkilling primary server {primary} ...")
        cluster.kill_server(primary, mode="hang")

        pfs_before = cluster.pfs.reads
        t0 = time.perf_counter()
        data = client.read(path)                 # one TTL, then the warm replica
        first_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        client.read(path)                        # timeout #2 -> primary declared
        second_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        client.read(path)                        # replica is now first choice
        third_ms = (time.perf_counter() - t0) * 1e3
        for p in paths:
            client.read(p)                       # whole dataset still there

        print(f"read #1 after death: {first_ms:6.1f} ms "
              f"(TTL timeout, failover to the warm replica)")
        print(f"read #2 after death: {second_ms:6.1f} ms "
              f"(second timeout reaches the threshold: declared)")
        print(f"read #3 after death: {third_ms:6.1f} ms "
              f"(replica is the first candidate now; declared="
              f"{client.stats['declared']})")
        print(f"extra PFS reads since the failure: {cluster.pfs.reads - pfs_before} "
              f"(single-copy recaching would refetch every lost file)")
        assert len(data) == 64 * 1024


if __name__ == "__main__":
    main()
