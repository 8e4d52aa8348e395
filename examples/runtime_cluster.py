#!/usr/bin/env python
"""The *real* FT-Cache: threaded servers, TCP RPC, files on disk.

Spins up four cache servers over real sockets backed by real directories,
streams two "epochs" through the PyTorch-style data loader, kills a server
between them (the SLURM-drain analogue), and shows training data keep
flowing: the client times out, declares the node failed, removes it from
its hash ring, and the lost files recache onto survivors with exactly one
extra PFS read each.

Run:  python examples/runtime_cluster.py
"""

import time

from repro.runtime import CachedDataLoader, LocalCluster


def run_epoch(loader: CachedDataLoader, epoch: int) -> float:
    loader.set_epoch(epoch)
    t0 = time.perf_counter()
    n_bytes = sum(len(s) for batch in loader for s in batch)
    elapsed = time.perf_counter() - t0
    print(f"  epoch {epoch}: {n_bytes / 1e6:.1f} MB in {elapsed * 1e3:6.1f} ms")
    return elapsed


def main() -> None:
    with LocalCluster(
        n_servers=4,
        policy="nvme",           # elastic recaching with the hash ring
        ttl=0.4,                 # artifact's TIMEOUT_SECONDS
        timeout_threshold=2,     # artifact's TIMEOUT_LIMIT
        pfs_read_delay=0.002,    # make PFS visibly slower than local flash
    ) as cluster:
        paths = cluster.populate(n_files=64, file_bytes=128 * 1024, seed=0)
        client = cluster.client()
        loader = CachedDataLoader(paths, client, batch_size=8, seed=0, num_workers=4)

        print(f"cluster: {len(cluster.servers)} servers at "
              f"{[s.address[1] for s in cluster.servers.values()]}, "
              f"{len(paths)} files x 128 KiB on the shared PFS dir")

        print("\ncold epoch (every read misses to the PFS, then recaches):")
        cold = run_epoch(loader, epoch=0)
        time.sleep(0.3)  # let the installs that follow the replies finish writing

        print("warm epoch (served from node-local cache dirs):")
        warm = run_epoch(loader, epoch=1)
        print(f"  cache speedup: {cold / max(warm, 1e-9):.1f}x")

        victim = client.policy.target_for(paths[0]).node
        print(f"\nkilling server {victim} (DRAIN) ...")
        cluster.kill_server(victim, mode="hang")

        print("post-failure epoch (detect -> re-ring -> recache):")
        run_epoch(loader, epoch=2)
        print(f"  client: {client.stats['timeouts']} timeouts, "
              f"{client.stats['declared']} node(s) declared failed")
        print(f"  surviving ring: {sorted(client.policy.placement.nodes)}")

        print("recovered epoch (lost files now cached on survivors):")
        run_epoch(loader, epoch=3)

        stats = cluster.total_stats()
        print(f"\nserver totals: {stats['hits']} hits, {stats['misses']} misses, "
              f"{stats['pfs_reads']} PFS reads, {stats['recached']} recached")


if __name__ == "__main__":
    main()
