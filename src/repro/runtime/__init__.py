"""Threaded FT-Cache runtime: real sockets, real files, same FT core.

The laptop-scale twin of the simulated system — servers are threads,
RPCs are TCP, the PFS is a shared directory — sharing the placement and
fault-tolerance logic from :mod:`repro.core` verbatim.

The names below resolve on first use, so a server process
(``python -m repro.runtime serve``) loads only the server, the codec, the
storage and :mod:`repro.obs` — not the client, :mod:`repro.core` or numpy.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".chaos": ("ChaosAction", "ChaosMonkey"),
    ".client": ("FTCacheClient", "ReadError"),
    ".cluster": ("LocalCluster",),
    ".dataloader": ("CachedDataLoader",),
    ".protocol": ("Message", "ProtocolError", "recv_message", "send_binary_request"),
    ".server": ("FTCacheServer",),
    ".storage": ("NVMeDir", "PFSDir"),
})

__all__ = [
    "ChaosAction",
    "ChaosMonkey",
    "FTCacheClient",
    "ReadError",
    "LocalCluster",
    "CachedDataLoader",
    "Message",
    "ProtocolError",
    "recv_message",
    "send_binary_request",
    "FTCacheServer",
    "NVMeDir",
    "PFSDir",
]
