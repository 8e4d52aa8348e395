"""Threaded FT-Cache runtime: real sockets, real files, same FT core.

The laptop-scale twin of the simulated system — servers are threads,
RPCs are TCP, the PFS is a shared directory — sharing the placement and
fault-tolerance logic from :mod:`repro.core` verbatim.
"""

from .chaos import ChaosAction, ChaosMonkey
from .client import FTCacheClient, ReadError
from .cluster import LocalCluster
from .dataloader import CachedDataLoader
from .protocol import Message, ProtocolError, recv_message, send_binary_request
from .server import FTCacheServer
from .storage import NVMeDir, PFSDir

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
