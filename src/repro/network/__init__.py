"""Simulated cluster network.

Models the two machines of the paper's evaluation as parameterized fabrics:

* node-local (shared-memory) and remote (fabric) message paths,
* per-NIC egress/ingress serialization (``bytes / bandwidth``),
* a base latency ``alpha`` plus optional seeded jitter,
* *per-protocol software overheads* — the crucial asymmetry between
  Marenostrum4 (Intel MPI native on Omni-Path, GASPI on *emulated* ibverbs)
  and CTE-AMD (GASPI native on InfiniBand) that flips the winner of the
  Streaming experiment (paper Fig. 13).

Message delivery preserves FIFO order per (source node, destination node),
which is how the GASPI guarantee "notification arrives after the data, for
operations posted to the same queue and target" (§II-B) is honoured.
"""

from repro.network.batch import batch_eligible, send_batch
from repro.network.fabric import Fabric
from repro.network.message import Extent, Message
from repro.network.topology import Cluster, Node, NetworkStats
from repro.network.models import (
    OMNIPATH,
    INFINIBAND,
    SHARED_MEMORY_LATENCY,
    scaled_fabric,
)

__all__ = [
    "Fabric",
    "batch_eligible",
    "send_batch",
    "Extent",
    "Message",
    "Cluster",
    "Node",
    "NetworkStats",
    "OMNIPATH",
    "INFINIBAND",
    "SHARED_MEMORY_LATENCY",
    "scaled_fabric",
]
