"""Per-epoch, per-rank communication plans.

After every refinement/load-balancing epoch the mesh, the partition, and
therefore every rank's set of cross-rank face pairs change. An
:class:`EpochPlan` captures one rank's view for one epoch:

* its local blocks and their slot indices in the value arrays,
* its outgoing pairs (with the *receiver-chosen* remote offset and
  notification id — the result of the paper's §VI-B agreement phase),
* its incoming pairs (with the sender-chosen ack notification id),
* for every local block, the ordered face-value sources (local slots or
  incoming-pair slots) that reproduce the reference gather order exactly.

One pass over the mesh's pairs builds all plans: named tuples that share
the mesh's key tuples, with gather order = global pair order.

The agreement itself is performed with global knowledge (the simulation
holds all ranks in one process); its *cost* is charged to each rank's
serial phase, and a barrier separates it from the stages — matching the
paper's "sequential phase just after the refinement and load-balancing
stages where each pair of neighboring processes agree on the unique
remote offset and notification identifier of each RMA message".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple

from repro.apps.miniamr.mesh import BlockKey, Mesh


class OutPair(NamedTuple):
    gidx: int  #: index into mesh.pairs
    src: BlockKey
    dst_rank: int
    src_slot: int  #: local value-array slot of the source block
    remote_slot: int  #: receiver's incoming-pair slot (offset & notif id)
    ack_id: int  #: my ack-notification id (receiver acks to this)


class InPair(NamedTuple):
    gidx: int
    src: BlockKey
    dst: BlockKey
    src_rank: int
    slot: int  #: my incoming-pair slot (recv offset & notif id)
    sender_ack_id: int  #: the ack id to notify on the sender's ack segment


class FaceSource(NamedTuple):
    """One face value consumed by a block's stage update."""

    #: "local" (another block on this rank) or "remote" (an incoming pair)
    kind: str
    #: local value slot or incoming-pair slot, per ``kind``
    slot: int


@dataclass
class EpochPlan:
    rank: int
    epoch: int
    blocks: List[BlockKey]
    slot_of: Dict[BlockKey, int]
    out_pairs: List[OutPair]
    in_pairs: List[InPair]
    #: per local block: ordered face sources (reference gather order)
    sources: Dict[BlockKey, List[FaceSource]]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def build_epoch_plans(mesh: Mesh, n_ranks: int, epoch: int) -> List[EpochPlan]:
    """Build every rank's plan for one epoch (the agreement phase's
    outcome): a receiver numbers its incoming pairs (slot = offset =
    notification id), a sender its outgoing pairs (ack id)."""
    plans = []
    for r in range(n_ranks):
        blocks = mesh.local_blocks(r)
        plans.append(EpochPlan(r, epoch, blocks,
                               {b: i for i, b in enumerate(blocks)}, [], [],
                               {b: [] for b in blocks}))
    owner = mesh.owner
    # immutable, so every plan shares one FaceSource per local slot
    local = [FaceSource("local", i)
             for i in range(max(p.n_blocks for p in plans))]
    for gidx, (src, dst, _face) in enumerate(mesh.pairs):
        so, do = owner[src], owner[dst]
        receiver = plans[do]
        if so == do:
            receiver.sources[dst].append(local[receiver.slot_of[src]])
            continue
        sender = plans[so]
        slot, ack_id = len(receiver.in_pairs), len(sender.out_pairs)
        receiver.in_pairs.append(InPair(gidx, src, dst, so, slot, ack_id))
        sender.out_pairs.append(OutPair(gidx, src, do, sender.slot_of[src],
                                        slot, ack_id))
        receiver.sources[dst].append(FaceSource("remote", slot))
    return plans

