"""Machine presets (downscaled from the paper's evaluation systems).

The paper ran on 48-core Marenostrum4 nodes and 64-core CTE-AMD nodes; a
Python DES cannot turn over 12288 simulated cores with fine-grained tasks,
so the presets keep the *architecture* (one fabric, one NIC per node, MPI
ranks per core for pure MPI, one runtime per node/socket for hybrids) at
**8 cores per node**. Node counts in benchmarks are scaled down 4× from
the paper's; EXPERIMENTS.md records the mapping per figure.

Kernel rates are effective per-core throughputs used by the applications'
cost models. They are calibrated so single-node absolute throughputs land
in a plausible range; the reproduced quantities are the *relative* curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.network.fabric import Fabric
from repro.network.models import OMNIPATH, INFINIBAND


@dataclass(frozen=True)
class Machine:
    """A cluster archetype: fabric + node shape + kernel cost model."""

    name: str
    fabric: Fabric
    cores_per_node: int
    #: per-kernel seconds-per-element rates used by the app cost models
    kernel_rates: Dict[str, float] = field(default_factory=dict)
    #: relative sigma of per-task compute-time noise (OS jitter, cache
    #: effects). Pure-MPI wavefronts accumulate this noise across their
    #: tightly-coupled ranks, while task pools absorb it — one of the
    #: scale effects behind the paper's Fig. 9/11 crossovers.
    compute_jitter: float = 0.0

    def kernel_time(self, kernel: str, elements: float) -> float:
        """Cost-model time for ``elements`` units of ``kernel`` work."""
        try:
            rate = self.kernel_rates[kernel]
        except KeyError:
            raise KeyError(f"machine {self.name} has no kernel rate {kernel!r}") from None
        return rate * elements

    def with_cores(self, cores_per_node: int) -> "Machine":
        return replace(self, cores_per_node=cores_per_node)


#: Marenostrum4-like: Intel Xeon 8160 sockets, Omni-Path. The paper uses
#: 48 cores/node; we scale to 8 (DESIGN.md §1).
MARENOSTRUM4 = Machine(
    name="marenostrum4-scaled",
    fabric=OMNIPATH,
    cores_per_node=8,
    kernel_rates={
        # Gauss–Seidel 5-point update: memory-bound, ~4.4 ns/cell/core
        "gs_update": 4.4e-9,
        # miniAMR stencil: per cell per variable
        "amr_cell_var": 2.2e-9,
        # miniAMR face pack/unpack per element
        "amr_pack": 0.9e-9,
        # miniAMR refinement serial cost per local block
        "amr_refine": 3.0e-6,
        # miniAMR agreement-phase cost per cross-rank pair (TAGASPI)
        "amr_agree": 0.5e-6,
        # Streaming per-element function application
        "stream_elem": 1.4e-9,
        # memcpy-style buffer staging per element (8B)
        "copy": 0.35e-9,
        # CG dense row-block matvec per (row, col) pair
        "cg_spmv": 1.1e-9,
        # CG vector update (axpy) per element
        "cg_axpy": 0.5e-9,
        # CG local dot product per element
        "cg_dot": 0.4e-9,
    },
    compute_jitter=0.05,
)

#: CTE-AMD-like: EPYC 7742, InfiniBand HDR100. 64 cores/node scaled to 8.
CTE_AMD = Machine(
    name="cte-amd-scaled",
    fabric=INFINIBAND,
    cores_per_node=8,
    kernel_rates={
        "gs_update": 4.0e-9,
        "amr_cell_var": 2.0e-9,
        "amr_pack": 0.8e-9,
        "amr_refine": 2.8e-6,
        "amr_agree": 0.45e-6,
        "stream_elem": 1.2e-9,
        "copy": 0.30e-9,
        "cg_spmv": 1.0e-9,
        "cg_axpy": 0.45e-9,
        "cg_dot": 0.35e-9,
    },
    compute_jitter=0.07,
)
