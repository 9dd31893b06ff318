#!/usr/bin/env python
"""Fault-injection sweep: Gauss–Seidel under none/mild/severe fault plans.

Runs the same heat-equation problem through all three variants at three
fault intensities (docs/faults.md), prints the per-point injected /
retransmitted / timed-out counters next to the figure of merit, and checks
the two invariants the fault subsystem guarantees: numerics are never
corrupted (retransmission is exactly-once), and the empty plan is
bit-identical to a fault-free run.

The 3×3 grid runs through the parallel sweep layer (docs/harness.md):
``--workers N`` shards the independent points across processes, with the
same results as the serial run.

    python examples/fault_sweep.py [--workers N]
"""

import argparse

import numpy as np

from repro.apps.gauss_seidel import GSParams, gs_reference, run_gauss_seidel
from repro.apps.gauss_seidel.common import initial_grid
from repro.faults import FaultPlan, RecoveryPolicy
from repro.harness import MARENOSTRUM4, fault_sweep_table, run_variants

MACH = MARENOSTRUM4.with_cores(4)
PLANS = {
    "none": None,
    "mild": FaultPlan.mild(recovery=RecoveryPolicy(op_timeout=10e-3)),
    "severe": FaultPlan.severe(recovery=RecoveryPolicy(op_timeout=10e-3)),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=1,
                    help="process-pool size for the sweep grid (default 1)")
    # parse_known_args: the test suite runs this file via runpy with
    # pytest's own argv still in place
    args, _ = ap.parse_known_args()

    params = GSParams(rows=128, cols=128, timesteps=4, block_size=32)
    print(f"Gauss-Seidel {params.rows}x{params.cols}, "
          f"{params.timesteps} timesteps, 2 nodes, fault plans: "
          f"{', '.join(PLANS)} "
          f"({args.workers} worker(s))\n")

    results = run_variants(run_gauss_seidel, MACH, 2, params, faults=PLANS,
                           workers=args.workers)
    print(fault_sweep_table("fault-intensity sweep", results))

    # faults may slow the run down but must never corrupt the numerics
    reference = gs_reference(params, initial_grid(params))
    for variant in ("mpi", "tagaspi"):
        from repro.harness import JobSpec
        spec = JobSpec(machine=MACH, n_nodes=2, variant=variant,
                       faults=PLANS["severe"])
        res = run_gauss_seidel(spec, params, collect_grid=True)
        assert np.array_equal(res.extra["grid"], reference), (
            f"{variant} diverged under severe faults!")
    print("\nNumerics under the severe plan match the sequential reference "
          "exactly.")

    # an empty plan costs nothing: bit-identical to not passing one
    clean = run_variants(run_gauss_seidel, MACH, 2, params)
    empty = run_variants(run_gauss_seidel, MACH, 2, params,
                         faults={"none": FaultPlan()})
    for v in clean:
        assert clean[v]["none"].sim_time == empty[v]["none"].sim_time
        assert clean[v]["none"].extra == empty[v]["none"].extra
    print("Empty-plan runs are bit-identical to fault-free runs.")


if __name__ == "__main__":
    main()
