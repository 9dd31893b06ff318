"""The lock and queue accounting, pinned to the last float bit.

``benchmarks/e2e/golden.json`` pins only ``mpi_calls`` of these metrics.
The values below are exact ``repr`` floats: each counter must keep adding
the same terms in the same order. One shape contends on the MPI lock
(Streaming ``tampi``: tasks' isends against the poller's Testsome), the
other on GASPI queues (Gauss–Seidel ``tagaspi`` with 16 block columns
multiplexed onto 2 queues).
"""

import pytest

from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.apps.streaming.common import StreamingParams
from repro.apps.streaming.runner import run_streaming
from repro.harness import CTE_AMD, MARENOSTRUM4, JobSpec

KEYS = ("time_in_mpi", "wait_in_mpi", "mpi_calls", "gaspi_submit_time",
        "gaspi_queue_wait", "comm_time", "lock_wait_time")


def _streaming_tampi():
    return run_streaming(
        JobSpec(machine=CTE_AMD.with_cores(8), n_nodes=2, variant="tampi",
                seed=1),
        StreamingParams(chunks=2, elements_per_chunk=8192, block_size=128,
                        compute_data=False))


def _gs_tagaspi():
    return run_gauss_seidel(
        JobSpec(machine=MARENOSTRUM4.with_cores(8), n_nodes=2,
                variant="tagaspi", seed=1, n_queues=2),
        GSParams(rows=128, cols=256, timesteps=2, block_size=16,
                 compute_data=False))


PINS = {
    "streaming_tampi": (_streaming_tampi, "0.0003229660000000002", {
        "time_in_mpi": "0.002609879199999999",
        "wait_in_mpi": "0.0022189592000000005",
        "mpi_calls": "260.0",
        "gaspi_submit_time": "None",
        "gaspi_queue_wait": "None",
        "comm_time": "0.002609879199999999",
        "lock_wait_time": "0.0022189592000000005",
    }),
    "gs_tagaspi": (_gs_tagaspi, "0.00075855", {
        "time_in_mpi": "0.0",
        "wait_in_mpi": "0.0",
        "mpi_calls": "0.0",
        "gaspi_submit_time": "3.62e-05",
        "gaspi_queue_wait": "8.200000000000003e-06",
        "comm_time": "3.62e-05",
        "lock_wait_time": "8.200000000000003e-06",
    }),
}


@pytest.mark.parametrize("shape", sorted(PINS))
def test_contention_metrics_are_bit_identical(shape):
    run, sim_time, pins = PINS[shape]
    res = run()
    assert repr(res.sim_time) == sim_time
    assert {k: repr(res.extra.get(k)) for k in KEYS} == pins
    # the shape really contends
    assert res.extra["lock_wait_time"] > 0.0
