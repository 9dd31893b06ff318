"""The benchmark's per-layer ledger still finds every name it reports.

``benchmarks/e2e/ledger.py`` looks up files, functions and wrapped
attributes of ``src/repro`` by name and reports a metric as ``None`` once
its name is gone. A ``None`` leaves the benchmark's result line without a
usable value, so a rename or deletion in ``src/`` must fail here, in a
second, rather than only in the end-to-end run.
"""

from benchmarks.e2e import ledger
from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.harness import MARENOSTRUM4, JobSpec


def test_every_ledger_metric_resolves():
    spec = JobSpec(machine=MARENOSTRUM4.with_cores(4), n_nodes=2,
                   variant="mpi", seed=1)
    params = GSParams(rows=32, cols=64, timesteps=1, block_size=32,
                      compute_data=False)
    _, led = ledger.profile(lambda: run_gauss_seidel(spec, params))
    values, notes = ledger.metrics(led)
    assert notes == {}
    assert [name for name, v in values.items() if v is None] == []
    # the wire counters saw the job: the halo exchange goes through
    # isend_batch -> Cluster.send_batch -> Cluster.send
    assert values["network.send_batch_calls"] > 0
    assert values["network.send_calls"] >= values["network.send_batch_msgs"]
