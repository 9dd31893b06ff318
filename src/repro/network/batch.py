"""Stub kept only for the frozen benchmark ledger (``benchmarks/e2e/ledger.py``).

The ledger reports ``network.batch.self_s`` from this file and
``network.batch_eligible_ratio`` by wrapping :func:`batch_eligible`; a
missing name would turn both metrics ``null``. Every send is one
:meth:`repro.network.Cluster.send`, so nothing calls this and the ratio
reads 0.0 ("no batch attempted"). Delete it with the ledger's rows.
"""


def batch_eligible(cluster, msgs) -> bool:
    """No vectorized wire path exists; always ``False``."""
    return False
