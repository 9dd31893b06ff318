"""Integration tests: Streaming pipeline variants."""

import numpy as np
import pytest

from repro.apps.streaming import StreamingParams, run_streaming
from repro.apps.streaming.common import expected_output, node_function
from repro.apps.streaming.runner import run_streaming_steady
from repro.apps.streaming.variants import StreamRank
from repro.harness import JobSpec, MARENOSTRUM4, CTE_AMD, build_job
from repro.network import Extent

MACH4 = MARENOSTRUM4.with_cores(4)


def check_outputs(res, spec, params):
    outs = res.extra["outputs"]
    assert outs, "no last-node outputs collected"
    last_chunk = params.chunks - 1
    for r, arr in outs.items():
        bs = params.block_size
        nb = arr.size // bs
        for b in range(nb):
            base = (r % spec.ranks_per_node) * arr.size + b * bs
            src = np.arange(base, base + bs, dtype=np.float64) + last_chunk * 1000.0
            exp = expected_output(spec.n_nodes, src)
            assert np.allclose(arr[b * bs : (b + 1) * bs], exp, rtol=1e-13)


class TestCorrectness:
    @pytest.mark.parametrize("variant", ["mpi", "tampi", "tagaspi"])
    def test_three_node_pipeline(self, variant):
        params = StreamingParams(chunks=4, elements_per_chunk=256, block_size=32)
        spec = JobSpec(machine=MACH4, n_nodes=3, variant=variant, poll_period_us=50)
        res = run_streaming(spec, params, collect_output=True)
        check_outputs(res, spec, params)

    @pytest.mark.parametrize("variant", ["tampi", "tagaspi"])
    def test_two_node_minimal(self, variant):
        params = StreamingParams(chunks=2, elements_per_chunk=64, block_size=64)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant=variant, poll_period_us=50)
        res = run_streaming(spec, params, collect_output=True)
        check_outputs(res, spec, params)

    def test_many_chunks_buffer_reuse(self):
        """Slot reuse across 10 chunks exercises the ack protocol hard."""
        params = StreamingParams(chunks=10, elements_per_chunk=128, block_size=16)
        spec = JobSpec(machine=MACH4, n_nodes=4, variant="tagaspi", poll_period_us=50)
        res = run_streaming(spec, params, collect_output=True)
        check_outputs(res, spec, params)

    def test_node_function_distinct_per_node(self):
        x = np.ones(4)
        assert not np.allclose(node_function(0, x), node_function(1, x))

    def test_single_node_rejected(self):
        params = StreamingParams(chunks=2, elements_per_chunk=64, block_size=32)
        with pytest.raises(ValueError):
            run_streaming(JobSpec(machine=MACH4, n_nodes=1, variant="mpi"), params)

    def test_block_size_must_divide(self):
        with pytest.raises(ValueError):
            StreamingParams(chunks=1, elements_per_chunk=100, block_size=33)


class TestModelMode:
    def test_rank_owns_only_its_ack_array(self):
        """Model mode never reads the chunk buffers, so they are Extents;
        the one-element ack segment is the only array a rank owns."""
        params = StreamingParams(chunks=2, elements_per_chunk=256,
                                 block_size=32, compute_data=False)
        job = build_job(JobSpec(machine=MACH4, n_nodes=3, variant="tagaspi"))
        for rank in range(job.spec.n_ranks):
            sr = StreamRank(job, params, rank)
            arrays = [k for k, v in vars(sr).items()
                      if isinstance(v, np.ndarray)]
            assert arrays == ["ack_mem"]
            for buf in (sr.rbuf, sr.sbuf):
                assert isinstance(buf, Extent)
                assert (buf.size, buf.dtype) == (sr.elems, np.float64)


class TestPerformanceModel:
    def test_steady_state_faster_than_cold(self):
        params = StreamingParams(chunks=8, elements_per_chunk=4096,
                                 block_size=512, compute_data=False)
        spec = JobSpec(machine=MACH4, n_nodes=3, variant="mpi")
        steady = run_streaming_steady(spec, params, warm_chunks=4)
        full = run_streaming(spec, params)
        assert steady.throughput >= full.throughput

    def test_tampi_time_in_mpi_grows_with_message_count(self):
        """§VI-C mechanism: smaller blocks => more messages => more time
        inside the MPI library for the TAMPI variant."""
        def time_in_mpi(bs):
            params = StreamingParams(chunks=6, elements_per_chunk=8192,
                                     block_size=bs, compute_data=False)
            spec = JobSpec(machine=MARENOSTRUM4, n_nodes=3, variant="tampi",
                           poll_period_us=15)
            return run_streaming(spec, params).extra["time_in_mpi"]

        assert time_in_mpi(256) > 2 * time_in_mpi(2048)

    def test_tagaspi_beats_tampi_at_fine_grain_on_infiniband(self):
        def thr(variant):
            params = StreamingParams(chunks=8, elements_per_chunk=16384,
                                     block_size=512, compute_data=False)
            spec = JobSpec(machine=CTE_AMD, n_nodes=3, variant=variant,
                           poll_period_us=15)
            return run_streaming_steady(spec, params, warm_chunks=4).throughput

        assert thr("tagaspi") > thr("tampi")
