"""hmpi — MPI emulation over the plugin backplane (§3's MPI plugin)."""

import time

import numpy as np
import pytest

from repro.core.builder import HarnessDvm
from repro.netsim import lan
from repro.plugins import BASELINE_PLUGINS
from repro.plugins.hmpi import MAX, MIN, PROD, SUM, MpiPlugin
from repro.util.errors import PluginError


# -- rank programs (importable for remote placement) -------------------------------

def rank_identity(mpi):
    return (mpi.rank, mpi.size)


def ring_pass(mpi):
    """Each rank sends its rank to the next; returns what it received."""
    mpi.send((mpi.rank + 1) % mpi.size, mpi.rank, tag=1)
    return mpi.recv(tag=1)


def pi_integration(mpi, intervals):
    """The classic MPI cpi.c: integrate 4/(1+x^2) over [0,1]."""
    h = 1.0 / intervals
    local = sum(
        4.0 / (1.0 + ((i + 0.5) * h) ** 2)
        for i in range(mpi.rank, intervals, mpi.size)
    ) * h
    return mpi.allreduce(local, op=SUM)


def collective_suite(mpi):
    out = {}
    out["bcast"] = mpi.bcast({"data": 42} if mpi.rank == 0 else None, root=0)
    out["scatter"] = mpi.scatter(
        [i * 10 for i in range(mpi.size)] if mpi.rank == 0 else None, root=0
    )
    out["gather"] = mpi.gather(mpi.rank + 1, root=0)
    out["allgather"] = mpi.allgather(mpi.rank * 2)
    out["reduce"] = mpi.reduce(mpi.rank + 1, op=SUM, root=0)
    out["allreduce_max"] = mpi.allreduce(mpi.rank, op=MAX)
    mpi.barrier()
    return out


def split_program(mpi):
    """Even/odd sub-communicators each allreduce their ranks."""
    sub = mpi.split(color=mpi.rank % 2)
    assert sub is not None
    return (mpi.rank, sub.rank, sub.size, sub.allreduce(mpi.rank, op=SUM))


def array_allreduce(mpi, n):
    data = np.full(n, float(mpi.rank + 1))
    return mpi.allreduce(data, op=SUM)


@pytest.fixture
def cluster():
    net = lan(3)
    with HarnessDvm("mpi-dvm", net) as harness:
        harness.add_nodes("node0", "node1", "node2")
        for plugin in BASELINE_PLUGINS:
            harness.load_plugin_everywhere(plugin)
        for host in harness.kernels:
            harness.load_plugin(host, MpiPlugin(root_host="node0"))
        yield harness, net


@pytest.fixture
def mpi(cluster):
    harness, _ = cluster
    return harness.kernel("node0").get_service("mpi")


class TestLaunch:
    def test_world_ranks(self, mpi):
        results = mpi.run(rank_identity, world_size=4)
        assert results == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_single_rank_world(self, mpi):
        assert mpi.run(rank_identity, world_size=1) == [(0, 1)]

    def test_rank_error_propagates(self, mpi):
        def boom(ctx):
            raise ValueError("rank failure")

        with pytest.raises(PluginError, match="rank failure"):
            mpi.run(boom, world_size=2)

    def test_bad_placement_length(self, mpi):
        with pytest.raises(PluginError):
            mpi.run(rank_identity, world_size=2, placement=["node0"])

    def test_remote_placement_requires_path(self, mpi):
        with pytest.raises(PluginError, match="import path"):
            mpi.run(rank_identity, world_size=2, placement=["node0", "node1"])

    def test_cross_host_world(self, mpi, cluster):
        _, net = cluster
        before = net.total_messages
        results = mpi.run(
            "tests.plugins.test_hmpi:ring_pass", world_size=3,
            placement=["node0", "node1", "node2"],
        )
        # ring: rank i receives from i-1
        assert results == [2, 0, 1]
        assert net.total_messages > before  # cross-kernel traffic happened


class TestPointToPoint:
    def test_ring(self, mpi):
        assert mpi.run(ring_pass, world_size=4) == [3, 0, 1, 2]

    def test_sendrecv_exchange(self, mpi):
        def exchange(ctx):
            partner = ctx.rank ^ 1
            return ctx.sendrecv(partner, f"from{ctx.rank}", source=partner)

        assert mpi.run(exchange, world_size=2) == ["from1", "from0"]

    def test_any_source(self, mpi):
        def program(ctx):
            if ctx.rank == 0:
                got = {ctx.recv(source=None, tag=7) for _ in range(ctx.size - 1)}
                return sorted(got)
            ctx.send(0, ctx.rank, tag=7)
            return None

        results = mpi.run(program, world_size=3)
        assert results[0] == [1, 2]

    def test_out_of_range_rank(self, mpi):
        def program(ctx):
            ctx.send(99, "x")

        with pytest.raises(PluginError, match="out of range"):
            mpi.run(program, world_size=2)


class TestCollectives:
    def test_suite_all_ranks_agree(self, mpi):
        size = 4
        results = mpi.run(collective_suite, world_size=size)
        for rank, out in enumerate(results):
            assert out["bcast"] == {"data": 42}
            assert out["scatter"] == rank * 10
            assert out["allgather"] == [0, 2, 4, 6]
            assert out["allreduce_max"] == size - 1
        assert results[0]["gather"] == [1, 2, 3, 4]
        assert results[0]["reduce"] == 10
        for rank in range(1, size):
            assert results[rank]["gather"] is None
            assert results[rank]["reduce"] is None

    def test_pi_integration(self, mpi):
        results = mpi.run(pi_integration, world_size=4, args=(1000,))
        for value in results:
            assert value == pytest.approx(np.pi, abs=1e-5)
        assert len(set(results)) == 1  # allreduce gave identical answers

    def test_array_allreduce(self, mpi):
        results = mpi.run(array_allreduce, world_size=3, args=(16,))
        expected = np.full(16, 1.0 + 2.0 + 3.0)
        for out in results:
            assert np.array_equal(out, expected)

    def test_reduce_operators(self, mpi):
        def program(ctx):
            return (
                ctx.allreduce(ctx.rank + 1, op=SUM),
                ctx.allreduce(ctx.rank + 1, op=PROD),
                ctx.allreduce(ctx.rank + 1, op=MIN),
                ctx.allreduce(ctx.rank + 1, op=MAX),
            )

        for out in mpi.run(program, world_size=3):
            assert out == (6, 6, 1, 3)

    def test_alltoall(self, mpi):
        def program(ctx):
            chunks = [f"{ctx.rank}->{dst}" for dst in range(ctx.size)]
            return ctx.alltoall(chunks)

        results = mpi.run(program, world_size=3)
        for dst, row in enumerate(results):
            assert row == [f"{src}->{dst}" for src in range(3)]

    def test_scatter_wrong_chunk_count(self, mpi):
        """Rank 0 fails at once; rank 1, parked in recv, is aborted with it
        instead of riding out the 30 s collective timeout."""
        def program(ctx):
            if ctx.rank == 0:
                ctx.scatter([1], root=0)
            else:
                ctx.scatter(None, root=0)

        started = time.monotonic()
        with pytest.raises(PluginError, match="rank 0: .*exactly 2 chunks"):
            mpi.run(program, world_size=2)
        assert time.monotonic() - started < 1.0


class TestCommSplit:
    def test_even_odd_split(self, mpi):
        results = mpi.run(split_program, world_size=4)
        by_world_rank = {r[0]: r for r in results}
        # evens: world ranks 0,2 → sub ranks 0,1; sum of world ranks 2
        assert by_world_rank[0][1:] == (0, 2, 2)
        assert by_world_rank[2][1:] == (1, 2, 2)
        # odds: world ranks 1,3 → sum 4
        assert by_world_rank[1][1:] == (0, 2, 4)
        assert by_world_rank[3][1:] == (1, 2, 4)

    def test_opt_out_color(self, mpi):
        def program(ctx):
            sub = ctx.split(color=-1 if ctx.rank == 0 else 0)
            if sub is None:
                return "opted-out"
            return sub.allreduce(1, op=SUM)

        results = mpi.run(program, world_size=3)
        assert results[0] == "opted-out"
        assert results[1] == results[2] == 2


def nonblocking_exchange(mpi):
    """mpi4py-tutorial style isend/irecv exchange between two ranks."""
    partner = mpi.rank ^ 1
    send_req = mpi.isend(partner, {"from": mpi.rank}, tag=11)
    recv_req = mpi.irecv(source=partner, tag=11)
    send_req.wait()
    return recv_req.wait()


class TestNonblocking:
    def test_isend_irecv_exchange(self, mpi):
        results = mpi.run(nonblocking_exchange, world_size=2)
        assert results == [{"from": 1}, {"from": 0}]

    def test_isend_completes_immediately(self, mpi):
        def program(ctx):
            if ctx.rank == 0:
                req = ctx.isend(1, "x", tag=1)
                return req.completed
            ctx.recv(tag=1)
            return True

        assert mpi.run(program, world_size=2) == [True, True]

    def test_irecv_test_polls(self, mpi):
        def program(ctx):
            if ctx.rank == 1:
                req = ctx.irecv(source=0, tag=2)
                done, _ = req.test()
                first_poll = done  # may be False before the send lands
                ctx.barrier()      # rank 0 sends before the barrier
                import time
                value = None
                for _ in range(200):
                    done, value = req.test()
                    if done:
                        break
                    time.sleep(0.005)
                return (first_poll, done, value)
            ctx.send(1, "payload", tag=2)
            ctx.barrier()
            return None

        results = mpi.run(program, world_size=2)
        first_poll, done, value = results[1]
        assert done is True and value == "payload"

    def test_irecv_test_skips_wrong_source(self, mpi):
        def program(ctx):
            if ctx.rank == 0:
                # both peers send on the same tag; request pinned to source 2
                req = ctx.irecv(source=2, tag=5)
                value = req.wait(timeout=10)
                other = ctx.recv(source=1, tag=5, timeout=10)
                return (value, other)
            ctx.send(0, f"from{ctx.rank}", tag=5)
            return None

        results = mpi.run(program, world_size=3)
        assert results[0] == ("from2", "from1")
