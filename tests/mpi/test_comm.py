"""Unit tests for the simulated MPI runtime (semantics with zero cost)."""

import numpy as np
import pytest

from repro.des import Engine, SimulationError
from repro.mpi import ANY_SOURCE, ANY_TAG, LogPCost, MpiWorld, ZeroCost, payload_nbytes


def run_world(size, main, cost=None):
    eng = Engine()
    world = MpiWorld(eng, size, cost=cost)
    return eng, world.run(main)


# ---------------------------------------------------------------- barrier
def test_barrier_releases_all_ranks_together():
    release_times = {}

    def main(rank, comm):
        from repro.des import Delay

        yield Delay(float(rank))
        yield comm.barrier(rank)
        release_times[rank] = comm.engine.now

    eng, _ = run_world(4, main)
    # Last rank arrives at t=3; everyone released then (zero cost).
    assert all(t == 3.0 for t in release_times.values())


def test_barrier_reusable_in_loop():
    order = []

    def main(rank, comm):
        for it in range(3):
            yield comm.barrier(rank)
            order.append((it, rank))

    run_world(2, main)
    assert order == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


# ---------------------------------------------------------------- bcast
def test_bcast_delivers_root_value():
    def main(rank, comm):
        value = "hello" if rank == 1 else None
        got = yield comm.bcast(rank, value, root=1)
        return got

    _, results = run_world(3, main)
    assert results == ["hello", "hello", "hello"]


# ---------------------------------------------------------------- gather
def test_allgather_collects_everywhere():
    def main(rank, comm):
        got = yield comm.allgather(rank, rank + 1)
        return got

    _, results = run_world(3, main)
    assert results == [[1, 2, 3]] * 3


# ---------------------------------------------------------------- reduce
def test_allreduce_sum_default():
    def main(rank, comm):
        got = yield comm.allreduce(rank, rank + 1)
        return got

    _, results = run_world(4, main)
    assert results == [10, 10, 10, 10]


def test_allreduce_custom_op():
    def main(rank, comm):
        got = yield comm.allreduce(rank, rank, op=max)
        return got

    _, results = run_world(5, main)
    assert results == [4] * 5


# ---------------------------------------------------------------- p2p
def test_send_recv_roundtrip():
    def main(rank, comm):
        if rank == 0:
            yield comm.send(0, dest=1, payload={"x": 1}, tag=5)
            return None
        got = yield comm.recv(1, source=0, tag=5)
        return got

    _, results = run_world(2, main)
    assert results[1] == {"x": 1}


def test_recv_posted_before_send():
    def main(rank, comm):
        from repro.des import Delay

        if rank == 0:
            yield Delay(1.0)
            yield comm.send(0, dest=1, payload="late")
            return None
        got = yield comm.recv(1)
        return (comm.engine.now, got)

    _, results = run_world(2, main)
    assert results[1] == (1.0, "late")


def test_tag_matching_skips_mismatched_messages():
    def main(rank, comm):
        if rank == 0:
            yield comm.send(0, dest=1, payload="a", tag=1)
            yield comm.send(0, dest=1, payload="b", tag=2)
            return None
        got2 = yield comm.recv(1, source=0, tag=2)
        got1 = yield comm.recv(1, source=0, tag=1)
        return (got1, got2)

    _, results = run_world(2, main)
    assert results[1] == ("a", "b")


def test_any_source_any_tag_wildcards():
    def main(rank, comm):
        if rank in (0, 1):
            yield comm.send(rank, dest=2, payload=rank, tag=rank + 7)
            return None
        a = yield comm.recv(2, source=ANY_SOURCE, tag=ANY_TAG)
        b = yield comm.recv(2, source=ANY_SOURCE, tag=ANY_TAG)
        return sorted([a, b])

    _, results = run_world(3, main)
    assert results[2] == [0, 1]


# ---------------------------------------------------------------- split
def test_split_builds_subcommunicators():
    def main(rank, comm):
        color = rank % 2
        sub = yield comm.split(rank, color=color, key=rank)
        me = sub.translate_world_rank(rank)
        total = yield sub.allreduce(me, rank)
        return (sub.size, total)

    _, results = run_world(6, main)
    # evens: 0+2+4=6, odds: 1+3+5=9
    assert results == [(3, 6), (3, 9), (3, 6), (3, 9), (3, 6), (3, 9)]


def test_split_negative_color_gets_none():
    def main(rank, comm):
        color = -1 if rank == 0 else 0
        sub = yield comm.split(rank, color=color)
        return None if sub is None else sub.size

    _, results = run_world(3, main)
    assert results == [None, 2, 2]


def test_split_key_orders_ranks():
    def main(rank, comm):
        # Reverse ordering via key.
        sub = yield comm.split(rank, color=0, key=-rank)
        return sub.translate_world_rank(rank)

    _, results = run_world(3, main)
    assert results == [2, 1, 0]


# ---------------------------------------------------------------- errors
def test_rank_out_of_range_raises():
    def main(rank, comm):
        yield comm.barrier(99)

    with pytest.raises(SimulationError):
        run_world(2, main)


def test_deadlock_detected():
    def main(rank, comm):
        if rank == 0:
            yield comm.recv(0)  # nobody ever sends
        else:
            yield comm.barrier(rank)  # rank 0 never joins

    with pytest.raises(SimulationError, match="deadlock"):
        run_world(2, main)


# ---------------------------------------------------------------- costs
def test_logp_collective_cost_grows_with_ranks():
    cost = LogPCost()
    t8 = cost.collective_time("allreduce", 8, 64)
    t1024 = cost.collective_time("allreduce", 1024, 64)
    assert t1024 > t8 > 0


def test_collective_cost_delays_release():
    class FixedCost(ZeroCost):
        def collective_time(self, op, nranks, nbytes):
            return 2.0

    times = {}

    def main(rank, comm):
        yield comm.barrier(rank)
        times[rank] = comm.engine.now

    run_world(3, main, cost=FixedCost())
    assert all(t == 2.0 for t in times.values())


def test_p2p_cost_delays_delivery():
    class SlowWire(ZeroCost):
        def p2p_time(self, nbytes):
            return 1.5

    def main(rank, comm):
        if rank == 0:
            yield comm.send(0, dest=1, payload="x")
            return None
        yield comm.recv(1)
        return comm.engine.now

    _, results = run_world(2, main, cost=SlowWire())
    assert results[1] == 1.5


# ---------------------------------------------------------------- payload
def test_payload_nbytes_numpy():
    assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80


def test_payload_nbytes_containers():
    assert payload_nbytes([1.0, 2.0]) == 16
    assert payload_nbytes({"a": 1}) == 9
    assert payload_nbytes(None) == 0
    assert payload_nbytes(b"abc") == 3
