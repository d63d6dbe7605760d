"""Collective release: wake order and pinned trajectories.

A finished collective wakes every member from ONE heap event, resuming
waiters inline in the order they joined the round. The trajectories
below were captured when the per-rank wakeup scheme (one zero-delay
event per member) still existed and produced the same trace; they pin
the virtual times, values, wake order and event count as literals.
"""

import pytest

from repro.des import Delay, Engine, SimulationError
from repro.mpi import LogPCost, MpiWorld


def _run(size, main, cost=None):
    eng = Engine()
    world = MpiWorld(eng, size, cost=cost)
    results = world.run(main)
    return eng, results


# ------------------------------------------------------------- wake order
@pytest.mark.parametrize("with_cost", [True, False])
def test_release_order_is_join_order(with_cost):
    """Members wake in the order they joined the round, regardless of
    rank id, whether the release is instant or delayed by a cost model."""
    woken = []

    def main(rank, comm):
        # Reverse-staggered arrivals: rank 3 joins first, rank 0 last.
        yield Delay(float(comm.size - 1 - rank))
        yield comm.barrier(rank)
        woken.append(rank)

    _run(4, main, cost=LogPCost() if with_cost else None)
    assert woken == [3, 2, 1, 0]


@pytest.mark.parametrize("with_cost", [True, False])
def test_deliver_op_release_order_is_join_order(with_cost):
    """Split wraps the shared event per rank (deliver op); the per-rank
    values and the wake order must follow join order, with or without
    a cost model delaying the release."""
    woken = []

    def main(rank, comm):
        yield Delay(float(rank % 2))  # ranks 0,2 join first, then 1,3
        sub = yield comm.split(rank, color=rank % 2, key=-rank)
        woken.append((rank, sub.world_ranks))

    _run(4, main, cost=LogPCost() if with_cost else None)
    assert woken == [(0, (2, 0)), (2, (2, 0)), (1, (3, 1)), (3, (3, 1))]


# ------------------------------------------------- pinned trajectories
class _LinearCost:
    """Deterministic nonzero cost model local to this test: collective
    and point-to-point times scale with size and payload so release
    times land at distinct, representative floats."""

    def p2p_time(self, nbytes: int) -> float:
        return 1e-5 + nbytes * 1e-9

    def collective_time(self, op: str, size: int, nbytes: int) -> float:
        return (1e-4 + nbytes * 1e-9) * size


def _mixed_workload(trace):
    def main(rank, comm):
        yield Delay(0.01 * rank)
        total = yield comm.allreduce(rank, rank + 1)
        trace.append(("allreduce", rank, comm.engine.now, total))
        got = yield comm.bcast(rank, "seed" if rank == 2 else None, root=2)
        trace.append(("bcast", rank, comm.engine.now, got))
        row = yield comm.allgather(rank, rank * rank)
        trace.append(("allgather", rank, comm.engine.now, row))
        sub = yield comm.split(rank, color=rank % 2, key=-rank)
        trace.append(("split", rank, comm.engine.now, sub.world_ranks))
        me = sub.translate_world_rank(rank)
        yield sub.send(me, 1 - me, f"m{rank}" * (rank + 1), tag=me)
        msg = yield sub.recv(me, source=1 - me)
        trace.append(("p2p", rank, comm.engine.now, msg))
        yield comm.barrier(rank)
        trace.append(("barrier", rank, comm.engine.now, None))
        return total

    return main


def _collective_rows(t_allreduce, t_bcast, t_allgather, t_split):
    rows = []
    for op, t, value in (
        ("allreduce", t_allreduce, lambda r: 10),
        ("bcast", t_bcast, lambda r: "seed"),
        ("allgather", t_allgather, lambda r: [0, 1, 4, 9]),
        ("split", t_split, lambda r: (2, 0) if r % 2 == 0 else (3, 1)),
    ):
        rows += [(op, r, t, value(r)) for r in range(4)]
    return rows


_MSG = {0: "m2m2m2", 1: "m3m3m3m3", 2: "m0", 3: "m1m1"}

_ZERO_TRACE = _collective_rows(0.03, 0.03, 0.03, 0.03) + [
    ("p2p", 0, 0.03, _MSG[0]),
    ("p2p", 1, 0.03, _MSG[1]),
    ("p2p", 2, 0.03, _MSG[2]),
    ("p2p", 3, 0.03, _MSG[3]),
    ("barrier", 0, 0.03, None),
    ("barrier", 1, 0.03, None),
    ("barrier", 2, 0.03, None),
    ("barrier", 3, 0.03, None),
]

_LOGP_TRACE = _collective_rows(
    0.030004021999999998,
    0.030008042999999998,
    0.030012064999999997,
    0.030016088999999996,
) + [
    ("p2p", 0, 0.030018089749999997, _MSG[0]),
    ("p2p", 2, 0.030018089749999997, _MSG[2]),
    ("p2p", 1, 0.030018089999999997, _MSG[1]),
    ("p2p", 3, 0.030018089999999997, _MSG[3]),
    ("barrier", 0, 0.030022109999999998, None),
    ("barrier", 2, 0.030022109999999998, None),
    ("barrier", 1, 0.030022109999999998, None),
    ("barrier", 3, 0.030022109999999998, None),
]

_LINEAR_TRACE = _collective_rows(
    0.030400032, 0.030800048, 0.03120008, 0.031600144000000004
) + [
    ("p2p", 0, 0.031610150000000004, _MSG[0]),
    ("p2p", 2, 0.031610150000000004, _MSG[2]),
    ("p2p", 1, 0.031610152, _MSG[1]),
    ("p2p", 3, 0.031610152, _MSG[3]),
    ("barrier", 0, 0.032010152, None),
    ("barrier", 2, 0.032010152, None),
    ("barrier", 1, 0.032010152, None),
    ("barrier", 3, 0.032010152, None),
]


@pytest.mark.parametrize(
    "cost, expected",
    [
        pytest.param(None, _ZERO_TRACE, id="zero"),
        pytest.param(LogPCost(), _LOGP_TRACE, id="logp"),
        pytest.param(_LinearCost(), _LINEAR_TRACE, id="linear"),
    ],
)
def test_trajectory_pinned(cost, expected):
    trace = []
    eng, results = _run(4, _mixed_workload(trace), cost=cost)
    assert trace == expected
    assert results == [10, 10, 10, 10]
    assert eng.now == expected[-1][2]
    # one release event per collective round
    assert eng.events_executed == 29


def test_late_join_after_release_still_errors():
    """Joining a collective round twice is a structural error in both
    paths (guard unchanged by the coalesced release)."""

    def main(rank, comm):
        yield comm.barrier(rank)
        if rank == 0:
            ev = comm.barrier(rank)
            with pytest.raises(SimulationError):
                comm.barrier(rank)  # double-join the open round
            comm.barrier(1 - rank)  # let the round finish
            yield ev

    _run(2, main)
