"""Property-based tests for the power model and phase executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import THETA_NODE
from repro.power.execution import execute_phase
from repro.power.model import PhaseKind, operating_point
from repro.power.rapl import CapMode, RaplDomainArray

phase_kinds = st.builds(
    PhaseKind,
    name=st.just("p"),
    k_watts=st.floats(5.0, 120.0),
    gamma=st.floats(0.1, 4.0),
    beta=st.floats(0.0, 1.5),
)

caps = st.floats(98.0, 215.0)


@given(phase_kinds, caps)
@settings(max_examples=100, deadline=None)
def test_draw_never_exceeds_cap_or_saturation(kind, cap):
    op = operating_point(kind, THETA_NODE, cap)
    demand_turbo = float(kind.demand(THETA_NODE, THETA_NODE.f_turbo))
    assert op.draw_watts[0] <= max(cap, demand_turbo) + 1e-9
    assert op.draw_watts[0] <= demand_turbo + 1e-9
    assert op.draw_watts[0] > 0


@given(phase_kinds, caps, caps)
@settings(max_examples=100, deadline=None)
def test_speed_monotone_in_cap(kind, cap_a, cap_b):
    lo, hi = sorted((cap_a, cap_b))
    op_lo = operating_point(kind, THETA_NODE, lo)
    op_hi = operating_point(kind, THETA_NODE, hi)
    assert op_hi.speed[0] >= op_lo.speed[0] - 1e-12


@given(phase_kinds, caps)
@settings(max_examples=100, deadline=None)
def test_speed_bounded_by_turbo(kind, cap):
    op = operating_point(kind, THETA_NODE, cap)
    max_speed = float(kind.speed(THETA_NODE, THETA_NODE.f_turbo))
    assert 0 < op.speed[0] <= max_speed + 1e-12


@given(
    phase_kinds,
    st.floats(0.01, 20.0),
    caps,
)
@settings(max_examples=60, deadline=None)
def test_execution_duration_matches_operating_point(kind, work, cap):
    dom = RaplDomainArray(THETA_NODE, 1, cap, actuation_delay_s=0.0)
    out = execute_phase(kind, THETA_NODE, work, dom, t_start=0.0)
    op = operating_point(kind, THETA_NODE, cap)
    assert out.durations[0] == pytest.approx(work / op.speed[0])
    assert out.energy_joules[0] == pytest.approx(
        out.durations[0] * op.draw_watts[0]
    )


@given(
    phase_kinds,
    st.floats(0.01, 20.0),
    caps,
    caps,
)
@settings(max_examples=60, deadline=None)
def test_execution_never_slower_with_more_power(kind, work, cap_a, cap_b):
    lo, hi = sorted((cap_a, cap_b))
    d_lo = execute_phase(
        kind,
        THETA_NODE,
        work,
        RaplDomainArray(THETA_NODE, 1, lo, actuation_delay_s=0.0),
        0.0,
    ).durations[0]
    d_hi = execute_phase(
        kind,
        THETA_NODE,
        work,
        RaplDomainArray(THETA_NODE, 1, hi, actuation_delay_s=0.0),
        0.0,
    ).durations[0]
    assert d_hi <= d_lo + 1e-9


@given(
    phase_kinds,
    st.floats(0.1, 10.0),
    caps,
    caps,
    st.floats(0.05, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_mid_phase_cap_change_conserves_work(kind, work, cap_a, cap_b, frac):
    """Splitting a phase across a cap change must complete exactly the
    same work as the unsplit executions would imply."""
    dom = RaplDomainArray(THETA_NODE, 1, cap_a, actuation_delay_s=0.0)
    op_a = operating_point(kind, THETA_NODE, dom.segment_at(0.0)[0])
    total_a = work / op_a.speed[0]
    t_switch = frac * total_a
    dom2 = RaplDomainArray(
        THETA_NODE, 1, cap_a, actuation_delay_s=t_switch
    )
    dom2.request_caps(cap_b, now=0.0)
    out = execute_phase(kind, THETA_NODE, work, dom2, t_start=0.0)
    # reconstruct work done from the two operating points
    op_a_eff = operating_point(kind, THETA_NODE, dom.segment_at(0.0)[0])
    op_b = operating_point(kind, THETA_NODE, np.atleast_1d(cap_b))
    d = out.durations[0]
    if d <= t_switch + 1e-12:
        done = d * op_a_eff.speed[0]
    else:
        done = (
            t_switch * op_a_eff.speed[0]
            + (d - t_switch) * op_b.speed[0]
        )
    assert done == pytest.approx(work, rel=1e-6)


# ----------------------------------------------------------------------
# The single-node branch of execute_phase (Python floats) against the
# array loop. Node 0 of a 2-node domain with identical caps and noise
# runs the array loop on the same operating point, so it is the oracle;
# a 1-node domain with collect_segments=True is the array loop at n=1.
def _run_three_ways(kind, work, noise, cap0, cap1, request_at, delay, mode, t_start):
    outs = []
    for n, collect in ((1, False), (2, False), (1, True)):
        dom = RaplDomainArray(
            THETA_NODE, n, cap0, mode=mode, actuation_delay_s=delay
        )
        if cap1 is not None:
            dom.request_caps(cap1, now=request_at)
        outs.append(
            execute_phase(
                kind,
                THETA_NODE,
                work,
                dom,
                t_start,
                noise_factors=noise if n == 1 else np.full(n, noise),
                collect_segments=collect,
            )
        )
    return outs


def _assert_same_as_array_loop(outs):
    single, pair, collected = outs
    for oracle in (pair, collected):
        assert single.durations[0] == oracle.durations[0]
        assert single.energy_joules[0] == oracle.energy_joules[0]
    assert pair.durations[0] == pair.durations[1]


@given(
    kind=phase_kinds,
    work=st.one_of(st.just(0.0), st.floats(1e-9, 20.0)),
    noise=st.one_of(st.just(0.0), st.floats(0.5, 2.0)),
    cap0=caps,
    cap1=st.one_of(st.none(), caps),
    request_at=st.floats(0.0, 10.0),
    delay=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    mode=st.sampled_from(list(CapMode)),
    t_start=st.floats(0.0, 10.0),
)
@settings(max_examples=300, deadline=None)
def test_single_node_branch_matches_array_loop(
    kind, work, noise, cap0, cap1, request_at, delay, mode, t_start
):
    outs = _run_three_ways(
        kind, work, noise, cap0, cap1, request_at, delay, mode, t_start
    )
    _assert_same_as_array_loop(outs)


@given(
    work=st.floats(0.1, 10.0),
    frac=st.floats(0.01, 0.99),
    k_watts=st.floats(80.0, 120.0),
    gamma=st.floats(0.1, 0.5),
    cap0=st.floats(98.0, 105.0),
    cap1=caps,
    mode=st.sampled_from([CapMode.LONG, CapMode.LONG_SHORT]),
)
@settings(max_examples=100, deadline=None)
def test_single_node_branch_duty_cycled_with_pending_change(
    work, frac, k_watts, gamma, cap0, cap1, mode
):
    """Caps below demand(f_min) duty-cycle the node; a change pending
    mid-phase splits it into two segments."""
    kind = PhaseKind("starved", k_watts=k_watts, gamma=gamma, beta=1.0)
    assert cap0 < float(kind.demand(THETA_NODE, THETA_NODE.f_min))
    # land the change inside the phase: a fraction of its starved length
    starved = operating_point(kind, THETA_NODE, cap0 * mode.undershoot)
    delay = frac * work / float(starved.speed[0])
    outs = _run_three_ways(kind, work, 1.0, cap0, cap1, 0.0, delay, mode, 0.0)
    _assert_same_as_array_loop(outs)
    assert len(outs[2].segments) == 2
