"""Tests for the phase executor (work -> durations/energy under caps)."""

import numpy as np
import pytest

from repro.cluster.node import THETA_NODE
from repro.power.execution import execute_phase, wait_energy
from repro.power.model import PhaseKind, operating_point
from repro.power.rapl import RaplDomainArray

COMPUTE = PhaseKind("force", k_watts=85.0, gamma=2.0, beta=1.0)
COMM = PhaseKind("comm", k_watts=38.0, gamma=0.1, beta=0.05)


def make_domain(n=2, cap=110.0, delay=0.0):
    return RaplDomainArray(THETA_NODE, n, cap, actuation_delay_s=delay)


def test_duration_is_work_over_speed():
    dom = make_domain(n=1, cap=150.0)  # demand at base = 150 -> speed 1.0
    out = execute_phase(COMPUTE, THETA_NODE, 4.0, dom, t_start=0.0)
    assert out.durations[0] == pytest.approx(4.0)


def test_higher_cap_runs_faster():
    lo = execute_phase(COMPUTE, THETA_NODE, 4.0, make_domain(1, 105.0), 0.0)
    hi = execute_phase(COMPUTE, THETA_NODE, 4.0, make_domain(1, 170.0), 0.0)
    assert hi.durations[0] < lo.durations[0]


def test_energy_is_draw_times_duration():
    dom = make_domain(n=1, cap=120.0)
    out = execute_phase(COMPUTE, THETA_NODE, 2.0, dom, t_start=0.0)
    op = operating_point(COMPUTE, THETA_NODE, 120.0)
    assert out.energy_joules[0] == pytest.approx(
        out.durations[0] * op.draw_watts[0]
    )


def test_noise_factors_scale_duration():
    dom = make_domain(n=3, cap=150.0)
    noise = np.array([1.0, 1.1, 0.9])
    out = execute_phase(
        COMPUTE, THETA_NODE, 2.0, dom, t_start=0.0, noise_factors=noise
    )
    assert np.allclose(out.durations, 2.0 * noise)
    assert out.slowest == pytest.approx(2.2)
    assert out.fastest == pytest.approx(1.8)


def test_cap_change_mid_phase_splits_execution():
    # Start throttled at 98 W; raise the cap to 215 W effective at t=1.
    dom = make_domain(n=1, cap=98.0, delay=1.0)
    dom.request_caps(215.0, now=0.0)
    work = 4.0
    out = execute_phase(COMPUTE, THETA_NODE, work, dom, t_start=0.0)
    s_low = operating_point(COMPUTE, THETA_NODE, 98.0).speed[0]
    s_high = operating_point(COMPUTE, THETA_NODE, 215.0).speed[0]
    expected = 1.0 + (work - 1.0 * s_low) / s_high
    assert out.durations[0] == pytest.approx(expected)


def test_cap_change_energy_accounting():
    dom = make_domain(n=1, cap=98.0, delay=1.0)
    dom.request_caps(215.0, now=0.0)
    out = execute_phase(COMPUTE, THETA_NODE, 4.0, dom, t_start=0.0)
    draw_low = operating_point(COMPUTE, THETA_NODE, 98.0).draw_watts[0]
    draw_high = operating_point(COMPUTE, THETA_NODE, 215.0).draw_watts[0]
    expected = 1.0 * draw_low + (out.durations[0] - 1.0) * draw_high
    assert out.energy_joules[0] == pytest.approx(expected)


def test_zero_work_completes_instantly():
    dom = make_domain(n=2)
    out = execute_phase(COMPUTE, THETA_NODE, 0.0, dom, t_start=5.0)
    assert np.allclose(out.durations, 0.0)
    assert np.allclose(out.energy_joules, 0.0)


def test_negative_work_rejected():
    with pytest.raises(ValueError):
        execute_phase(COMPUTE, THETA_NODE, -1.0, make_domain(), 0.0)


@pytest.mark.parametrize("work", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_work_rejected(work):
    with pytest.raises(ValueError, match="finite"):
        execute_phase(COMPUTE, THETA_NODE, work, make_domain(), 0.0)


BAD_NOISE = [float("nan"), -1.0, float("inf")]


@pytest.mark.parametrize("bad", BAD_NOISE)
@pytest.mark.parametrize(
    "n, collect", [(1, False), (1, True), (2, False)], ids=["float", "array-1", "array-2"]
)
def test_bad_noise_factors_rejected(bad, n, collect):
    """NaN and negative factors used to yield a silent zero-length,
    zero-energy phase and ``inf`` an infinite one."""
    noise = np.full(n, 1.0)
    noise[-1] = bad
    with pytest.raises(ValueError, match="noise factors"):
        execute_phase(
            COMPUTE,
            THETA_NODE,
            1.0,
            make_domain(n),
            0.0,
            noise_factors=noise,
            collect_segments=collect,
        )


@pytest.mark.parametrize("bad", BAD_NOISE)
def test_bad_scalar_noise_factor_rejected(bad):
    with pytest.raises(ValueError, match="noise factors"):
        execute_phase(COMPUTE, THETA_NODE, 1.0, make_domain(1), 0.0, noise_factors=bad)


def test_length_one_noise_array_matches_scalar():
    scalar = execute_phase(
        COMPUTE, THETA_NODE, 2.0, make_domain(1), 0.0, noise_factors=1.3
    )
    array = execute_phase(
        COMPUTE, THETA_NODE, 2.0, make_domain(1), 0.0, noise_factors=np.array([1.3])
    )
    assert array.durations.tolist() == scalar.durations.tolist()
    assert array.energy_joules.tolist() == scalar.energy_joules.tolist()
    with pytest.raises(ValueError):
        execute_phase(
            COMPUTE, THETA_NODE, 2.0, make_domain(1), 0.0, noise_factors=np.ones(2)
        )


def test_segments_collected_when_requested():
    dom = make_domain(n=1, cap=98.0, delay=1.0)
    dom.request_caps(215.0, now=0.0)
    out = execute_phase(
        COMPUTE, THETA_NODE, 4.0, dom, t_start=0.0, collect_segments=True
    )
    assert len(out.segments) == 2
    assert out.segments[0].t1 == pytest.approx(1.0)
    assert out.segments[0].draw_watts[0] == pytest.approx(98.0)


def test_comm_phase_duration_cap_invariant():
    lo = execute_phase(COMM, THETA_NODE, 1.0, make_domain(1, 105.0), 0.0)
    hi = execute_phase(COMM, THETA_NODE, 1.0, make_domain(1, 215.0), 0.0)
    assert hi.durations[0] == pytest.approx(lo.durations[0], rel=0.05)


def test_wait_energy_clipped_by_cap():
    dom = make_domain(n=2, cap=98.0)
    e = wait_energy(THETA_NODE, dom, np.array([1.0, 2.0]), t=0.0)
    assert np.allclose(e, [98.0, 196.0])
    dom_open = make_domain(n=2, cap=215.0)
    e2 = wait_energy(THETA_NODE, dom_open, np.array([1.0, 1.0]), t=0.0)
    assert np.allclose(e2, THETA_NODE.p_wait_watts)


def test_per_node_heterogeneous_caps():
    dom = make_domain(n=2, cap=110.0, delay=0.0)
    dom.request_caps(np.array([98.0, 180.0]), now=0.0)
    out = execute_phase(COMPUTE, THETA_NODE, 3.0, dom, t_start=0.0)
    assert out.durations[1] < out.durations[0]
