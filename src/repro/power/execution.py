"""Phase executor: turn (work, phase kind, caps over time) into
(durations, energies, draw segments).

This is the numerical core shared by the vectorized 1024-node proxy and
the per-rank DES jobs. Given

* a nominal amount of work (seconds at base frequency, speed 1.0),
* per-node noise factors (multiplying duration),
* and the RAPL domain's piecewise-constant cap schedule,

it integrates per-node progress through cap segments and returns exact
per-node completion times plus the energy drawn. Nodes that finish
early are *not* idled here — synchronization waiting is owned by the
caller (the partition), which knows who it is waiting for and charges
the spin-wait power (:attr:`NodeSpec.p_wait_watts`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.node import NodeSpec
from repro.power.model import OperatingPoint, PhaseKind, operating_point
from repro.power.rapl import RaplDomainArray

__all__ = ["DrawSegment", "PhaseOutcome", "execute_phase", "phase_rate", "wait_energy"]


def _operating_point_cached(
    domain: RaplDomainArray, kind: PhaseKind, node: NodeSpec, caps: np.ndarray
):
    """Operating point for ``kind`` under the domain's *current* caps.

    Caps are piecewise-constant, so the resolved point is valid for the
    whole cap segment: it is parked in :attr:`RaplDomainArray.op_cache`,
    which the domain clears whenever the installed caps change. The
    cached arrays are shared — callers must treat them as read-only.
    """
    cache = domain.op_cache
    key = (kind, id(node))
    op = cache.get(key)
    if op is None:
        if caps.size > 1 and (caps == caps[0]).all():
            # Uniform caps (the common controller output): resolve the
            # model on one element and broadcast. Ufuncs are elementwise,
            # so the broadcast view is bit-identical to the full-width
            # computation at 1/n the cost.
            one = operating_point(kind, node, caps[:1])
            shape = caps.shape
            op = OperatingPoint(
                speed=np.broadcast_to(one.speed, shape),
                draw_watts=np.broadcast_to(one.draw_watts, shape),
            )
        else:
            op = operating_point(kind, node, caps)
        cache[key] = op
    return op


def phase_rate(
    domain: RaplDomainArray, kind: PhaseKind, node: NodeSpec, caps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node ``(speed, draw_watts)`` of ``kind`` under ``caps``, the
    domain's current effective caps. Speed is floored at 1e-12 so a
    starved node still finishes; ``draw_watts`` is shared and
    read-only."""
    op = _operating_point_cached(domain, kind, node, caps)
    return np.maximum(op.speed, 1e-12), op.draw_watts


@dataclass(frozen=True)
class DrawSegment:
    """Piecewise-constant per-node power draw over [t0, t1).

    ``draw_watts`` has one entry per node; nodes that already finished
    the phase within this segment contribute their *active* draw only up
    to their completion time — the executor splits segments so that
    within one :class:`DrawSegment` every node is in a single state.
    """

    t0: float
    t1: float
    draw_watts: np.ndarray

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class PhaseOutcome:
    """Result of executing one phase across a partition's nodes."""

    #: per-node phase duration in seconds (from phase start)
    durations: np.ndarray
    #: per-node energy in joules consumed while *active* in the phase
    energy_joules: np.ndarray
    #: trace segments while at least one node was active
    segments: list[DrawSegment] = field(default_factory=list)

    @property
    def slowest(self) -> float:
        return float(self.durations.max())

    @property
    def fastest(self) -> float:
        return float(self.durations.min())


def execute_phase(
    kind: PhaseKind,
    node: NodeSpec,
    work_seconds: float,
    domain: RaplDomainArray,
    t_start: float,
    noise_factors: np.ndarray | float = 1.0,
    collect_segments: bool = False,
) -> PhaseOutcome:
    """Execute ``work_seconds`` of ``kind`` on every node of ``domain``.

    ``noise_factors`` multiplies each node's effective work (OS noise,
    allocation effects — see :mod:`repro.cluster.noise`); every factor
    must be finite and non-negative.
    """
    if not 0.0 <= work_seconds < math.inf:
        raise ValueError(
            f"phase work must be finite and non-negative, got {work_seconds}"
        )
    n = domain.n_nodes
    if n == 1 and not collect_segments:
        # Single-node domain (every per-rank NodeRuntime): the general
        # loop below in Python floats. IEEE + - * / are identical in
        # numpy float64 and float, so the results are bit-equal.
        if isinstance(noise_factors, float):
            noise = noise_factors
        else:
            noise = float(
                np.broadcast_to(np.asarray(noise_factors, dtype=float), (1,))[0]
            )
        if not 0.0 <= noise < math.inf:
            raise ValueError(
                f"noise factors must be finite and non-negative, got {noise}"
            )
        remaining = work_seconds * noise
        duration = energy = 0.0
        t = t_start
        guard = 0
        while remaining > 0.0:
            guard += 1
            if guard > 10_000:
                raise RuntimeError("phase executor failed to converge")
            caps, t_change = domain.segment_at(t)
            op = _operating_point_cached(domain, kind, node, caps)
            speed = max(float(op.speed[0]), 1e-12)
            draw = float(op.draw_watts[0])
            finish_at = t + remaining / speed
            seg_end = min(t_change, finish_at)
            if seg_end <= t:
                if t_change <= t:
                    continue
                seg_end = t_change
            if finish_at <= seg_end:
                energy += (finish_at - t) * draw
                duration = finish_at - t_start
                break
            span = seg_end - t
            remaining = remaining - span * speed
            energy += span * draw
            t = seg_end
        return PhaseOutcome(
            durations=np.array([duration]), energy_joules=np.array([energy])
        )

    noise = np.broadcast_to(np.asarray(noise_factors, dtype=float), (n,))
    if not (0.0 <= noise.min() and noise.max() < math.inf):
        raise ValueError(
            f"noise factors must be finite and non-negative, got {noise!r}"
        )
    remaining = work_seconds * noise  # per-node work still to do (owned)
    durations = np.zeros(n)
    energy = np.zeros(n)
    segments: list[DrawSegment] = []

    t = t_start
    active = remaining > 0.0
    guard = 0
    while active.any():
        guard += 1
        if guard > 10_000:
            raise RuntimeError("phase executor failed to converge")
        caps, t_change = domain.segment_at(t)
        speed, draw = phase_rate(domain, kind, node, caps)
        finish_at = np.where(active, t + remaining / speed, t)
        # The segment ends at the earliest of: next cap change, or the
        # last active node's completion within this cap regime (max over
        # all entries — inactive ones hold t, never above an active one).
        seg_end = min(t_change, float(finish_at.max()))
        if seg_end <= t:
            # Cap change exactly at t (or zero work): apply and retry.
            if t_change <= t:
                # Force pending application by advancing an epsilon-free
                # query; segment_at applies pending when t >= t_act.
                continue
            seg_end = t_change
        span = seg_end - t
        done_in_seg = active & (finish_at <= seg_end)
        still_going = active & ~done_in_seg

        # Progress accounting.
        active_time = np.where(
            done_in_seg, finish_at - t, np.where(still_going, span, 0.0)
        )
        remaining = np.where(
            still_going, remaining - span * speed, np.where(done_in_seg, 0.0, remaining)
        )
        durations = np.where(
            done_in_seg, finish_at - t_start, durations
        )
        energy += active_time * draw
        if collect_segments:
            segments.append(
                DrawSegment(
                    t0=t,
                    t1=seg_end,
                    draw_watts=np.where(active, draw, 0.0).copy(),
                )
            )
        active = still_going
        t = seg_end

    # Zero-work phase: all durations stay 0.
    return PhaseOutcome(durations=durations, energy_joules=energy, segments=segments)


def wait_energy(
    node: NodeSpec,
    domain: RaplDomainArray,
    wait_seconds: np.ndarray,
    t: float,
) -> np.ndarray:
    """Energy of spin-waiting for ``wait_seconds`` per node at time ``t``.

    The wait draw is the MPI busy-wait power clipped by the node's
    enforced cap (a node capped at 98 W cannot burn 105 W waiting).
    Cap changes during waits are ignored — waits follow a controller
    decision by less than the actuation delay only in degenerate
    configurations, and the energy difference is sub-watt-second.
    """
    caps, _ = domain.segment_at(t)
    draw = np.minimum(node.p_wait_watts, caps)
    return np.asarray(wait_seconds, dtype=float) * draw
