"""Power substrate: phase power model, RAPL emulation, traces."""

from repro.power.execution import (
    DrawSegment,
    PhaseOutcome,
    execute_phase,
    wait_energy,
)
from repro.power.model import OperatingPoint, PhaseKind, operating_point
from repro.power.rapl import CapMode, RaplDomainArray
from repro.power.trace import PowerTrace, sample_trace

__all__ = [
    "CapMode",
    "DrawSegment",
    "OperatingPoint",
    "PhaseKind",
    "PhaseOutcome",
    "PowerTrace",
    "RaplDomainArray",
    "execute_phase",
    "operating_point",
    "sample_trace",
    "wait_energy",
]
