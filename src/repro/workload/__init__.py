"""Workload harnesses: the closed-system (Little's law) driver and the
query mixes it draws from. Open-system (Poisson) arrivals are served by
:class:`repro.server.Server`."""

from repro.workload.driver import ClosedSystemResult, run_closed_system
from repro.workload.mixes import WorkloadMix

__all__ = [
    "ClosedSystemResult",
    "run_closed_system",
    "WorkloadMix",
]
