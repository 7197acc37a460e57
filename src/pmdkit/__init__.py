"""Missed-detection analysis of a multi-sensor Shewhart change detector
facing an adversary that spends a finite budget to flatten the post-change
mean shift during a transient window.

The library computes the per-slot and windowed miss probabilities in
closed form, finds the adversary's worst-case spend rate, sizes the
sensor count against a miss-probability target, and cross-validates all
of it with a reproducible Monte Carlo simulator. See the demos/ directory
for narrative walkthroughs and the ``pmdkit`` CLI for scripted use.
"""

from .analytics import (
    PmdCurve,
    PmdPoint,
    SlotMiss,
    allocation_miss,
    log_pmd_derivative,
    pmd,
    pmd_curve,
    q0,
    slot_miss,
)
from .errors import (
    ConfigError,
    DomainError,
    InfeasibleAtCapError,
    MonotonicityError,
    NumericalError,
    PmdkitError,
    TransientExceedsWindowError,
)
from .model import (
    AttackScenario,
    DetectorConfig,
    MeanProfile,
    TransientModel,
    budget_gap,
    parse_scenario,
    scenario_to_config,
)
from .montecarlo import (
    SimConfig,
    SimEstimate,
    simulate_allocation,
    simulate_false_alarm,
    simulate_pmd,
)
from .optimize import (
    CriticalPoint,
    b_function,
    find_critical_point,
    maximize_unimodal,
    worst_case_pmd,
)
from .sizing import SizingResult, min_sensors, scenario_with_sensors
from . import stdnorm

__version__ = "0.8.0"

__all__ = [
    "AttackScenario",
    "ConfigError",
    "CriticalPoint",
    "DetectorConfig",
    "DomainError",
    "InfeasibleAtCapError",
    "MeanProfile",
    "MonotonicityError",
    "NumericalError",
    "PmdCurve",
    "PmdPoint",
    "PmdkitError",
    "SimConfig",
    "SimEstimate",
    "SizingResult",
    "SlotMiss",
    "TransientExceedsWindowError",
    "TransientModel",
    "allocation_miss",
    "b_function",
    "budget_gap",
    "find_critical_point",
    "log_pmd_derivative",
    "maximize_unimodal",
    "min_sensors",
    "parse_scenario",
    "pmd",
    "pmd_curve",
    "q0",
    "scenario_to_config",
    "scenario_with_sensors",
    "simulate_allocation",
    "simulate_false_alarm",
    "simulate_pmd",
    "slot_miss",
    "stdnorm",
    "worst_case_pmd",
]
