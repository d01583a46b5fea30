"""Reproduction harnesses (reached through the :data:`EXPERIMENTS`
registry) and rendering for the paper's tables/figures."""

from .experiments import (
    EXPERIMENTS,
    PAPER_TABLE1_US,
    PAPER_TABLE2_US,
    PAPER_TABLE3,
    Experiment,
    ExperimentResult,
)
from .figures import bar_chart, breakdown_panel, grouped_series, per_proc_strip
from .profile import PhaseProfile, format_profile, profile_by_step, profile_outcome
from .tables import format_table

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "PAPER_TABLE1_US",
    "PAPER_TABLE2_US",
    "PAPER_TABLE3",
    "PhaseProfile",
    "bar_chart",
    "breakdown_panel",
    "format_profile",
    "format_table",
    "grouped_series",
    "per_proc_strip",
    "profile_by_step",
    "profile_outcome",
]
