"""Two-cell UAV two-way TDD communication model.

Analytical Skellam-weighted throughput of two co-channel UAV base stations
serving two cells, the joint optimization of transmission direction
(relative spin) and the two-level UAV altitudes, and a frame-level Monte
Carlo simulator that validates the closed form. Only the simulator needs
numpy: its names load ``montecarlo`` on first use, so the analytical path
never imports it.
"""

from .errors import (ConfigError, GuardViolationError, MissingKeyError,
                     NonPositiveRateError, OutOfRangeError,
                     RateExceedsPopulationError)
from .pairing import AccountingMode, PairCounts, Schedule, pair_counts
from .params import (SystemParams, default_config, load_params,
                     validate_and_derive)
from .rates import RateSet, rate_individual, rate_set
from .sinr import (Configuration, all_configurations, candidate_configurations,
                   link_sinr, snr_individual)
from .throughput import (ActivationModel, ConditionalTable, LoadDistribution,
                         ThroughputBreakdown, average_throughput, conditional_table,
                         conditional_tables, optimal_configuration, skellam_vector)

__version__ = "0.1.0"

_SIMULATOR = ("FrameRealization", "SimResult", "run_frame", "simulate", "simulate_exhaustive")

__all__ = ["ConfigError", "GuardViolationError", "MissingKeyError", "NonPositiveRateError",
           "OutOfRangeError", "RateExceedsPopulationError",
           "AccountingMode", "PairCounts", "Schedule", "pair_counts",
           "SystemParams", "default_config", "load_params", "validate_and_derive",
           "RateSet", "rate_individual", "rate_set",
           "Configuration", "all_configurations", "candidate_configurations", "link_sinr",
           "snr_individual",
           "ActivationModel", "ConditionalTable", "LoadDistribution", "ThroughputBreakdown",
           "average_throughput", "conditional_table", "conditional_tables",
           "optimal_configuration", "skellam_vector",
           *_SIMULATOR]


def __getattr__(name):
    if name in _SIMULATOR:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
