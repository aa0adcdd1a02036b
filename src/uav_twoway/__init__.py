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
from .pairing import (AccountingMode, PairCounts, ServiceUnit, pair_counts,
                      schedule_frame, unit_counts)
from .params import (SystemParams, default_config, load_params,
                     validate_and_derive)
from .rates import (RateSet, rate_cochannel_diff, rate_cochannel_same,
                    rate_individual, rate_set)
from .sinr import (Configuration, all_configurations, candidate_configurations,
                   sinr_dl_diff, sinr_dl_same, sinr_ul_diff, sinr_ul_same,
                   snr_individual)
from .throughput import (ConditionalTable, LoadDistribution, ThroughputBreakdown,
                         average_throughput, conditional_table,
                         conditional_throughput, optimal_configuration,
                         skellam_pmf, skellam_vector)

__version__ = "0.1.0"

_SIMULATOR = ("ActivationModel", "FrameRealization", "SimResult", "UserLayout",
              "draw_activation", "run_frame", "sample_layout", "simulate",
              "simulate_exhaustive")

__all__ = [name for name in dir() if not name.startswith("_")] + list(_SIMULATOR)


def __getattr__(name):
    if name in _SIMULATOR:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
