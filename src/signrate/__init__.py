"""Achievable information rates of 1-bit, oversampled receivers.

The package models a linearly modulated baseband link whose receiver
keeps only the sign of each of M samples per symbol interval.  Pulses
are discretized (:mod:`signrate.pulses`), assembled into a finite
observation model (:mod:`signrate.channel`), reduced to per-symbol
transition tables by simulation or exact enumeration
(:mod:`signrate.transitions`), and scored as mutual information rates
(:mod:`signrate.rates`).  Grid experiments and alphabet comparisons
live in :mod:`signrate.sweeps`; ``signrate`` is also an executable
command (:mod:`signrate.cli`).
"""

from .channel import (
    ComponentAlphabet,
    DiscreteChannel,
    assemble,
    component_alphabet,
    from_taps,
)
from .config import RunConfig
from .errors import (
    BudgetExceededError,
    CorrelatedNoiseError,
    GridMismatchError,
    QuadratureToleranceError,
    RefusalError,
)
from .pulses import (
    FilterTaps,
    PulseSpec,
    combined_response,
    delta_taps,
    discretize,
    estimate_3db_bandwidth,
    matched_combine,
)
from .rates import (
    BoundReport,
    RateResult,
    block_entropy_bound,
    dmc_mutual_information,
    rate_for_config,
    rate_from_table,
)
from .sweeps import (
    RegionMap,
    RegionRow,
    SweepConfig,
    SweepResult,
    SweepRow,
    default_grid,
    find_optimum,
    load_sweep_csv,
    merge_sweeps,
    region_compare,
    run_sweep,
    write_region_csv,
)
from .transitions import (
    TransitionTable,
    enumerate_exact,
    mc_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceededError",
    "ComponentAlphabet",
    "CorrelatedNoiseError",
    "DiscreteChannel",
    "FilterTaps",
    "GridMismatchError",
    "PulseSpec",
    "QuadratureToleranceError",
    "RateResult",
    "RefusalError",
    "RegionMap",
    "RegionRow",
    "RunConfig",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "TransitionTable",
    "assemble",
    "block_entropy_bound",
    "combined_response",
    "component_alphabet",
    "default_grid",
    "delta_taps",
    "discretize",
    "dmc_mutual_information",
    "enumerate_exact",
    "estimate_3db_bandwidth",
    "find_optimum",
    "from_taps",
    "load_sweep_csv",
    "matched_combine",
    "mc_estimate",
    "merge_sweeps",
    "rate_for_config",
    "rate_from_table",
    "region_compare",
    "run_sweep",
    "write_region_csv",
]
