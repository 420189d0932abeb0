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

Each module's ``__all__`` states what the package exports from it, and
the package's ``__all__`` joins those lists.  A module-level name with a
leading underscore is private to its module; one without an underscore
that no ``__all__`` lists is internal to the package.
"""

from . import channel, config, errors, pulses, rates, sweeps, transitions
from .channel import *
from .config import *
from .errors import *
from .pulses import *
from .rates import *
from .sweeps import *
from .transitions import *

__version__ = "0.1.0"

__all__ = [name for module in (channel, config, errors, pulses, rates,
                               sweeps, transitions)
           for name in module.__all__]
