"""Pulse shaping: closed-form pulses, tap grids and the matched combination.

Time is measured in symbol intervals throughout.  A pulse has its own natural
interval t_x = signaling_ratio symbol intervals; ratios above one pack symbols
closer together than the pulse was designed for, which buys bandwidth at the
price of overlap between neighboring pulses.

Tap vectors sample a pulse on the uniform grid with `oversampling` points per
symbol interval and one tap exactly on t = 0 (index ``len // 2``).  Truncation
to the window happens before the energy normalization, so discretized filters
always carry unit energy regardless of how much the window clipped.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["FilterTaps", "PulseSpec", "combined_response", "delta_taps",
           "discretize", "estimate_3db_bandwidth", "matched_combine"]

GAUSSIAN = "gaussian"
ROOT_RAISED_COSINE = "rrc"

_FAMILIES = (GAUSSIAN, ROOT_RAISED_COSINE)

# Denominator magnitude below which the root-raised cosine is evaluated by its
# closed-form limits instead of the generic quotient.
_RRC_GUARD = 1e-9

# Refinement of the tap grid on which combined_response convolves.
FINE_FACTOR = 16

# DFT length of the spectrum estimate_3db_bandwidth reads.
BANDWIDTH_NFFT = 1 << 16


def as_int(name: str, value) -> int:
    """``value`` as an int; JSON may spell an integer as 4.0, but a
    boolean is no number."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_float(name: str, value) -> float:
    """``value`` as a finite float, so 10 and 10.0 serialize alike; a
    boolean is no number."""
    # float and int first: the check against the numbers.Real ABC is slow.
    real = (isinstance(value, (float, int, numbers.Real))
            and not isinstance(value, bool))
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if math.isfinite(number):
        return number
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def eval_gaussian(t, b3db_ts):
    """Gaussian pulse with a prescribed 3 dB bandwidth.

    Args:
        t: time in symbol intervals, scalar or array.
        b3db_ts: two-sided 3 dB bandwidth times the symbol interval, > 0.

    Returns:
        Pulse value(s), same shape as ``t``.
    """
    if b3db_ts <= 0.0:
        raise ValueError(f"3 dB bandwidth must be positive, got {b3db_ts}")
    half_b = 0.5 * b3db_ts
    amp = np.sqrt(2.0 * np.pi) / np.sqrt(np.log(2.0)) * half_b
    rate = np.sqrt(2.0) * np.pi / np.sqrt(np.log(2.0)) * half_b
    out = amp * np.exp(-((rate * np.asarray(t, dtype=float)) ** 2))
    return float(out) if np.ndim(t) == 0 else out


def eval_rrc(t, beta, tx=1.0):
    """Root-raised-cosine pulse with roll-off ``beta`` and interval ``tx``.

    The two removable singularities (t = 0 and 4 beta |t| = tx) are routed to
    their closed-form limits through a guard band on the denominator rather
    than on t itself, so grid points landing exactly on a root stay finite.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"roll-off must lie in [0, 1], got {beta}")
    if tx <= 0.0:
        raise ValueError(f"pulse interval must be positive, got {tx}")
    u = np.asarray(t, dtype=float) / tx
    num = np.sin(np.pi * u * (1.0 - beta)) + 4.0 * beta * u * np.cos(np.pi * u * (1.0 + beta))
    den = np.pi * u * (1.0 - (4.0 * beta * u) ** 2)
    guarded = np.abs(den) < _RRC_GUARD
    out = num / np.where(guarded, 1.0, den)
    peak = 1.0 - beta + 4.0 * beta / np.pi
    if beta > 0.0:
        s = np.pi / (4.0 * beta)
        edge = (beta / np.sqrt(2.0)) * ((1.0 + 2.0 / np.pi) * np.sin(s)
                                        + (1.0 - 2.0 / np.pi) * np.cos(s))
        # A guarded point belongs to the origin branch iff it is nearer to 0
        # than to the quarter-period roots at +-tx/(4 beta).
        limit = np.where(np.abs(u) < 1.0 / (8.0 * beta), peak, edge)
    else:
        limit = peak
    out = np.where(guarded, limit, out)
    return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class PulseSpec:
    """Parametric description of a transmit (and matched receive) pulse.

    Attributes:
        family: ``"gaussian"`` (shape = 3 dB bandwidth times the symbol
            interval) or ``"rrc"`` (shape = roll-off in [0, 1]).
        shape: the single shape parameter of the family.
        signaling_ratio: pulse interval over symbol interval, >= 1.
        span_symbols: odd truncation window length in symbol intervals.
        oversampling: taps per symbol interval, >= 1.
    """

    family: str
    shape: float
    signaling_ratio: float = 1.0
    span_symbols: int = 9
    oversampling: int = 1

    def __post_init__(self):
        # One type per number, so equal pulses compare and echo alike
        # however the numbers were spelled.
        for name in ("span_symbols", "oversampling"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        for name in ("shape", "signaling_ratio"):
            object.__setattr__(self, name, as_float(name, getattr(self, name)))
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown pulse family {self.family!r}")
        if self.family == ROOT_RAISED_COSINE and not 0.0 <= self.shape <= 1.0:
            raise ValueError(f"roll-off must lie in [0, 1], got {self.shape}")
        # Each guard states what a valid value satisfies, so NaN fails it.
        if self.family == GAUSSIAN and not 0.0 < self.shape < math.inf:
            raise ValueError(f"3 dB bandwidth must be positive and finite, got {self.shape}")
        if not 1.0 <= self.signaling_ratio < math.inf:
            raise ValueError(f"signaling ratio must be finite and >= 1, got {self.signaling_ratio}")
        if not (self.span_symbols >= 1 and self.span_symbols % 2 == 1):
            raise ValueError(f"window must be a positive odd symbol count, got {self.span_symbols}")
        if not self.oversampling >= 1:
            raise ValueError(f"oversampling must be a positive integer, got {self.oversampling}")


@dataclass(frozen=True)
class FilterTaps:
    """A sampled filter on the uniform tap grid (read-only)."""

    taps: np.ndarray
    oversampling: int

    def __post_init__(self):
        arr = np.array(self.taps, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("taps must form a non-empty vector")
        if self.oversampling < 1:
            raise ValueError("oversampling must be >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "taps", arr)

    @property
    def center(self) -> int:
        return self.taps.size // 2

    @property
    def times(self) -> np.ndarray:
        """Grid instants in symbol intervals; times[center] is exactly 0."""
        return (np.arange(self.taps.size) - self.center) / self.oversampling

    @property
    def energy(self) -> float:
        return float(np.dot(self.taps, self.taps))


def discretize(spec: PulseSpec) -> FilterTaps:
    """Sample the pulse on its tap grid and renormalize to unit energy."""
    n = spec.span_symbols * spec.oversampling
    t = (np.arange(n) - n // 2) / spec.oversampling
    if spec.family == GAUSSIAN:
        # The shape parameter fixes the bandwidth in pulse-interval units, so
        # stretching the time axis is a plain rescaling of the argument.
        vals = eval_gaussian(t / spec.signaling_ratio, spec.shape)
    else:
        vals = eval_rrc(t, spec.shape, tx=spec.signaling_ratio)
    norm = np.sqrt(np.dot(vals, vals))
    if norm == 0.0:
        raise ValueError("pulse vanishes everywhere on the tap grid")
    return FilterTaps(vals / norm, spec.oversampling)


def delta_taps(span_symbols: int, oversampling: int) -> FilterTaps:
    """Unit impulse on the tap grid; stands in for ideal, memoryless filtering."""
    n = span_symbols * oversampling
    taps = np.zeros(n)
    taps[n // 2] = 1.0
    return FilterTaps(taps, oversampling)


def matched_combine(v: FilterTaps, g: FilterTaps, span_symbols: int) -> FilterTaps:
    """Combined transmit-plus-receive response on the shared tap grid.

    Plain discrete convolution, windowed to ``span_symbols * oversampling``
    taps around the convolution's own t = 0 and deliberately not renormalized:
    for two unit-energy filters the center tap of a self-matched pair equals
    their inner product (one), and a one-tap impulse leaves the other filter
    unchanged.
    """
    if v.oversampling != g.oversampling:
        raise ValueError("tap grids disagree: "
                         f"{v.oversampling} vs {g.oversampling} taps per interval")
    if span_symbols < 1 or span_symbols % 2 == 0:
        raise ValueError(f"window must be a positive odd symbol count, got {span_symbols}")
    m = v.oversampling
    full = np.convolve(v.taps, g.taps)
    t_zero = v.center + g.center
    n = span_symbols * m
    start = t_zero - n // 2
    out = np.zeros(n)
    lo = max(start, 0)
    hi = min(start + n, full.size)
    if lo < hi:
        out[lo - start:hi - start] = full[lo:hi]
    return FilterTaps(out, m)


def combined_response(spec: PulseSpec) -> FilterTaps:
    """Transmit pulse convolved with its own matched receive filter, sampled
    on the model tap grid.

    A tap-level convolution at the model grid would alias the pulse's excess
    bandwidth (at one tap per interval the grid cannot see the intra-interval
    shape at all), so the convolution runs on an internally refined grid with
    ``FINE_FACTOR * oversampling`` points per interval and only then picks the
    taps that land on the model grid.  The result keeps the matched gain: the
    center tap equals the (unit) pulse energy up to truncation residue, and
    for Nyquist-compatible pairs the taps at whole-interval lags vanish.
    """
    fine = PulseSpec(spec.family, spec.shape, spec.signaling_ratio,
                     spec.span_symbols, spec.oversampling * FINE_FACTOR)
    v_fine = discretize(fine)
    h_fine = matched_combine(v_fine, v_fine, spec.span_symbols)
    n = spec.span_symbols * spec.oversampling
    offsets = np.arange(n) - n // 2
    taps = h_fine.taps[h_fine.center + offsets * FINE_FACTOR]
    return FilterTaps(taps, spec.oversampling)


def estimate_3db_bandwidth(ft: FilterTaps) -> float:
    """Two-sided 3 dB width of the tap spectrum, in cycles per symbol interval.

    Zero-padded DFT magnitude, first crossing of half the zero-frequency
    power, linearly interpolated between neighboring bins.
    """
    mag2 = np.abs(np.fft.rfft(ft.taps, BANDWIDTH_NFFT)) ** 2
    freqs = np.fft.rfftfreq(BANDWIDTH_NFFT, d=1.0 / ft.oversampling)
    ref = 0.5 * mag2[0]
    below = np.nonzero(mag2 <= ref)[0]
    if below.size == 0:
        raise ValueError("no 3 dB crossing inside the sampled band")
    k = int(below[0])
    if k == 0:
        return 0.0
    frac = (mag2[k - 1] - ref) / (mag2[k - 1] - mag2[k])
    return float(2.0 * (freqs[k - 1] + frac * (freqs[k] - freqs[k - 1])))
