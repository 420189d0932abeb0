"""Discrete-time model of the one-bit oversampled receiver.

One symbol interval of the receiver output is the sign of M filtered and
sampled values.  With a window of L + 1 symbols x around the interval of
interest and white Gaussian noise n on the receive path, those M values are

    z = H U x + G n,        y = sign(z),

where U places the symbols on the sample grid (one symbol every M samples),
H reads the combined transmit-receive response at the M sampling phases, and
G reads the receive filter alone.  The noise entering the M samples is then
Gaussian with covariance R = sigma2 * G G^T, whose entry (i, j) is sigma2
times the receive filter's autocorrelation at lag |i - j|.  The estimators
only ever see the collapsed operator A = H U and the covariance R, so the
model stores A, sigma2 and the receive filter's taps, and derives R.

Complex constellations are handled per real component throughout: a square
QAM symbol is two independent amplitude components, each carrying half the
unit symbol energy, and the noise seen by one component has covariance R / 2.
The registry below therefore stores one-dimensional component alphabets.

All filters live on the tap grid of ``pulses`` (M taps per symbol interval,
one tap at t = 0).  The combined response must span an odd number of symbol
intervals; its span fixes the symbol memory L, and the noise band spans the
same L + 1 intervals.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .pulses import FilterTaps, PulseSpec, combined_response, discretize

__all__ = [
    "ComponentAlphabet",
    "DiscreteChannel",
    "assemble",
    "component_alphabet",
    "from_taps",
]


# Largest |SNR| in dB: the noise variance then lies in [1e-300, 1e300],
# so it, the covariance and its Cholesky factor are normal floats.
SNR_DB_LIMIT = 3000.0


def sigma2_from_snr_db(snr_db: float) -> float:
    """Noise variance for a given SNR in dB, with unit symbol energy.

    An SNR outside +-``SNR_DB_LIMIT`` (or NaN) raises ValueError.
    """
    if not -SNR_DB_LIMIT <= snr_db <= SNR_DB_LIMIT:
        raise ValueError(f"snr_db must lie in [-{SNR_DB_LIMIT:g}, "
                         f"{SNR_DB_LIMIT:g}] dB, got {snr_db!r}")
    return float(10.0 ** (-snr_db / 10.0))


def flip_index(index, m: int):
    """Observation index after negating every sign sample."""
    return ((1 << m) - 1) ^ np.asarray(index)


@dataclasses.dataclass(frozen=True)
class ComponentAlphabet:
    """One real amplitude component of a symmetric constellation.

    ``levels`` must be strictly increasing and symmetric about zero, and
    ``priors`` must be a matching symmetric probability vector; both are
    required by the sign-flip symmetry the estimators exploit.  Energy is
    not constrained here so tests can build scaled variants; the registry
    accessor checks the unit-energy convention.
    """

    name: str
    levels: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        levels = np.ascontiguousarray(self.levels, dtype=float)
        priors = np.ascontiguousarray(self.priors, dtype=float)
        if levels.ndim != 1 or levels.size < 2:
            raise ValueError("alphabet needs at least two levels")
        if priors.shape != levels.shape:
            raise ValueError("priors must match levels")
        if np.any(np.diff(levels) <= 0.0):
            raise ValueError("levels must be strictly increasing")
        if np.any(np.abs(levels + levels[::-1]) > 1e-12):
            raise ValueError("levels must be symmetric about zero")
        if np.any(priors <= 0.0) or abs(priors.sum() - 1.0) > 1e-12:
            raise ValueError("priors must be positive and sum to one")
        if np.any(np.abs(priors - priors[::-1]) > 1e-15):
            raise ValueError("priors must be symmetric")
        levels.flags.writeable = False
        priors.flags.writeable = False
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "priors", priors)

    @property
    def size(self) -> int:
        return self.levels.size

    @property
    def symbol_energy(self) -> float:
        return float(np.dot(self.priors, self.levels ** 2))


def _uniform(name: str, levels) -> ComponentAlphabet:
    levels = np.asarray(levels, dtype=float)
    return ComponentAlphabet(name, levels, np.full(levels.size, 1.0 / levels.size))


_ALPHABETS = {
    "4qam": _uniform("4qam", np.array([-1.0, 1.0]) / np.sqrt(2.0)),
    "16qam": _uniform("16qam", np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)),
}


def component_alphabet(name: str) -> ComponentAlphabet:
    """Look up a built-in component alphabet by constellation name."""
    try:
        alpha = _ALPHABETS[name]
    except KeyError:
        known = ", ".join(sorted(_ALPHABETS))
        raise ValueError(f"unknown alphabet {name!r} (known: {known})") from None
    # Unit complex symbol energy means one half per component.
    assert abs(alpha.symbol_energy - 0.5) < 1e-12
    return alpha


@dataclasses.dataclass(frozen=True)
class DiscreteChannel:
    """Fully assembled per-interval observation model.

    ``A = H U`` maps the L + 1 symbol window directly to the M sample
    means.  ``noise_taps`` is the unit-energy receive filter that colours
    noise of variance ``sigma2``; ``R`` is the noise covariance of one
    complex component pair, so a single real component sees
    ``R_component = R / 2``.
    """

    alphabet: ComponentAlphabet
    oversampling: int
    memory: int
    sigma2: float
    noise_taps: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        for field in ("noise_taps", "A"):
            arr = np.ascontiguousarray(getattr(self, field))
            arr.flags.writeable = False
            object.__setattr__(self, field, arr)

    @property
    def R(self) -> np.ndarray:
        """sigma2 times the noise taps' autocorrelation at lag |i - j|."""
        t = self.noise_taps
        m = self.oversampling
        # acf[k] is the sum of t[i + k] t[i]; lags past the taps read zero.
        acf = np.correlate(np.concatenate((t, np.zeros(m))), t, "valid")
        lag = np.arange(m)
        return self.sigma2 * acf[np.abs(lag[:, None] - lag)]

    @property
    def R_component(self) -> np.ndarray:
        return 0.5 * self.R

    @property
    def n_outputs(self) -> int:
        return 1 << self.oversampling


def _noise_filter(g: FilterTaps, max_len: int) -> np.ndarray:
    """Center crop of the receive filter that fits the noise band, re-unit."""
    taps = g.taps
    if taps.size > max_len:
        half = max_len // 2
        taps = taps[g.center - half:g.center + half + 1]
    return taps / np.sqrt(np.sum(taps ** 2))


def from_taps(g: FilterTaps, combined: FilterTaps, alphabet: str,
              snr_db: float) -> DiscreteChannel:
    """Assemble the observation model from explicit filter taps.

    ``combined`` is the full transmit-receive response; its span sets the
    symbol memory L to span - 1.  The receive filter ``g`` is
    center-cropped to L M + 1 taps for the noise band and renormalized so
    the per-sample noise variance stays sigma2.
    """
    m = combined.oversampling
    if g.oversampling != m:
        raise ValueError("all filters must share one sample grid")
    taps = combined.taps
    if taps.size % m:
        raise ValueError("combined response must fill whole symbol intervals")
    span = taps.size // m
    if span % 2 == 0:
        raise ValueError("combined response must span an odd symbol count")
    memory = span - 1
    # U puts window symbol j on sample j M + (M - 1) // 2, and row k of H
    # reads the reversed response k samples on, so A[k, j] is the response
    # at lag j M + (M - 1) // 2 - k, or zero past its last tap.
    lags = (np.arange(memory + 1) * m + (m - 1) // 2
            - np.arange(m)[:, None])
    a_mat = np.pad(taps, (0, m))[taps.size - 1 - lags]
    return DiscreteChannel(alphabet=component_alphabet(alphabet),
                           oversampling=m, memory=memory,
                           sigma2=sigma2_from_snr_db(snr_db),
                           noise_taps=_noise_filter(g, memory * m + 1),
                           A=a_mat)


def assemble(spec: PulseSpec, alphabet: str, snr_db: float) -> DiscreteChannel:
    """Assemble the matched-filter model for a pulse family.

    The receive filter equals the transmit pulse and the combined response
    is their convolution (see :func:`combined_response`).
    """
    return from_taps(discretize(spec), combined_response(spec), alphabet,
                     snr_db)
