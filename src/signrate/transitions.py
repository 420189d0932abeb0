"""Transition probabilities of the quantized observation channel.

The per-interval channel takes the center symbol of an L + 1 window as
input and emits the packed M-bit sign pattern as output.  Marginalizing
the L neighbor symbols over their priors gives a discrete memoryless
channel with |X| inputs and 2^M outputs; everything downstream (rates,
sweeps) consumes that table.

Two estimators produce the table:

* :func:`mc_estimate` simulates long symbol streams and counts
  (input, output) pairs.  Work is split into fixed-size chunks with
  independently derived seeds, so results are bit-identical for any
  worker count and any larger sample budget extends a smaller one
  chunk by chunk.  A chunk uses ``np.convolve``, elementwise sums and
  ``np.bincount`` rather than matrix products, so it wakes no BLAS
  threads: neither results nor speed depend on BLAS thread settings, and
  ``workers`` is the only parallelism setting.

* :func:`enumerate_exact` enumerates all symbol windows and integrates
  the noise analytically.  With uncorrelated samples the orthant
  probabilities factor into normal CDF products; correlated samples are
  handled by iterated one-dimensional quadrature up to M = 3 and refused
  beyond that.

Both estimators exploit the sign symmetry of the model: negating the
symbol window flips every output bit, so tables satisfy
``probs[x, y] == probs[-x, flip(y)]``.  The exact path enforces this
bitwise by computing only half the input rows and mirroring.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from .channel import DiscreteChannel, flip_index
from .errors import BudgetExceededError, CorrelatedNoiseError, QuadratureToleranceError

__all__ = [
    "CHUNK_SAMPLES",
    "ENUM_BUDGET",
    "TransitionTable",
    "component_cholesky",
    "enumerate_exact",
    "export_table_csv",
    "mc_estimate",
    "output_marginal",
]

# One simulation chunk; chunk boundaries never move so a larger sample
# budget reuses the chunks of a smaller one verbatim.
CHUNK_SAMPLES = 65536

# Number of interleaved chunk groups used for spread estimates.
N_GROUPS = 10

# Default cap on enumerated (window, output) pairs.
ENUM_BUDGET = 1 << 26

# Standard deviations beyond which the normal tail is treated as empty.
_TAIL_SIGMAS = 8.5

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


@dataclasses.dataclass(frozen=True)
class TransitionTable:
    """Estimated or exact per-interval transition probabilities.

    ``probs[i, y]`` is P(output y | center symbol = level i).  Monte
    Carlo tables keep the raw integer ``counts`` and the per-group
    breakdown ``group_counts`` for spread estimates; exact tables carry
    probabilities only.
    """

    probs: np.ndarray
    method: str
    samples: int
    counts: np.ndarray | None = None
    group_counts: np.ndarray | None = None

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=float)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        for field in ("counts", "group_counts"):
            arr = getattr(self, field)
            if arr is not None:
                arr = np.ascontiguousarray(arr)
                arr.flags.writeable = False
                object.__setattr__(self, field, arr)

    @property
    def n_inputs(self) -> int:
        return self.probs.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.probs.shape[1]

    @property
    def stderr_max(self) -> float:
        """Largest binomial standard error over entries; zero if exact."""
        if self.counts is None:
            return 0.0
        row_n = self.counts.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            se = np.sqrt(self.probs * (1.0 - self.probs) / row_n)
        return float(np.nanmax(se, initial=0.0))

    def group_probs(self) -> np.ndarray:
        """Row-normalized tables of the interleaved chunk groups."""
        if self.group_counts is None:
            raise ValueError("exact tables have no chunk groups")
        counts = self.group_counts.astype(float)
        row_n = counts.sum(axis=2, keepdims=True)
        return np.divide(counts, row_n, out=np.zeros_like(counts),
                         where=row_n > 0)


def output_marginal(table: TransitionTable, priors: np.ndarray) -> np.ndarray:
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (table.n_inputs,):
        raise ValueError("priors must match the table input count")
    return priors @ table.probs


def export_table_csv(table: TransitionTable, destination) -> None:
    """Write the table in long form: input index, output index, probability."""
    lines = ["input,output,probability"]
    for i in range(table.n_inputs):
        for y in range(table.n_outputs):
            lines.append(f"{i},{y},{format(table.probs[i, y], '.17g')}")
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text)


def component_cholesky(ch: DiscreteChannel) -> np.ndarray:
    """Cholesky factor of the per-component noise covariance.

    A numerically semidefinite covariance gets one diagonal jitter of
    1e-12 times the mean eigenvalue before giving up.
    """
    rc = ch.R_component
    try:
        return np.linalg.cholesky(rc)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(rc) / rc.shape[0]
        return np.linalg.cholesky(rc + jitter * np.eye(rc.shape[0]))


# -- Monte Carlo ----------------------------------------------------------------


def _level_cdf(priors: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(priors)
    cdf[-1] = 1.0
    return cdf


def _chunk_counts(ch: DiscreteChannel, chol: np.ndarray, cdf: np.ndarray,
                  n: int, seed: int, chunk_index: int) -> np.ndarray:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    rng = np.random.default_rng(seq)
    m = ch.oversampling
    idx = np.searchsorted(cdf, rng.random(n + ch.memory), side="right")
    symbols = ch.alphabet.levels[idx]
    # Row j holds draw j of every interval, contiguous for the sums below.
    white = rng.standard_normal((n, m)).T.copy()
    # Flat (center symbol, sign pattern) code; sample k sets bit k.
    codes = idx[ch.memory // 2:ch.memory // 2 + n] << m
    # Sample k: row k of the lower-triangular factor colours the white
    # draws, and convolving with the reversed row k of A correlates it
    # with the symbol window.
    for k in range(m):
        noise = chol[k, 0] * white[0]
        for j in range(1, k + 1):
            noise += chol[k, j] * white[j]
        z = np.convolve(symbols, ch.A[k, ::-1], mode="valid") + noise
        codes |= (z >= 0.0) << k
    counts = np.bincount(codes, minlength=ch.alphabet.size << m)
    return counts.reshape(ch.alphabet.size, ch.n_outputs)


def mc_estimate(ch: DiscreteChannel, samples: int, seed: int, *,
                workers: int = 1) -> TransitionTable:
    """Estimate the transition table from ``samples`` simulated intervals.

    Intervals are simulated in fixed chunks of ``CHUNK_SAMPLES``; chunk i
    derives its generator from (seed, i) alone and counts merge by integer
    addition, so the result does not depend on ``workers`` and extending
    ``samples`` only appends chunks.  Chunks use no matrix products and so
    wake no BLAS threads: the ``workers`` threads, each running one chunk
    at a time, are the only parallelism.
    """
    if samples < 1:
        raise ValueError("sample count must be positive")
    if workers < 1:
        raise ValueError("worker count must be positive")
    chol = component_cholesky(ch)
    cdf = _level_cdf(ch.alphabet.priors)
    sizes = [CHUNK_SAMPLES] * (samples // CHUNK_SAMPLES)
    if samples % CHUNK_SAMPLES:
        sizes.append(samples % CHUNK_SAMPLES)
    pooled = np.zeros((ch.alphabet.size, ch.n_outputs), dtype=np.int64)
    groups = np.zeros((N_GROUPS,) + pooled.shape, dtype=np.int64)

    def run(i: int) -> np.ndarray:
        return _chunk_counts(ch, chol, cdf, sizes[i], seed, i)

    # The pool starts no thread until used, so one worker stays serial.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        mapper = map if workers == 1 else pool.map
        for i, counts in enumerate(mapper(run, range(len(sizes)))):
            pooled += counts
            groups[i % N_GROUPS] += counts

    row_n = pooled.sum(axis=1, keepdims=True)
    probs = np.divide(pooled, row_n, out=np.zeros(pooled.shape),
                      where=row_n > 0)
    return TransitionTable(probs=probs, method="mc", samples=samples,
                           counts=pooled, group_counts=groups)


# -- Exact enumeration ----------------------------------------------------------


def _is_diagonal(mat: np.ndarray) -> bool:
    return np.count_nonzero(mat - np.diag(np.diag(mat))) == 0


def _orthant_recursive(mu: np.ndarray, chol: np.ndarray) -> float:
    """P(mu + C w >= 0) for standard normal w, by iterated quadrature."""
    if mu.size == 1:
        return float(ndtr(mu[0] / abs(chol[0, 0])))
    bound = -mu[0] / chol[0, 0]
    if chol[0, 0] > 0.0:
        lo, hi = max(bound, -_TAIL_SIGMAS), _TAIL_SIGMAS
    else:
        lo, hi = -_TAIL_SIGMAS, min(bound, _TAIL_SIGMAS)
    if lo >= hi:
        return 0.0
    tail_mu = mu[1:]
    tail_col = chol[1:, 0]
    tail_chol = chol[1:, 1:]

    def integrand(w: float) -> float:
        density = np.exp(-0.5 * w * w) / _SQRT_2PI
        return density * _orthant_recursive(tail_mu + tail_col * w, tail_chol)

    value, _ = quad(integrand, lo, hi, epsabs=1e-8, epsrel=1e-8, limit=200)
    return value


def _orthant_set(mu: np.ndarray, chol: np.ndarray, tol: float) -> np.ndarray:
    """All 2^M orthant probabilities for one window, renormalized to 1.

    Sign patterns are folded into the mean and factor before integrating,
    so a pattern and its negation evaluate the same integrals with the
    inputs negated exactly.
    """
    m = mu.size
    out = np.empty(1 << m)
    for y in range(1 << m):
        signs = (2 * ((y >> np.arange(m)) & 1) - 1).astype(float)
        out[y] = _orthant_recursive(signs * mu, signs[:, None] * chol)
    total = out.sum()
    if abs(total - 1.0) > tol:
        raise QuadratureToleranceError(abs(total - 1.0), tol)
    return out / total


def _window_chunks(n_levels: int, length: int, chunk: int = 1 << 18):
    n_win = n_levels ** length
    shape = (n_levels,) * length
    for start in range(0, n_win, chunk):
        stop = min(start + chunk, n_win)
        digits = np.stack(
            np.unravel_index(np.arange(start, stop), shape), axis=1)
        yield digits


def _neighbor_weights(digits: np.ndarray, priors: np.ndarray,
                      center_pos: int) -> np.ndarray:
    w = np.ones(digits.shape[0])
    for j in range(digits.shape[1]):
        if j != center_pos:
            w *= priors[digits[:, j]]
    return w


def enumerate_exact(ch: DiscreteChannel, *, budget: int = ENUM_BUDGET,
                    tol: float = 1e-6) -> TransitionTable:
    """Compute the transition table by exhaustive window enumeration.

    Cost is |X|^(L+1) windows times 2^M outputs; anything above ``budget``
    raises :class:`BudgetExceededError`.  Correlated sample noise needs
    numerical quadrature, supported up to M = 3; beyond that
    :class:`CorrelatedNoiseError` asks for the Monte Carlo path instead.
    Rows come out bitwise sign-symmetric because the upper half is a
    mirrored copy of the lower half.
    """
    alpha = ch.alphabet
    n_levels = alpha.size
    length = ch.memory + 1
    center_pos = ch.memory // 2
    n_win = n_levels ** length
    n_out = ch.n_outputs
    required = n_win * n_out
    if required > budget:
        raise BudgetExceededError(required, budget)

    rc = ch.R_component
    diagonal = _is_diagonal(rc)
    if not diagonal and ch.oversampling > 3:
        raise CorrelatedNoiseError(
            "correlated sample noise is integrable only up to 3 samples "
            "per interval; use the Monte Carlo estimator")

    # Rows for the lower half of the levels; the rest mirrors.
    n_direct = (n_levels + 1) // 2
    probs = np.zeros((n_levels, n_out))
    m = ch.oversampling

    if diagonal:
        sigma = np.sqrt(np.diag(rc))
        bit_sets = [(np.arange(n_out) >> b) & 1 for b in range(m)]
        for digits in _window_chunks(n_levels, length):
            keep = digits[:, center_pos] < n_direct
            digits = digits[keep]
            if digits.size == 0:
                continue
            weights = _neighbor_weights(digits, alpha.priors, center_pos)
            t = (alpha.levels[digits] @ ch.A.T) / sigma
            p_plus = ndtr(t)
            p_minus = ndtr(-t)
            center = digits[:, center_pos]
            for y in range(n_out):
                p_y = np.ones(digits.shape[0])
                for b in range(m):
                    p_y *= p_plus[:, b] if bit_sets[b][y] else p_minus[:, b]
                probs[:, y] += np.bincount(center, weights=weights * p_y,
                                           minlength=n_levels)
    else:
        chol = component_cholesky(ch)
        for digits in _window_chunks(n_levels, length):
            keep = digits[:, center_pos] < n_direct
            digits = digits[keep]
            weights = _neighbor_weights(digits, alpha.priors, center_pos)
            means = alpha.levels[digits] @ ch.A.T
            center = digits[:, center_pos]
            for row in range(digits.shape[0]):
                probs[center[row]] += weights[row] * _orthant_set(
                    means[row], chol, tol)

    flipped = flip_index(np.arange(n_out), m)
    for i in range(n_levels - n_direct):
        probs[n_levels - 1 - i] = probs[i][flipped]

    row_sums = probs.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        raise QuadratureToleranceError(float(np.abs(row_sums - 1.0).max()), 1e-9)
    return TransitionTable(probs=probs, method="enum", samples=0)
