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
  ``workers`` is the only parallelism setting.  Each chunk runs in fixed
  blocks of ``CHUNK_SAMPLES // 4`` intervals through block-sized buffers
  that a chunk thread reuses; the only chunk-length array holds each
  symbol's level index in the narrowest integer type.  The draws and the
  arithmetic per interval, hence the counts, are those of one unblocked
  pass.

* :func:`enumerate_exact` enumerates all symbol windows and sums their
  Gaussian orthant probabilities, all from one vectorized kernel.  A
  sample whose noise no later sample shares contributes a normal CDF
  factor.  The 2, 3 or 4 correlated samples left take every sign
  pattern by inclusion and exclusion from normal CDFs of their subsets:
  Owen's T function for pairs, so M <= 2 and diagonal noise need no
  quadrature, and Plackett's identity, one smooth integral each with
  fixed Gauss-Legendre rules, for three and four; only those tables
  are accepted when a second, coarser rule reproduces them.  Correlated
  noise is exact up to M = 4 and refused beyond that;
  :func:`check_enumerable` owns that refusal and the budget's.  Only
  this kernel uses scipy (``ndtr`` and ``owens_t``), and it imports
  ``scipy.special`` the first time it runs, so importing the package
  and Monte Carlo tables never load scipy.

Both estimators exploit the sign symmetry of the model: negating the
symbol window flips every output bit, so tables satisfy
``probs[x, y] == probs[-x, flip(y)]``.  The exact path enforces this
bitwise by computing only half the input rows and mirroring.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .channel import DiscreteChannel, flip_index
from .errors import BudgetExceededError, CorrelatedNoiseError, QuadratureToleranceError

__all__ = [
    "TransitionTable",
    "check_enumerable",
    "enumerate_exact",
    "mc_estimate",
]

# One simulation chunk; chunk boundaries never move so a larger sample
# budget reuses the chunks of a smaller one verbatim.
CHUNK_SAMPLES = 65536

# Intervals per block within a chunk: a chunk reuses a few block-sized
# buffers instead of allocating chunk-sized temporaries.
_BLOCK_SAMPLES = CHUNK_SAMPLES // 4

# Number of interleaved chunk groups used for spread estimates.
N_GROUPS = 10

# Cap on enumerated (window, output) pairs.
ENUM_BUDGET = 1 << 26

# Largest quadrature deviation an exact table may carry.
ENUM_TOL = 1e-6

# Gauss-Legendre rules on [-1, 1], mapped onto the Plackett t-integrals:
# tables use the first, and their difference from the second bounds the
# quadrature error.
_GAUSS_LEGENDRE = np.polynomial.legendre.leggauss(64)
_GAUSS_LEGENDRE_CHECK = np.polynomial.legendre.leggauss(48)

# Rows of the kernel's innermost arrays per window chunk.
_KERNEL_ROWS = 1 << 20


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
    def n_outputs(self) -> int:
        return self.probs.shape[1]

    def group_probs(self) -> np.ndarray:
        """Row-normalized tables of the interleaved chunk groups."""
        if self.group_counts is None:
            raise ValueError("exact tables have no chunk groups")
        counts = self.group_counts.astype(float)
        row_n = counts.sum(axis=2, keepdims=True)
        return np.divide(counts, row_n, out=np.zeros_like(counts),
                         where=row_n > 0)


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


def _level_indices(rng: np.random.Generator, cdf: np.ndarray, size: int,
                   dtype: np.dtype) -> np.ndarray:
    """Level index of ``size`` symbols from one uniform draw each.

    The index is the number of CDF steps at or below the draw, as
    ``searchsorted(cdf, u, side="right")`` counts them (the last step is 1
    and never reached).  Uniforms are drawn block by block; the generator
    yields the same values as in one call.
    """
    idx = np.zeros(size, dtype=dtype)
    for start in range(0, size, _BLOCK_SAMPLES):
        u = rng.random(min(_BLOCK_SAMPLES, size - start))
        level = idx[start:start + u.size]
        for step in cdf[:-1]:
            level += u >= step
    return idx


def _block_buffers(ch: DiscreteChannel) -> tuple:
    """Scratch arrays of one block: symbol window, noise, product term,
    white draws, and sign bits in the narrowest integer type that holds
    every flat (center symbol, sign pattern) code."""
    block = _BLOCK_SAMPLES
    code_dtype = np.min_scalar_type((ch.alphabet.size << ch.oversampling) - 1)
    return (np.empty(block + ch.memory), np.empty(block), np.empty(block),
            np.empty((block, ch.oversampling)),
            np.empty(block, dtype=code_dtype))


def _chunk_counts(ch: DiscreteChannel, chol: np.ndarray, cdf: np.ndarray,
                  n: int, seed: int, chunk_index: int,
                  buffers: tuple) -> np.ndarray:
    """Counts of one chunk of ``n`` intervals, block by block.

    The chunk draws ``n + L`` uniforms for its symbols, then its (n, M)
    normal draws row by row, one block of ``_BLOCK_SAMPLES`` rows at a
    time, so the stream and every interval's arithmetic are those of one
    unblocked pass.  ``buffers`` (from :func:`_block_buffers`) are
    overwritten.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    rng = np.random.default_rng(seq)
    m, memory = ch.oversampling, ch.memory
    n_codes = ch.alphabet.size << m
    symbols, noise, term, white, bits = buffers
    idx = _level_indices(rng, cdf, n + memory, bits.dtype)
    taps = ch.A[:, ::-1]
    counts = np.zeros(n_codes, dtype=np.int64)
    for start in range(0, n, _BLOCK_SAMPLES):
        b = min(_BLOCK_SAMPLES, n - start)
        # Column j holds draw j of every interval of the block.
        draws = rng.standard_normal(out=white[:b])
        # Indices are in range; mode="clip" lets take write straight
        # into the buffer instead of through a temporary.
        window = np.take(ch.alphabet.levels, idx[start:start + b + memory],
                         out=symbols[:b + memory], mode="clip")
        # Flat (center symbol, sign pattern) code; sample k sets bit k.
        codes = idx[start + memory // 2:start + memory // 2 + b] << m
        # Sample k: row k of the lower-triangular factor colours the white
        # draws, and convolving with the reversed row k of A correlates it
        # with the symbol window.
        for k in range(m):
            np.multiply(chol[k, 0], draws[:, 0], out=noise[:b])
            for j in range(1, k + 1):
                noise[:b] += np.multiply(chol[k, j], draws[:, j],
                                         out=term[:b])
            z = np.convolve(window, taps[k], mode="valid")
            z += noise[:b]
            np.greater_equal(z, 0.0, out=bits[:b])
            codes |= np.left_shift(bits[:b], k, out=bits[:b])
        counts += np.bincount(codes, minlength=n_codes)
    return counts.reshape(ch.alphabet.size, ch.n_outputs)


def mc_estimate(ch: DiscreteChannel, samples: int, seed: int, *,
                workers: int = 1) -> TransitionTable:
    """Estimate the transition table from ``samples`` simulated intervals.

    Intervals are simulated in fixed chunks of ``CHUNK_SAMPLES``; chunk i
    derives its generator from (seed, i) alone and counts merge by integer
    addition, so the result does not depend on ``workers`` and extending
    ``samples`` only appends chunks.  Chunks use no matrix products and so
    wake no BLAS threads: the ``workers`` threads, each running one chunk
    at a time, are the only parallelism.  A chunk walks its intervals in
    fixed blocks through one set of block-sized buffers per thread, and
    its counts equal those of an unblocked pass over the same stream.
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

    # Each thread that runs chunks keeps one set of block buffers for the
    # whole call, so chunks do not allocate and page-fault in fresh ones.
    local = threading.local()

    def run(i: int) -> np.ndarray:
        if not hasattr(local, "buffers"):
            local.buffers = _block_buffers(ch)
        return _chunk_counts(ch, chol, cdf, sizes[i], seed, i, local.buffers)

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


@functools.cache
def _special():
    """``scipy.special``, imported on first use: only the exact kernel
    needs ``ndtr`` and ``owens_t``, so importing the package or running
    Monte Carlo tables never loads scipy."""
    import scipy.special
    return scipy.special


def _sign_probs(t: np.ndarray) -> np.ndarray:
    """Columns Phi(-t) and Phi(t), from one normal tail per value."""
    tail = _special().ndtr(-np.abs(t))
    neg = t < 0
    return np.stack([np.where(neg, 1.0 - tail, tail),
                     np.where(neg, tail, 1.0 - tail)], axis=-1)


def _phi2(h: np.ndarray, k: np.ndarray, rho, phi_h: np.ndarray,
          phi_k: np.ndarray) -> np.ndarray:
    """P(Z_0 < h, Z_1 < k) of standard normals with correlation ``rho``,
    given ``phi_h`` = Phi(h) and ``phi_k`` = Phi(k).

    It is Phi(h)/2 + Phi(k)/2 - (T(h, a_h) + T(k, a_k)) - beta through
    Owen's T function, with a_h = (k - rho h) / (h root) and
    root = sqrt(1 - rho^2), a_k likewise, a_h = +-inf at h = 0, and
    beta = 0 when h and k have the same sign (zero counts as positive),
    1/2 otherwise (Owen 1956; Genz 2004).  At h = k = 0 the Owen's T sum
    is its limit 1/4 - asin(rho) / (2 pi).  ``rho`` broadcasts against
    ``h`` and ``k``.
    """
    owens_t = _special().owens_t
    root = np.sqrt((1.0 - rho) * (1.0 + rho))
    with np.errstate(divide="ignore", invalid="ignore"):
        a_h = np.where(h == 0, np.copysign(np.inf, k),
                       (k - rho * h) / (h * root))
        a_k = np.where(k == 0, np.copysign(np.inf, h),
                       (h - rho * k) / (k * root))
    owen = np.where((h == 0) & (k == 0),
                    0.25 - np.arcsin(rho) / (2.0 * np.pi),
                    owens_t(h, a_h) + owens_t(k, a_k))
    beta = np.where((h >= 0) == (k >= 0), 0.0, 0.5)
    return 0.5 * (phi_h + phi_k) - owen - beta


def _plackett_term(h: np.ndarray, corr: np.ndarray, a: int, j: int,
                   rest: list, nodes: tuple) -> np.ndarray:
    """The (a, j) term of Plackett's identity for Phi_k(h; corr), k = 3, 4.

    Along t in [0, 1] the correlations of sample a scale to t times their
    value, so R(t) mixes ``corr`` with a matrix where a is independent,
    and d Phi_k / dt is the sum over j of rho_aj phi_2(h_a, h_j; t rho_aj)
    Phi_{k-2}(h_rest | Z_a = h_a, Z_j = h_j; R(t)) (Plackett 1954; Genz
    2004).  The integrand steepens towards t = 1 when ``corr`` is nearly
    singular or |rho_aj| nearly one, with its singularities just beyond
    t = 1, so the Gauss-Legendre ``nodes`` are placed in u with
    t = 1 - u^2, which moves them off the interval.
    """
    ndtr = _special().ndtr
    points, weights = nodes
    u = (points + 1.0) / 2.0
    t = 1.0 - u * u
    r = (t * corr[a, j])[:, None]
    det = (1.0 - r) * (1.0 + r)
    # Correlations of the rest samples with Z_a and Z_j at each node, the
    # weights of their conditional means on h_a and h_j, and their
    # conditional covariance.
    c_a = np.multiply.outer(t, corr[rest, a])
    c_j = np.broadcast_to(corr[rest, j], c_a.shape)
    w_a = (c_a - r * c_j) / det
    w_j = (c_j - r * c_a) / det
    cov = corr[np.ix_(rest, rest)] - (w_a[:, :, None] * c_a[:, None, :]
                                      + w_j[:, :, None] * c_j[:, None, :])
    sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    h_a, h_j = h[:, a, None], h[:, j, None]
    x = (h[:, None, rest] - h_a[..., None] * w_a
         - h_j[..., None] * w_j) / sd
    if len(rest) == 1:
        inner = ndtr(x[..., 0])
    else:
        inner = _phi2(x[..., 0], x[..., 1],
                      cov[:, 0, 1] / (sd[:, 0] * sd[:, 1]),
                      ndtr(x[..., 0]), ndtr(x[..., 1]))
    r, det = r[:, 0], det[:, 0]
    density = np.exp(-(h_a * h_a - 2.0 * r * h_a * h_j + h_j * h_j)
                     / (2.0 * det)) / (2.0 * np.pi * np.sqrt(det))
    # dt = 2u du and du = dp / 2 on the nodes' [-1, 1].
    return corr[a, j] * ((density * inner) @ (weights * u))


def _subset_orthants(means: np.ndarray, chol: np.ndarray,
                     nodes: tuple) -> np.ndarray:
    """P(sign pattern y) of ``means[r] + chol @ w`` for k = 2, 3 or 4
    correlated samples.

    F(U) = P(every sample in U negative) is a normal CDF Phi_|U| of the
    standardized means h = -m / sigma at the samples' correlations: an
    ``ndtr`` for one sample, Owen's T for two (reusing the two samples'
    ``ndtr`` columns), and Plackett's identity,
    Phi_|U| = Phi(h_a) Phi_{|U|-1}(U - a) plus a smooth t-integral per
    partner j of a (its lowest sample), for three and four; only those
    integrals use the Gauss-Legendre ``nodes``.  The pattern whose
    negative samples are exactly T then follows by inclusion and
    exclusion, P = sum over U containing T of (-1)^|U - T| F(U).
    """
    ndtr = _special().ndtr
    n, k = means.shape
    cov = chol @ chol.T
    sigma = np.sqrt(np.diagonal(cov))
    corr = cov / np.outer(sigma, sigma)
    h = -means / sigma
    cdf = np.ones((n, 1 << k))
    # Dropping a bit gives a smaller mask, so Phi_{|U|-1}(U - a) is ready.
    for mask in range(1, 1 << k):
        a, *others = [j for j in range(k) if mask >> j & 1]
        if not others:
            cdf[:, mask] = ndtr(h[:, a])
        elif len(others) == 1:
            b = others[0]
            cdf[:, mask] = _phi2(h[:, a], h[:, b], corr[a, b],
                                 cdf[:, 1 << a], cdf[:, 1 << b])
        else:
            total = ndtr(h[:, a]) * cdf[:, mask & (mask - 1)]
            for j in others:
                total += _plackett_term(
                    h, corr, a, j, [i for i in others if i != j], nodes)
            cdf[:, mask] = total
    # Moebius inversion over supersets, one sample (array axis) at a time;
    # the column of pattern y is then its negative set ~y.
    table = cdf.reshape((n,) + (2,) * k)
    for axis in range(1, k + 1):
        lower = (slice(None),) * axis + (0,)
        upper = (slice(None),) * axis + (1,)
        table[lower] -= table[upper]
    out = cdf[:, ::-1]
    # Cancellation must never leave a negative probability.
    return np.maximum(out, 0.0, out=out)


def _orthant_table(means: np.ndarray, chol: np.ndarray,
                   nodes: tuple = _GAUSS_LEGENDRE) -> np.ndarray:
    """P(sign pattern y) of ``means[r] + chol @ w`` for every row r.

    ``w`` is standard normal and ``chol`` lower triangular with a
    positive diagonal; bit j of y is set when sample j is nonnegative.
    The recursion peels off the first sample while no later sample
    shares its white variable w_0, as a normal CDF factor, so tiny
    probabilities stay accurate relative to their size.  The 2, 3 or 4
    samples left once one does go to :func:`_subset_orthants`, which
    integrates three or more with the Gauss-Legendre ``nodes`` (points
    and weights on [-1, 1]).
    """
    n, k = means.shape
    col = chol[1:, 0]
    if col.any():
        return _subset_orthants(means, chol, nodes)
    first = _sign_probs(means[:, 0] / chol[0, 0])
    if k == 1:
        return first
    rest = _orthant_table(means[:, 1:], chol[1:, 1:], nodes)
    return (rest[:, :, None] * first[:, None, :]).reshape(n, -1)


def check_enumerable(ch: DiscreteChannel) -> np.ndarray:
    """Refuse a channel :func:`enumerate_exact` cannot tabulate, or return
    the Cholesky factor of its noise (:func:`component_cholesky`).

    Raises :class:`BudgetExceededError` when the |X|^(L+1) windows times
    2^M outputs exceed ``ENUM_BUDGET``, and :class:`CorrelatedNoiseError`
    for correlated noise (any nonzero below the factor's diagonal) at
    more than 4 samples per interval.  Neither verdict depends on SNR.
    """
    required = ch.alphabet.size ** (ch.memory + 1) << ch.oversampling
    if required > ENUM_BUDGET:
        raise BudgetExceededError(required, ENUM_BUDGET)
    chol = component_cholesky(ch)
    if ch.oversampling > 4 and np.tril(chol, -1).any():
        raise CorrelatedNoiseError(
            "correlated sample noise is integrable only up to 4 samples "
            "per interval; use the Monte Carlo estimator")
    return chol


def enumerate_exact(ch: DiscreteChannel) -> TransitionTable:
    """Compute the transition table by exhaustive window enumeration.

    Cost is |X|^(L+1) windows times 2^M outputs.  :func:`check_enumerable`
    refuses a table above ``ENUM_BUDGET`` with
    :class:`BudgetExceededError`, and correlated noise beyond M = 4 with
    :class:`CorrelatedNoiseError`, which asks for the Monte Carlo path
    instead.  Every window's orthant probabilities come from one kernel:
    normal CDF products where sample noise is uncorrelated, and for each
    block of 2, 3 or 4 correlated samples the subset-CDF kernel, whose
    Plackett integrals over t (three or more samples) use fixed
    Gauss-Legendre nodes.  :class:`QuadratureToleranceError` is raised
    when a window's probabilities miss a sum of one by more than
    ``ENUM_TOL``, and, where a t-integral runs, when the tables from 64
    and from 48 nodes differ by more than that; a quadrature-free table
    is computed once.  Rows come out bitwise sign-symmetric because the
    upper half is a mirrored copy of the lower half.
    """
    alpha = ch.alphabet
    n_levels = alpha.size
    length = ch.memory + 1
    center_pos = ch.memory // 2
    n_out = ch.n_outputs
    chol = check_enumerable(ch)

    m = ch.oversampling
    # The kernel integrates over t only when a sample that shares its
    # white variable with a later one precedes the last two (a correlated
    # block of three or more samples); every other table is
    # quadrature-free, and a second node rule would reproduce it bit for
    # bit.
    integrates = any(chol[j + 1:, j].any() for j in range(m - 2))
    # An integrating window holds nodes times (M - 2) rest samples per
    # Plackett term in the kernel's largest arrays.
    rows_per_window = _GAUSS_LEGENDRE[0].size * (m - 2) if integrates else 1
    chunk = max(1, _KERNEL_ROWS // rows_per_window)

    # Windows with the center in the lower half of the levels; the rest
    # mirrors.
    n_direct = (n_levels + 1) // 2
    shape = (n_levels,) * center_pos + (n_direct,) + (n_levels,) * (
        length - center_pos - 1)
    n_direct_win = n_direct * n_levels ** ch.memory
    neighbors = [i for i in range(length) if i != center_pos]
    probs = np.zeros((n_levels, n_out))
    for start in range(0, n_direct_win, chunk):
        flat = np.arange(start, min(start + chunk, n_direct_win))
        digits = np.stack(np.unravel_index(flat, shape), axis=1)
        means = alpha.levels[digits] @ ch.A.T
        table = _orthant_table(means, chol)
        residual = float(np.abs(table.sum(axis=1) - 1.0).max())
        if integrates:
            check = _orthant_table(means, chol, _GAUSS_LEGENDRE_CHECK)
            # np.maximum, unlike max, keeps a NaN from either side.
            residual = float(np.maximum(residual, np.abs(table - check).max()))
        # Written so that a NaN residual fails.
        if not residual <= ENUM_TOL:
            raise QuadratureToleranceError(residual, ENUM_TOL)
        weights = np.prod(alpha.priors[digits[:, neighbors]], axis=1)
        codes = (digits[:, center_pos, None] * n_out + np.arange(n_out)).ravel()
        probs += np.bincount(codes, weights=(weights[:, None] * table).ravel(),
                             minlength=n_levels * n_out).reshape(probs.shape)

    flipped = flip_index(np.arange(n_out), m)
    for i in range(n_levels - n_direct):
        probs[n_levels - 1 - i] = probs[i][flipped]

    row_error = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if not row_error <= 1e-9:
        raise QuadratureToleranceError(row_error, 1e-9)
    return TransitionTable(probs=probs, method="enum", samples=0)
