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
  Gaussian orthant probabilities, all from one vectorized kernel.  The
  windows, their prior weights and output codes depend only on the
  alphabet, L and M, and :func:`_window_chunks` keeps them per process,
  within a memory bound, so an exact table costs its kernel calls and
  reductions.  A sample whose noise no later sample shares contributes a
  normal CDF factor.  The 2, 3 or 4 correlated samples left take every sign
  pattern by inclusion and exclusion from normal CDFs of their subsets:
  Phi from Cephes' rational approximations, Genz's fixed-node form for
  pairs, so M <= 2 and diagonal noise need no adaptive quadrature, and
  Plackett's identity, one smooth integral each on a fixed
  Gauss-Legendre rule, for three and four; an embedded check on the same
  nodes weighs the same integrand values again, and the kernel accepts a
  table only when the two agree.  Correlated noise is exact up to M = 4
  and refused beyond that; :func:`check_enumerable` owns that refusal and
  the budget's.
  The kernel is numpy alone; its quadrature rules are built the first
  time it runs, so importing the package and Monte Carlo tables load no
  ``numpy.polynomial``.

Both estimators exploit the sign symmetry of the model: negating the
symbol window flips every output bit, so tables satisfy
``probs[x, y] == probs[-x, flip(y)]``.  The exact path enforces this
bitwise by computing only half the input rows and mirroring.
"""

from __future__ import annotations

import bisect
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

# Nodes of the Gauss-Legendre rule on the Plackett t-integrals.  Tables
# use it; the interpolatory rule on its odd-indexed nodes checks it.
_GAUSS_LEGENDRE = 64

# Elements of the kernel's largest arrays per block of rows.
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


def check_samples(samples: int) -> None:
    """Refuse a sample budget outside [1, 2^63): counts are int64."""
    if not 1 <= samples < 1 << 63:
        raise ValueError(f"samples must lie in [1, 2^63), got {samples}")


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
    check_samples(samples)
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


# Cephes' rational approximations behind Phi (Moshier 1989), highest power
# first: erf(z) = z T(z^2) / U(z^2) for z < 1, and
# erfc(z) = exp(-z^2) P(z) / Q(z) for 1 <= z < 8, exp(-z^2) R(z) / S(z)
# beyond.  Each range is a (numerator, denominator) pair of Horner
# coefficients, zero-padded to degree 8; the numerators are scaled by -1/2
# and 1/2, so that a range's ratio is -erf(z) / 2 or, times exp(-z^2),
# erfc(z) / 2.  Row 2 i + 0 (numerator) or 1 (denominator) holds the i-th
# coefficients, one column per range.
_SQRT_HALF = 0.7071067811865476
_NDTR_HORNER = (np.array([
    [(0.0, 0.0, 0.0, 0.0, 9.60497373987051638749e0,
      9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4),
     (0.0, 0.0, 0.0, 1.0, 3.35617141647503099647e1,
      5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)],
    [(2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2),
     (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)],
    [(0.0, 0.0, 0.0, 5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0),
     (0.0, 0.0, 1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)],
]).transpose(2, 1, 0) * [[-0.5, 0.5, 0.5], [1.0, 1.0, 1.0]]).reshape(18, 3)

# Standardized thresholds are clipped to +-40, where Phi is 0 or 1 in
# double precision (Phi(-40) < 1e-340), so no square of one overflows.
_H_LIMIT = 40.0

# |rho| edges of Genz's rules for the bivariate normal CDF: 6, 12 and 20
# Gauss-Legendre nodes below 0.3, 0.75 and 0.925, and the asymptotic form
# (20 nodes) above.
_GENZ_EDGES = (0.3, 0.75, 0.925)
_GENZ_NODES = (6, 12, 20, 20)

# Windows per kernel call of enumerate_exact: one block of correlated
# pairs, as _subset_orthants sizes them; it splits wider blocks itself.
_WINDOW_CHUNK = _KERNEL_ROWS // (2 * _GENZ_NODES[-1])


def _cephes_ratio(z: np.ndarray) -> tuple:
    """Cephes' rational at each z in [0, 40 / sqrt 2], and the mask z < 1.

    One product of the coefficient table with the one-hot range of every
    element gives each its own coefficients, exactly, and one Horner pass
    evaluates every element's rational.  The ratio r gives
    -erf(z) / 2 = z r below z = 1 and erfc(z) / 2 = exp(-z^2) r above;
    NaN stays NaN.
    """
    flat = z.ravel()
    above = flat >= 1.0
    beyond = flat >= 8.0
    ranges = np.empty((3, flat.size))
    np.logical_not(above, out=ranges[0])
    np.not_equal(above, beyond, out=ranges[1])
    ranges[2] = beyond
    coef = (_NDTR_HORNER @ ranges).reshape((9, 2) + z.shape)
    small = ~above.reshape(z.shape)
    v = np.where(small, z * z, z)
    acc = coef[0] * v
    acc += coef[1]
    for c in coef[2:]:
        acc *= v
        acc += c
    return acc[0] / acc[1], small


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Phi(x), the standard normal CDF, elementwise, as Cephes computes it.

    With z = |x| / sqrt 2, Phi(x) is 1/2 +- erf(z) / 2 (z < 1), the tail
    erfc(z) / 2 (x <= 0) or one minus it, each with one rounding.  Beyond
    |x| = 40 the result is exactly 0 or 1; NaN stays NaN.
    """
    x = np.asarray(x, dtype=float)
    z = np.abs(x)
    np.minimum(z, _H_LIMIT, out=z)
    z *= _SQRT_HALF
    ratio, small = _cephes_ratio(z)
    tail = np.where(small, z, np.exp(-z * z)) * ratio
    # Phi(x) = base - tail above 0 and base' + tail below: the bases are
    # 1/2 where z < 1 (the tail is then -erf(z) / 2), else 1 and 0.
    below = 0.5 * small
    return np.where(x > 0, (1.0 - below) - tail, below + tail)


def _sign_probs(t: np.ndarray) -> np.ndarray:
    """Columns Phi(-t) and Phi(t), from one normal tail per value."""
    tail = _ndtr(-np.abs(t))
    neg = t < 0
    return np.stack([np.where(neg, 1.0 - tail, tail),
                     np.where(neg, tail, 1.0 - tail)], axis=-1)


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """Points and weights of the n-node Gauss-Legendre rule on [-1, 1],
    built on first use, so that importing the package or running Monte
    Carlo tables never loads ``numpy.polynomial``."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(n)


@functools.cache
def _embedded_weights(n: int) -> np.ndarray:
    """Weights of the interpolatory rule on the odd-indexed nodes of the
    n-node Gauss-Legendre rule: the n / 2 weights that integrate the
    Legendre polynomials P_0 ... P_{n/2 - 1} over [-1, 1] exactly, to 2
    and then 0.  Built on first use, like :func:`_gauss_legendre`."""
    from numpy.polynomial.legendre import legvander
    points = _gauss_legendre(n)[0][1::2]
    moments = np.zeros(points.size)
    moments[0] = 2.0
    return np.linalg.solve(legvander(points, points.size - 1).T, moments)


@functools.cache
def _genz_rule(rule: int) -> tuple:
    """Nodes and weights of Genz's ``rule`` for a mean over [0, 1]."""
    points, weights = _gauss_legendre(_GENZ_NODES[rule])
    return (1.0 + points) / 2.0, weights / 2.0


def _phi2(h: np.ndarray, k: np.ndarray, rho, phi_h: np.ndarray,
          phi_k: np.ndarray) -> np.ndarray:
    """P(Z_0 < h, Z_1 < k) of standard normals with correlation ``rho``,
    given ``phi_h`` = Phi(h) and ``phi_k`` = Phi(k), for finite h and k.

    Genz's (2004) evaluation: the Drezner-Wesolowsky integral over the
    correlation on 6, 12 or 20 Gauss-Legendre nodes for |rho| < 0.925,
    and his asymptotic form about rho = +-1 above.  ``rho`` is a scalar,
    or one value per position along the last axis of ``h`` and ``k``;
    the rule, and every constant that depends on rho alone, is chosen
    once per value, not per element.
    """
    if np.ndim(rho) == 0:
        rho = float(rho)
        return _genz(h, k, phi_h, phi_k, rho,
                     bisect.bisect_right(_GENZ_EDGES, abs(rho)))
    rule = np.searchsorted(_GENZ_EDGES, np.abs(rho), side="right")
    # One row per value of rho, one column per element.
    rows = [np.reshape(v, (-1, rho.size)).T for v in (h, k, phi_h, phi_k)]
    out = np.empty(rows[0].shape)
    for r in np.unique(rule):
        sel = rule == r
        out[sel] = _genz(*(v[sel] for v in rows), rho[sel], int(r))
    return out.T.reshape(h.shape)


def _exp_on_nodes(left: np.ndarray, right: np.ndarray, coef: np.ndarray
                  ) -> np.ndarray:
    """exp(left * coef[0] + right * coef[1]) on every node (last axis of
    ``coef``), with exponents floored at -100.

    Genz drops the node terms below exp(-100); flooring them there instead
    moves a pair CDF by less than 1e-40, and keeps exp and the weighted
    sums that follow off subnormal numbers, on which both run several
    times slower.  np.maximum keeps a NaN.
    """
    values = np.empty(left.shape + (2,))
    values[..., 0] = left
    values[..., 1] = right
    e = values @ coef
    np.maximum(e, -100.0, out=e)
    return np.exp(e, out=e)


def _genz(h, k, phi_h, phi_k, rho, rule: int) -> np.ndarray:
    """:func:`_phi2` for one rule: ``rho`` is a scalar, or one value per
    row of ``h`` and ``k``.

    Below |rho| = 0.925, Phi_2 is Phi(h) Phi(k) plus the integral over
    theta from 0 to asin(rho) of exp(-(h^2 + k^2 - 2 hk sin theta) /
    (2 cos^2 theta)) / (2 pi).  Above, with s the sign of rho, it is
    Phi(min(h, k)) (s = 1) or P(-h < Z < k) (s = -1) less an integral
    over x in [0, sqrt(1 - rho^2)] that is closed form near x = 0 and
    integrated on the nodes for the rest.  Every exponent on the nodes
    is linear in two per-element values, so one matrix product per row
    with that row's node constants forms them all, and a second one takes
    the weighted sums.  1 - rho^2 is floored at 1e-200, which changes no
    result in double precision and lets |rho| = 1 through.
    """
    nodes, weights = _genz_rule(rule)
    if rule < 3:
        asr = np.arcsin(rho)[..., None]
        theta = asr * nodes
        inv = 1.0 / np.cos(theta) ** 2
        coef = np.empty(theta.shape[:-1] + (2, nodes.size))
        np.multiply(np.sin(theta), inv, out=coef[..., 0, :])
        np.multiply(inv, -0.5, out=coef[..., 1, :])
        e = _exp_on_nodes(h * k, h * h + k * k, coef)
        return phi_h * phi_k + (e @ (weights * asr / (2.0 * np.pi))[..., None]
                                )[..., 0]

    s = np.sign(rho)[..., None]
    hk = s * h * k
    bs = h - s * k
    b = np.abs(bs)
    bs *= bs
    # np.maximum keeps a NaN rho.
    as_ = np.maximum((1.0 - rho) * (1.0 + rho), 1e-200)[..., None]
    a = np.sqrt(as_)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    # Both closed-form terms carry e0 = exp(-(bs / as + hk) / 2) <= 1:
    # exp(-hk / 2) Phi(-b / a) = e0 exp(y^2) erfc(y) / 2 with
    # y = b / (a sqrt 2).  Clipping y at 40 / sqrt 2 changes nothing, as
    # e0 < exp(-0.96 y^2) then underflows to 0.
    e0 = np.exp(-(bs / as_ + hk) / 2.0)
    y = np.minimum(b / a, _H_LIMIT) * _SQRT_HALF
    ratio, small = _cephes_ratio(y)
    # exp(y^2) only where y < 1: elsewhere it could overflow unused.
    half_erfcx = np.where(small, np.exp(y * y * small) * (0.5 + y * ratio),
                          ratio)
    closed = e0 * (
        a * (1.0 - c * (bs - as_) * (1.0 - d * bs) / 3.0 + c * d * as_ * as_)
        - np.sqrt(2.0 * np.pi) * b * half_erfcx
        * (1.0 - c * bs * (1.0 - d * bs) / 3.0))
    # On the nodes x^2 = xs, the integrand is exp(-(bs / xs + hk) / 2)
    # times (1 + c xs (1 + 5 d xs) - exp(-hk xs / (2 (1 + rs)^2)) / rs),
    # rs = sqrt(1 - xs): two exponentials, one weighted sum each of
    # 1, xs and xs^2 for the first and 1 / rs for the second.
    xs = (a * nodes) ** 2
    rs = np.sqrt(1.0 - xs)
    n = nodes.size
    coef = np.empty(xs.shape[:-1] + (2, 2 * n))
    coef[..., 0, :n] = coef[..., 0, n:] = -0.5 / xs
    coef[..., 1, :n] = -0.5
    coef[..., 1, n:] = -0.5 - xs / (2.0 * (1.0 + rs) ** 2)
    e = _exp_on_nodes(bs, hk, coef)
    w = weights * a
    sum_weights = np.zeros(xs.shape[:-1] + (2 * n, 4))
    sum_weights[..., :n, 0] = w
    sum_weights[..., :n, 1] = w * xs
    sum_weights[..., :n, 2] = 5.0 * w * xs * xs
    sum_weights[..., n:, 3] = -w / rs
    sums = e @ sum_weights
    rest = (sums[..., 0] + c * sums[..., 1] + c * d * sums[..., 2]
            + sums[..., 3])
    bvn = (rest - closed) / (2.0 * np.pi)
    # P(-h < Z < k), each difference taken where it loses nothing.
    between = np.where(h > 0, phi_k - (1.0 - phi_h), phi_h - (1.0 - phi_k))
    return np.where(s > 0, np.minimum(phi_h, phi_k) + bvn,
                    np.where(h + k > 0, between, 0.0) - bvn)


def _plackett_terms(h: np.ndarray, corr: np.ndarray, a: int, j: int):
    """The (a, j) terms of Plackett's identity for Phi_k(h; corr), k = 3, 4,
    as a function of the rest samples, which must lie after a: one row on
    the ``_GAUSS_LEGENDRE`` rule and one on its embedded check.

    Along t in [0, 1] the correlations of sample a scale to t times their
    value, so R(t) mixes ``corr`` with a matrix where a is independent,
    and d Phi_k / dt is the sum over j of rho_aj phi_2(h_a, h_j; t rho_aj)
    Phi_{k-2}(h_rest | Z_a = h_a, Z_j = h_j; R(t)) (Plackett 1954; Genz
    2004).  The integrand steepens towards t = 1 when ``corr`` is nearly
    singular or |rho_aj| nearly one, with its singularities just beyond
    t = 1, so the Gauss-Legendre points are placed in u with t = 1 - u^2,
    which moves them off the interval.  The check rule weighs the same
    integrand values on the odd-indexed nodes (:func:`_embedded_weights`),
    so each value is computed once for both estimates.  The density
    and the conditional law of every sample after a but j do not depend on
    which of them are the rest, so they, and one :func:`_ndtr` call, are
    shared by every subset whose (a, j) term this is.
    """
    points, weights = _gauss_legendre(_GAUSS_LEGENDRE)
    rest = [i for i in range(a + 1, h.shape[1]) if i != j]
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
    phi = _ndtr(x)
    r, det = r[:, 0], det[:, 0]
    density = np.exp(-(h_a * h_a - 2.0 * r * h_a * h_j + h_j * h_j)
                     / (2.0 * det)) / (2.0 * np.pi * np.sqrt(det))
    # dt = 2u du and du = dp / 2 on the nodes' [-1, 1].
    scaled = weights * u
    check = _embedded_weights(_GAUSS_LEGENDRE) * u[1::2]

    def term(samples: list) -> np.ndarray:
        cols = [rest.index(i) for i in samples]
        if len(cols) == 1:
            inner = phi[..., cols[0]]
        else:
            p, q = cols
            inner = _phi2(x[..., p], x[..., q],
                          cov[:, p, q] / (sd[:, p] * sd[:, q]),
                          phi[..., p], phi[..., q])
        values = density * inner
        # Two products, not one with two weight columns: a matrix product
        # would sum the table's terms in another order than this one.
        return corr[a, j] * np.stack([values @ scaled,
                                      values[:, 1::2] @ check])

    return term


def _subset_orthants(means: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """P(sign pattern y) of ``means[r] + chol @ w`` for k = 2, 3 or 4
    correlated samples, in blocks of rows sized to ``_KERNEL_ROWS``.

    F(U) = P(every sample in U negative) is a normal CDF Phi_|U| of the
    standardized means h = -m / sigma (clipped to +-40) at the samples'
    correlations: Phi for one sample, all singletons from one
    :func:`_ndtr` call, Genz's :func:`_phi2` for two, and Plackett's
    identity, Phi_|U| = Phi(h_a) Phi_{|U|-1}(U - a) plus a smooth
    t-integral per partner j of a (its lowest sample), for three and four.
    The pattern whose negative samples are exactly T then follows by
    inclusion and exclusion, P = sum over U containing T of
    (-1)^|U - T| F(U).  The t-integrals run on ``_GAUSS_LEGENDRE``, and
    an embedded check on the same nodes gives a second table from the
    same integrand values; tables that differ by more than ``ENUM_TOL``
    raise :class:`QuadratureToleranceError`.
    """
    n, k = means.shape
    # Per row, the largest arrays hold the Plackett nodes times the k - 2
    # rest samples, or the two exponentials on each of up to 20 Genz nodes
    # of a pair CDF (at k = 4, once per Plackett node).
    width = max(_GAUSS_LEGENDRE * (k - 2),
                2 * _GENZ_NODES[-1] * (_GAUSS_LEGENDRE if k == 4 else 1))
    rows = _KERNEL_ROWS // width
    if n > rows:
        return np.concatenate([_subset_orthants(means[s:s + rows], chol)
                               for s in range(0, n, rows)])
    cov = chol @ chol.T
    sigma = np.sqrt(np.diagonal(cov))
    corr = cov / np.outer(sigma, sigma)
    h = np.maximum(-means / sigma, -_H_LIMIT)
    np.minimum(h, _H_LIMIT, out=h)
    phi = _ndtr(h)
    # One CDF table where no t-integral runs; else the table's and the
    # check's, from the same Plackett terms.
    integrates = k > 2
    cdf = np.ones((1 + integrates, n, 1 << k))
    for a in range(k):
        cdf[..., 1 << a] = phi[:, a]
        for b in range(a + 1, k):
            cdf[..., 1 << a | 1 << b] = _phi2(h[:, a], h[:, b], corr[a, b],
                                              phi[:, a], phi[:, b])
    # Plackett terms by (a, j), each shared by every subset it occurs in.
    terms = {}
    # Dropping a bit gives a smaller mask, so Phi_{|U|-1}(U - a) is ready.
    # The first mask of three samples is 0b111, so a pair runs no loop.
    for mask in range(7, 1 << k):
        a, *others = [j for j in range(k) if mask >> j & 1]
        if len(others) < 2:
            continue
        total = phi[:, a] * cdf[..., mask & (mask - 1)]
        for j in others:
            if (a, j) not in terms:
                terms[a, j] = _plackett_terms(h, corr, a, j)
            total += terms[a, j]([i for i in others if i != j])
        cdf[..., mask] = total
    # Moebius inversion over supersets, one sample (array axis) at a time;
    # the column of pattern y is then its negative set ~y.
    table = cdf.reshape(cdf.shape[:2] + (2,) * k)
    for axis in range(2, k + 2):
        lower = (slice(None),) * axis + (0,)
        upper = (slice(None),) * axis + (1,)
        table[lower] -= table[upper]
    out = cdf[..., ::-1]
    # Cancellation must never leave a negative probability.
    np.maximum(out, 0.0, out=out)
    if integrates:
        deviation = float(np.abs(out[0] - out[1]).max())
        # Written so that a NaN deviation fails.
        if not deviation <= ENUM_TOL:
            raise QuadratureToleranceError(deviation, ENUM_TOL)
    return out[0]


def orthant_table(means: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """P(sign pattern y) of ``means[r] + chol @ w`` for every row r.

    ``w`` is standard normal and ``chol`` lower triangular with a
    positive diagonal; bit j of y is set when sample j is nonnegative.
    The recursion peels off the first sample while no later sample
    shares its white variable w_0, as a normal CDF factor, so tiny
    probabilities stay accurate relative to their size.  The 2, 3 or 4
    samples left once one does go to :func:`_subset_orthants`, which
    integrates and certifies three or more.
    """
    n, k = means.shape
    if chol[1:, 0].any():
        return _subset_orthants(means, chol)
    first = _sign_probs(means[:, 0] / chol[0, 0])
    if k == 1:
        return first
    rest = orthant_table(means[:, 1:], chol[1:, 1:])
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


def _window_set(levels: tuple, priors: tuple, memory: int, m: int,
                start: int, stop: int) -> tuple:
    """Windows ``start`` to ``stop`` of the part of an exact table that
    depends only on the alphabet, L and M, as read-only arrays: the
    levels of each window whose center lies in the lower half of the
    alphabet (one row per window, in enumeration order), its
    neighbor-prior weight, its flat (center level, pattern) bincount
    codes, ``2^M`` per window, and the pattern permutation that negates
    every sample.
    """
    levels, priors = np.array(levels), np.array(priors)
    n_levels = levels.size
    center_pos = memory // 2
    n_out = 1 << m
    shape = [n_levels] * (memory + 1)
    shape[center_pos] = (n_levels + 1) // 2
    digits = np.stack(np.unravel_index(np.arange(start, stop), shape),
                      axis=1)
    neighbors = [i for i in range(memory + 1) if i != center_pos]
    arrays = (levels[digits],
              np.prod(priors[digits[:, neighbors]], axis=1),
              (digits[:, center_pos, None] * n_out + np.arange(n_out)).ravel(),
              flip_index(np.arange(n_out), m))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


# Window chunks _window_chunks keeps per process, and the size of a whole
# window set above which its chunks are built afresh on every call
# instead: at most 16 MiB held in all.
_WINDOW_SETS = 16
_WINDOW_SET_BYTES = 1 << 20

_window_memo = functools.lru_cache(maxsize=_WINDOW_SETS)(_window_set)


def _window_chunks(ch: DiscreteChannel):
    """Yield the channel's window set in chunks of ``_WINDOW_CHUNK``
    windows, each as :func:`_window_set` builds it.

    Chunks are keyed on the alphabet's levels and priors (never its
    name), L and M.  When the whole set takes at most ``_WINDOW_SET_BYTES``
    (8 (L + 2 + 2^M) bytes per window; enum_point's takes 28 kB, one
    chunk), its chunks come from a memo of ``_WINDOW_SETS`` entries and
    are built once per process.  A larger set, whose tables the kernel
    dominates, is built one chunk at a time on every call, so it never
    exists whole.
    """
    alpha = ch.alphabet
    key = (tuple(alpha.levels.tolist()), tuple(alpha.priors.tolist()),
           ch.memory, ch.oversampling)
    n_windows = (alpha.size + 1) // 2 * alpha.size ** ch.memory
    nbytes = 8 * n_windows * (ch.memory + 2 + ch.n_outputs)
    build = _window_memo if nbytes <= _WINDOW_SET_BYTES else _window_set
    for start in range(0, n_windows, _WINDOW_CHUNK):
        yield build(*key, start, min(start + _WINDOW_CHUNK, n_windows))


def enumerate_exact(ch: DiscreteChannel) -> TransitionTable:
    """Compute the transition table by exhaustive window enumeration.

    Cost is |X|^(L+1) windows times 2^M outputs.  :func:`check_enumerable`
    refuses a table above ``ENUM_BUDGET`` with
    :class:`BudgetExceededError`, and correlated noise beyond M = 4 with
    :class:`CorrelatedNoiseError`, which asks for the Monte Carlo path
    instead.  The windows, their prior weights and codes come in fixed
    chunks from :func:`_window_chunks`, which keeps them per (alphabet,
    L, M) and process within a memory bound, so a table costs its kernel
    calls and reductions.  Each chunk goes to :func:`orthant_table` in
    one call: normal CDF products where sample noise is uncorrelated, and
    the subset-CDF kernel for each block of 2, 3 or 4 correlated samples,
    which certifies its own Plackett integrals (three or more samples).
    :class:`QuadratureToleranceError` is raised when the kernel's table and
    its embedded check on the same nodes, or a window's probabilities and
    a sum of one, differ by more than ``ENUM_TOL``.  Rows come out bitwise
    sign-symmetric because the upper half is a mirrored copy of the lower
    half.
    """
    n_levels = ch.alphabet.size
    n_out = ch.n_outputs
    chol = check_enumerable(ch)

    probs = np.zeros((n_levels, n_out))
    for levels, weights, codes, flipped in _window_chunks(ch):
        table = orthant_table(levels @ ch.A.T, chol)
        residual = float(np.abs(table.sum(axis=1) - 1.0).max())
        # Written so that a NaN residual fails.
        if not residual <= ENUM_TOL:
            raise QuadratureToleranceError(residual, ENUM_TOL)
        probs += np.bincount(codes, weights=(weights[:, None] * table).ravel(),
                             minlength=n_levels * n_out).reshape(probs.shape)

    # Windows with the center in the upper half mirror the lower half.
    for i in range(n_levels // 2):
        probs[n_levels - 1 - i] = probs[i][flipped]

    row_error = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if not row_error <= 1e-9:
        raise QuadratureToleranceError(row_error, 1e-9)
    return TransitionTable(probs=probs, method="enum", samples=0)
