"""Information rates of the quantized channel.

The per-interval transition table defines a discrete memoryless channel;
its mutual information under the symbol priors is the achievable rate per
component.  A complex constellation carries two independent components,
so the rate in bits per channel use is twice the component rate, and the
bandwidth-normalized rate weights it by the signaling ratio (symbols per
pulse-design interval).

:func:`block_entropy_bound` checks the estimate from the other side: on a
short exactly-enumerated block, the joint conditional entropy of the
inputs given all outputs never exceeds the sum of per-interval
conditional entropies, so the per-interval table never understates the
uncertainty an optimal joint receiver would see.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .channel import DiscreteChannel, assemble
from .config import RunConfig
from .errors import BudgetExceededError, CorrelatedNoiseError
from .transitions import (TransitionTable, enumerate_exact, mc_estimate,
                          orthant_table)

__all__ = [
    "BoundReport",
    "RateResult",
    "block_entropy_bound",
    "dmc_mutual_information",
    "rate_for_config",
    "rate_from_table",
]

# Cap on block joint size; the block check materializes the full
# |X|^n by 2^(nM) joint distribution.
BLOCK_BUDGET = 1 << 22


def _entropy_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sums of p * log2(p / q) over the entries with p > 0 along the last
    axis, q broadcast against p: one sum per row of a table."""
    mask = p > 0.0
    ratio = np.where(mask, p / np.where(mask, q, 1.0), 1.0)
    return np.sum(np.where(mask, p * np.log2(ratio), 0.0), axis=-1)


def dmc_mutual_information(probs: np.ndarray, priors: np.ndarray) -> float:
    """Mutual information of a discrete memoryless channel, in bits.

    ``probs[x, y]`` holds P(y | x); rows must be probability vectors and
    ``priors`` the input distribution.  Terms with P(y | x) = 0 contribute
    zero, and round-off below zero is returned as zero.
    """
    probs = np.asarray(probs, dtype=float)
    priors = np.asarray(priors, dtype=float)
    if probs.ndim != 2 or priors.shape != (probs.shape[0],):
        raise ValueError("need a 2-d table and matching priors")
    # Each check states what valid input satisfies, so NaN fails it.
    if not np.all(probs >= 0.0):
        raise ValueError("transition probabilities must be nonnegative")
    if not np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-6:
        raise ValueError("transition rows must sum to one")
    if not (np.all(priors >= 0.0) and abs(priors.sum() - 1.0) <= 1e-9):
        raise ValueError("priors must be a probability vector")
    marginal = priors @ probs
    mi = float(priors @ _entropy_terms(probs, marginal))
    return max(mi, 0.0)


@dataclasses.dataclass(frozen=True, slots=True)
class RateResult:
    """One evaluated rate point.

    ``rate_bpcu`` is bits per channel use (two components);
    ``rate_3db`` weights it by the signaling ratio, giving the rate per
    pulse-design interval, which is the bandwidth-normalized figure the
    sweeps compare.  ``stderr`` is the standard error of ``rate_bpcu``
    (zero for exact tables).
    """

    config: RunConfig
    mutual_information: float
    rate_bpcu: float
    rate_3db: float
    stderr: float
    method: str
    samples: int

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "fingerprint": self.config.fingerprint(),
            "method": self.method,
            "mutual_information": self.mutual_information,
            "rate_3db": self.rate_3db,
            "rate_bpcu": self.rate_bpcu,
            "samples": self.samples,
            "stderr": self.stderr,
        }


def _group_stderr(table: TransitionTable, priors: np.ndarray) -> float:
    """Standard error of the pooled rate from interleaved chunk groups."""
    populated = (table.group_counts.sum(axis=2) > 0).all(axis=1)
    rates = [2.0 * dmc_mutual_information(gp, priors)
             for gp, ok in zip(table.group_probs(), populated) if ok]
    if len(rates) < 2:
        return 0.0
    return float(np.std(rates, ddof=1) / np.sqrt(len(rates)))


def rate_from_table(table: TransitionTable, config: RunConfig,
                    priors: np.ndarray) -> RateResult:
    mi = dmc_mutual_information(table.probs, priors)
    rate = 2.0 * mi
    stderr = 0.0 if table.method == "enum" else _group_stderr(table, priors)
    return RateResult(config=config, mutual_information=mi, rate_bpcu=rate,
                      rate_3db=rate * config.signaling_ratio, stderr=stderr,
                      method=table.method, samples=table.samples)


def rate_for_config(config: RunConfig, *, workers: int = 1) -> RateResult:
    """Evaluate one configuration end to end."""
    ch = assemble(config.pulse_spec(), config.alphabet, config.snr_db)
    if config.estimator == "enum":
        table = enumerate_exact(ch)
    else:
        table = mc_estimate(ch, config.samples, config.stream_seed(),
                            workers=workers)
    return rate_from_table(table, config, ch.alphabet.priors)


# -- Block entropy bound ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BoundReport:
    """Exact block check of the per-interval conditioning bound.

    ``gap = marginal_entropy_sum - block_entropy`` must be nonnegative up
    to float error; it is zero when the block factorizes (no symbol
    overlap, single sample per interval).
    """

    n_intervals: int
    block_entropy: float
    marginal_entropy_sum: float
    gap: float
    n_inputs: int
    n_outputs: int


def block_entropy_bound(ch: DiscreteChannel, n_intervals: int) -> BoundReport:
    """Enumerate a short block exactly and compare conditional entropies.

    The block holds ``n_intervals`` symbols with zero padding outside;
    every symbol vector and every joint sign pattern is enumerated.  The
    noise must be independent across all samples of the block, which
    requires a memoryless receive filter; correlated noise is refused.
    A joint distribution of more than ``BLOCK_BUDGET`` entries raises
    :class:`BudgetExceededError` before anything is allocated.
    """
    if n_intervals < 1:
        raise ValueError("block needs at least one interval")
    m = ch.oversampling
    if np.count_nonzero(ch.noise_taps) != 1:
        raise CorrelatedNoiseError(
            "the block check needs a single-tap receive filter so noise "
            "is independent across samples")
    alpha = ch.alphabet
    n_levels = alpha.size
    n_samples = n_intervals * m
    n_x = n_levels ** n_intervals
    n_y = 1 << n_samples
    if n_x * n_y > BLOCK_BUDGET:
        raise BudgetExceededError(n_x * n_y, BLOCK_BUDGET)

    # Means of every block sample for every symbol vector, applying the
    # per-interval operator A with zero padding outside the block.
    half = ch.memory // 2
    block_op = np.zeros((n_samples, n_intervals))
    for k in range(n_intervals):
        for j in range(n_intervals):
            t = j - k + half
            if 0 <= t <= ch.memory:
                block_op[k * m:(k + 1) * m, j] = ch.A[:, t]
    sigma_c = float(np.sqrt(ch.R_component[0, 0]))
    digits = np.stack(np.unravel_index(
        np.arange(n_x), (n_levels,) * n_intervals), axis=1)
    p_x = np.prod(alpha.priors[digits], axis=1)
    cond = orthant_table(alpha.levels[digits] @ block_op.T,
                         sigma_c * np.eye(n_samples))
    y_bits = np.arange(n_y)

    joint = p_x[:, None] * cond
    p_y = joint.sum(axis=0)
    # H(X | Y) = -sum p(x, y) log2 p(x | y), and _entropy_terms(joint, p_y)
    # is exactly the sum with the opposite sign.
    block_entropy = -float(_entropy_terms(
        joint.ravel(), np.broadcast_to(p_y, joint.shape).ravel()))

    marginal_sum = 0.0
    for k in range(n_intervals):
        x_k = digits[:, k]
        y_k = (y_bits >> (k * m)) & ((1 << m) - 1)
        p_k = np.zeros((n_levels, 1 << m))
        for level in range(n_levels):
            col = joint[x_k == level].sum(axis=0)
            p_k[level] = np.bincount(y_k, weights=col, minlength=1 << m)
        p_yk = p_k.sum(axis=0)
        marginal_sum -= float(_entropy_terms(
            p_k.ravel(), np.broadcast_to(p_yk, p_k.shape).ravel()))

    return BoundReport(
        n_intervals=n_intervals, block_entropy=block_entropy,
        marginal_entropy_sum=marginal_sum,
        gap=marginal_sum - block_entropy, n_inputs=n_x, n_outputs=n_y)
