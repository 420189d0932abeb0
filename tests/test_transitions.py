"""Transition table estimator tests.

Groups:
 1. Exact tables against closed-form normal CDF values on channels with
    no symbol overlap (the neighbor average collapses).
 2. Exact tables with correlated samples against an independent
    multivariate normal CDF reference.
 3. Structural invariants: sign symmetry (bitwise), row sums, refusals.
 4. Monte Carlo: determinism across worker counts, chunk reuse across
    sample budgets, agreement with exact tables, error calibration.
 5. Table utilities: marginal, group tables, CSV export.
"""

import io

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from signrate.channel import assemble, component_alphabet, flip_index, from_taps
from signrate.errors import BudgetExceededError, CorrelatedNoiseError
from signrate.pulses import ROOT_RAISED_COSINE, PulseSpec, delta_taps
from signrate.transitions import (
    CHUNK_SAMPLES,
    TransitionTable,
    component_cholesky,
    enumerate_exact,
    export_table_csv,
    mc_estimate,
    output_marginal,
)


def _delta_channel(alphabet, snr_db, m=1, span=9):
    d = delta_taps(span, m)
    return from_taps(d, d, d, alphabet, snr_db)


# -- Group 1: closed-form checks ---------------------------------------------------

@pytest.mark.parametrize("name", ["4qam", "16qam"])
def test_exact_table_no_overlap_single_sample(name):
    ch = _delta_channel(name, snr_db=5.0)
    table = enumerate_exact(ch)
    sigma_c = np.sqrt(ch.sigma2 / 2.0)
    expect_plus = ndtr(ch.alphabet.levels / sigma_c)
    expect_minus = ndtr(-ch.alphabet.levels / sigma_c)
    # The neighbor average sums tens of thousands of identical terms
    # sequentially, which costs a small multiple of machine epsilon.
    assert np.allclose(table.probs[:, 1], expect_plus, rtol=1e-11, atol=0)
    assert np.allclose(table.probs[:, 0], expect_minus, rtol=1e-11, atol=0)


def test_exact_table_no_overlap_two_samples():
    # The second sample of each interval sits between symbols and sees
    # zero mean, so it contributes an exact factor of one half.
    ch = _delta_channel("4qam", snr_db=3.0, m=2)
    table = enumerate_exact(ch)
    sigma_c = np.sqrt(ch.sigma2 / 2.0)
    for i, level in enumerate(ch.alphabet.levels):
        p1 = {1: ndtr(level / sigma_c), 0: ndtr(-level / sigma_c)}
        for y in range(4):
            expect = p1[y & 1] * 0.5
            assert table.probs[i, y] == pytest.approx(expect, rel=1e-11)


# -- Group 2: correlated samples ------------------------------------------------------

def _reference_table(ch):
    """Independent reference: one multivariate normal CDF per window."""
    alpha = ch.alphabet
    length = ch.memory + 1
    m = ch.oversampling
    probs = np.zeros((alpha.size, 1 << m))
    for flat in range(alpha.size ** length):
        digits = np.unravel_index(flat, (alpha.size,) * length)
        digits = np.array(digits)
        mu = alpha.levels[digits] @ ch.A.T
        weight = np.prod(alpha.priors[digits]) / alpha.priors[digits[ch.memory // 2]]
        for y in range(1 << m):
            signs = 2.0 * ((y >> np.arange(m)) & 1) - 1.0
            cov = ch.R_component * np.outer(signs, signs)
            p = multivariate_normal(mean=np.zeros(m), cov=cov).cdf(signs * mu)
            probs[digits[ch.memory // 2], y] += weight * p
    return probs


def test_exact_table_correlated_matches_mvn_reference():
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.22, span_symbols=5, oversampling=2)
    ch = assemble(spec, "4qam", snr_db=6.0)
    assert np.any(np.abs(ch.R_component - np.diag(np.diag(ch.R_component))) > 1e-6)
    table = enumerate_exact(ch)
    expect = _reference_table(ch)
    assert np.max(np.abs(table.probs - expect)) < 2e-5


# -- Group 3: invariants and refusals ---------------------------------------------------

@pytest.mark.parametrize("name", ["4qam", "16qam"])
def test_exact_table_sign_symmetry_is_bitwise(name):
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.3, span_symbols=5, oversampling=2)
    ch = assemble(spec, name, snr_db=8.0)
    table = enumerate_exact(ch)
    flipped = flip_index(np.arange(table.n_outputs), ch.oversampling)
    assert np.array_equal(table.probs, table.probs[::-1][:, flipped])


def test_exact_table_rows_sum_to_one():
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.22, span_symbols=5, oversampling=2)
    ch = assemble(spec, "16qam", snr_db=10.0)
    table = enumerate_exact(ch)
    assert np.all(table.probs >= 0.0)
    assert np.max(np.abs(table.probs.sum(axis=1) - 1.0)) < 1e-12


def test_enumeration_refuses_blown_budget():
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.22, oversampling=4),
                  "16qam", snr_db=10.0)
    with pytest.raises(BudgetExceededError) as info:
        enumerate_exact(ch, budget=1000)
    assert info.value.required == 4 ** 9 * 16
    assert info.value.budget == 1000


def test_enumeration_refuses_wide_correlated_noise():
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.22, oversampling=4),
                  "4qam", snr_db=10.0)
    with pytest.raises(CorrelatedNoiseError):
        enumerate_exact(ch)


def test_cholesky_factor_reproduces_covariance():
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.22, oversampling=4),
                  "4qam", snr_db=10.0)
    chol = component_cholesky(ch)
    assert np.allclose(chol @ chol.T, ch.R_component, rtol=0, atol=1e-15)


# -- Group 4: Monte Carlo ---------------------------------------------------------------

def test_mc_is_deterministic_across_workers():
    ch = _delta_channel("4qam", snr_db=4.0)
    a = mc_estimate(ch, samples=150000, seed=11, workers=1)
    b = mc_estimate(ch, samples=150000, seed=11, workers=3)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.group_counts, b.group_counts)
    assert np.array_equal(a.probs, b.probs)


# Literal counts at seed 2024.  They pin the random stream, the order of
# its draws and the chunk arithmetic: a kernel change that moves any
# count, even by float rounding at a sign boundary, fails here.
PINNED_COUNTS = {
    4: [[11942, 0, 0, 0, 0, 0, 0, 0, 4764, 0, 0, 0, 2647, 0, 0, 0],
        [10363, 0, 0, 0, 120, 0, 18, 0, 1878, 0, 0, 0, 4111, 0, 3041, 0],
        [0, 2967, 0, 4142, 0, 0, 0, 1931, 0, 25, 0, 120, 0, 1, 0, 10251],
        [0, 0, 0, 2572, 0, 0, 0, 4758, 0, 0, 0, 0, 0, 0, 0, 12230]],
    1: [[19353, 0], [18011, 1520], [1526, 17911], [0, 19560]],
}


@pytest.mark.parametrize("m, snr_db", [(4, 25.0), (1, 10.0)])
def test_mc_counts_pinned_on_correlated_noise(m, snr_db):
    # rrc with M = 4 has correlated sample noise; the budget ends in a
    # partial chunk.
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.22, oversampling=m),
                  "16qam", snr_db=snr_db)
    off_diagonal = ch.R_component - np.diag(np.diag(ch.R_component))
    assert m == 1 or np.max(np.abs(off_diagonal)) > 1e-3
    samples = CHUNK_SAMPLES + 12345
    tables = [mc_estimate(ch, samples=samples, seed=2024, workers=w)
              for w in (1, 2, 3)]
    assert tables[0].counts.tolist() == PINNED_COUNTS[m]
    assert tables[0].group_counts.sum(axis=(1, 2)).tolist() == (
        [CHUNK_SAMPLES, 12345] + [0] * 8)
    for other in tables[1:]:
        assert np.array_equal(other.counts, tables[0].counts)
        assert np.array_equal(other.group_counts, tables[0].group_counts)


def test_mc_chunks_extend_across_budgets():
    ch = _delta_channel("16qam", snr_db=6.0)
    small = mc_estimate(ch, samples=65536, seed=3)
    large = mc_estimate(ch, samples=131072, seed=3)
    assert np.array_equal(small.group_counts[0], large.group_counts[0])
    assert small.counts.sum() == 65536
    assert large.counts.sum() == 131072


def test_mc_seed_changes_counts():
    ch = _delta_channel("4qam", snr_db=4.0)
    a = mc_estimate(ch, samples=65536, seed=1)
    b = mc_estimate(ch, samples=65536, seed=2)
    assert not np.array_equal(a.counts, b.counts)


def test_mc_matches_exact_table():
    ch = _delta_channel("4qam", snr_db=3.0, m=2)
    exact = enumerate_exact(ch)
    est = mc_estimate(ch, samples=200000, seed=29)
    row_n = est.counts.sum(axis=1, keepdims=True)
    se = np.sqrt(exact.probs * (1.0 - exact.probs) / row_n)
    z = np.abs(est.probs - exact.probs) / np.maximum(se, 1e-12)
    assert np.max(z) < 4.0


def test_mc_error_estimate_calibrated():
    ch = _delta_channel("4qam", snr_db=5.0)
    exact = enumerate_exact(ch)
    worst = 0.0
    stderr = 0.0
    for seed in range(10):
        est = mc_estimate(ch, samples=10000, seed=seed)
        worst = max(worst, float(np.max(np.abs(est.probs - exact.probs))))
        stderr = max(stderr, est.stderr_max)
    assert stderr > 0.0
    assert worst < 4.0 * stderr


def test_mc_rejects_bad_arguments():
    ch = _delta_channel("4qam", snr_db=5.0)
    with pytest.raises(ValueError):
        mc_estimate(ch, samples=0, seed=1)
    with pytest.raises(ValueError):
        mc_estimate(ch, samples=100, seed=1, workers=0)


# -- Group 5: utilities -------------------------------------------------------------------

def test_output_marginal_sums_to_one():
    ch = _delta_channel("16qam", snr_db=8.0, m=2)
    table = enumerate_exact(ch)
    marginal = output_marginal(table, ch.alphabet.priors)
    assert marginal.shape == (4,)
    assert abs(marginal.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        output_marginal(table, np.array([0.5, 0.5]))


def test_group_tables_shape_and_normalization():
    ch = _delta_channel("4qam", snr_db=5.0)
    est = mc_estimate(ch, samples=300000, seed=17)
    gp = est.group_probs()
    assert gp.shape == (10, 2, 2)
    sums = gp.sum(axis=2)
    assert np.allclose(sums[est.group_counts.sum(axis=2) > 0], 1.0,
                       rtol=0, atol=1e-12)
    exact = enumerate_exact(ch)
    with pytest.raises(ValueError):
        exact.group_probs()


def test_table_csv_export():
    ch = _delta_channel("4qam", snr_db=5.0, m=2)
    table = enumerate_exact(ch)
    buf = io.StringIO()
    export_table_csv(table, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "input,output,probability"
    assert len(lines) == 1 + 2 * 4
    i, y, p = lines[1].split(",")
    assert (i, y) == ("0", "0")
    assert float(p) == table.probs[0, 0]


def test_table_arrays_read_only():
    ch = _delta_channel("4qam", snr_db=5.0)
    table = enumerate_exact(ch)
    with pytest.raises(ValueError):
        table.probs[0, 0] = 0.5
