"""Transition table estimator tests.

Groups:
 1. Exact tables against closed-form normal CDF values on channels with
    no symbol overlap (the neighbor average collapses).
 2. Exact tables with correlated samples, and the kernel's orthants of
    a correlated pair (alone or after an independent sample), against
    an independent multivariate normal CDF reference; the kernel's row
    blocks against one block.
 3. Structural invariants: sign symmetry (bitwise), row sums, refusals;
    literal exact tables, and the memo of their window sets.
 4. Monte Carlo: determinism across worker counts, the blocked chunk
    kernel against a single-pass reference, chunk reuse across sample
    budgets, agreement with exact tables, error calibration, queued
    chunks cancelled by a failed one.
 5. Table utilities: group tables, read-only arrays.
 6. The kernel's normal CDFs: Phi against scipy's ``ndtr``, and Genz's
    bivariate CDF against scipy's, on both of its branches.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from signrate import transitions
from signrate.channel import (
    ComponentAlphabet,
    assemble,
    component_alphabet,
    flip_index,
    from_taps,
)
from signrate.errors import (
    BudgetExceededError,
    CorrelatedNoiseError,
    QuadratureToleranceError,
)
from signrate.pulses import GAUSSIAN, ROOT_RAISED_COSINE, PulseSpec, delta_taps
from signrate.transitions import (
    _BLOCK_SAMPLES,
    CHUNK_SAMPLES,
    ENUM_BUDGET,
    MC_TABLE_BUDGET,
    TransitionTable,
    _ndtr,
    _phi2,
    component_cholesky,
    enumerate_exact,
    mc_estimate,
    orthant_table,
)


def _delta_channel(alphabet, snr_db, m=1, span=9):
    d = delta_taps(span, m)
    return from_taps(d, d, alphabet, snr_db)


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
    """Independent reference: one multivariate normal CDF per window.

    scipy integrates three or more dimensions by randomized quasi-Monte
    Carlo to about 1e-5; a fixed generator keeps the reference
    reproducible.  Windows centered on the upper half of the levels are
    the sign flips of the lower half's (negating the window flips every
    sign, and the sign symmetry test pins that), so only the lower half
    is integrated and the upper rows are mirrored.
    """
    rng = np.random.default_rng(0)
    alpha = ch.alphabet
    length = ch.memory + 1
    m = ch.oversampling
    probs = np.zeros((alpha.size, 1 << m))
    for flat in range(alpha.size ** length):
        digits = np.unravel_index(flat, (alpha.size,) * length)
        digits = np.array(digits)
        if digits[ch.memory // 2] >= (alpha.size + 1) // 2:
            continue
        mu = alpha.levels[digits] @ ch.A.T
        weight = np.prod(alpha.priors[digits]) / alpha.priors[digits[ch.memory // 2]]
        for y in range(1 << m):
            signs = 2.0 * ((y >> np.arange(m)) & 1) - 1.0
            cov = ch.R_component * np.outer(signs, signs)
            p = multivariate_normal(mean=np.zeros(m), cov=cov,
                                    seed=rng).cdf(signs * mu)
            probs[digits[ch.memory // 2], y] += weight * p
    flipped = flip_index(np.arange(1 << m), m)
    for i in range(alpha.size // 2):
        probs[alpha.size - 1 - i] = probs[i][flipped]
    return probs


@pytest.mark.parametrize("m, span", [(2, 5), (3, 3), (4, 3)])
def test_exact_table_correlated_matches_mvn_reference(m, span):
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.22, span_symbols=span,
                     oversampling=m)
    ch = assemble(spec, "4qam", snr_db=6.0)
    assert np.any(np.abs(ch.R_component - np.diag(np.diag(ch.R_component))) > 1e-6)
    table = enumerate_exact(ch)
    expect = _reference_table(ch)
    assert np.max(np.abs(table.probs - expect)) < 2e-5


@pytest.mark.parametrize("alphabet, m, span, kernel_rows", [
    ("4qam", 3, 9, 6400), ("16qam", 3, 5, 6400),
    ("4qam", 4, 5, 7680), ("4qam", 4, 9, 76800)])
def test_kernel_row_blocks_match_one_block(monkeypatch, alphabet, m, span,
                                           kernel_rows):
    # A small _KERNEL_ROWS makes _subset_orthants split the chunk's rows
    # into blocks (100 rows of three samples, 3 or 30 of four), which
    # must tile the rows and give the table of one block.
    ch = _pinned_channel(alphabet, m, span, 10.0)
    whole = enumerate_exact(ch).probs
    kernel = transitions._subset_orthants
    rows = []

    def spy(means, chol):
        rows.append(len(means))
        return kernel(means, chol)

    monkeypatch.setattr(transitions, "_subset_orthants", spy)
    monkeypatch.setattr(transitions, "_KERNEL_ROWS", kernel_rows)
    split = enumerate_exact(ch).probs
    # One call for the chunk, then one per block.
    assert len(rows) > 2 and sum(rows[1:]) == rows[0]
    if m == 3:
        assert np.array_equal(split, whole)
    else:
        # Four samples integrate through matrix products, whose sums may
        # round differently in another block shape.
        assert np.abs(split - whole).max() <= 1e-15
        assert np.abs(split.sum(axis=1) - 1.0).max() <= 1e-12


def test_exact_table_refuses_uncertified_quadrature(monkeypatch):
    # The tables of these correlated channels, where the kernel
    # integrates, and their embedded checks agree to about 3.3e-12 at
    # M = 3 and 9.6e-10 at M = 4 (nearly singular noise); a tolerance
    # below that must refuse, the default must not.
    for spec in (PulseSpec(ROOT_RAISED_COSINE, 0.0, signaling_ratio=2.0,
                           span_symbols=5, oversampling=3),
                 PulseSpec(GAUSSIAN, 0.3, span_symbols=9, oversampling=4)):
        ch = assemble(spec, "4qam", snr_db=10.0)
        with monkeypatch.context() as patched:
            patched.setattr(transitions, "ENUM_TOL", 1e-16)
            with pytest.raises(QuadratureToleranceError) as info:
                enumerate_exact(ch)
        assert info.value.requested == 1e-16
        assert info.value.achieved > 1e-16
        enumerate_exact(ch)


@pytest.mark.parametrize("m, noise, integrates", [
    (2, "rrc", False), (3, "delta", False), (3, "rrc", True),
    (4, "rrc", True)])
def test_check_rule_runs_only_where_the_kernel_integrates(monkeypatch, m,
                                                          noise, integrates):
    # Each window chunk is one full-width kernel call.  Where the kernel
    # integrates, each (a, j) Plackett term is built once per block and
    # serves both the table and its check; a quadrature-free table
    # (correlated M <= 2, or diagonal noise) builds none.
    real_table = transitions.orthant_table
    real_terms = transitions._plackett_terms
    calls, built = [], []

    def spy_table(means, chol):
        if means.shape[1] == m:
            calls.append(len(means))
        return real_table(means, chol)

    def spy_terms(h, corr, a, j):
        built.append((len(h), a, j))
        return real_terms(h, corr, a, j)

    monkeypatch.setattr(transitions, "orthant_table", spy_table)
    monkeypatch.setattr(transitions, "_plackett_terms", spy_terms)
    # The 4 lower-half windows of a 3-symbol 4qam window, in chunks of 3.
    monkeypatch.setattr(transitions, "_WINDOW_CHUNK", 3)
    if noise == "rrc":
        ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.3, span_symbols=3,
                                oversampling=m), "4qam", snr_db=8.0)
    else:
        ch = _delta_channel("4qam", snr_db=8.0, m=m, span=3)
    enumerate_exact(ch)
    assert calls == [3, 1]
    # A term pairs a sample a that has two later samples with one of them:
    # 2 terms per block at M = 3, 5 at M = 4.
    terms = {3: [(0, 1), (0, 2)],
             4: [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]}
    expected = terms[m] if integrates else []
    assert built == [(rows, a, j) for rows in calls for a, j in expected]


def test_check_weights_form_a_rule_on_the_odd_nodes():
    n = transitions._GAUSS_LEGENDRE
    points = transitions._gauss_legendre(n)[0]
    weights = transitions._embedded_weights(n)
    assert weights.shape == (n // 2,)
    assert (weights > 0).all()
    # The rule's nodes are the odd-indexed ones; it integrates P_0 ...
    # P_{n/2 - 1} over [-1, 1] exactly.
    basis = np.polynomial.legendre.legvander(points, n // 2 - 1)
    moments = weights @ basis[1::2]
    assert np.abs(moments - np.eye(n // 2)[0] * 2.0).max() < 1e-14


def _bivariate_reference(means, chol):
    """Sign-pattern probabilities from scipy's 2-D normal CDF."""
    cov = chol @ chol.T
    probs = np.zeros((len(means), 4))
    for r, mu in enumerate(means):
        for y in range(4):
            signs = 2.0 * ((y >> np.arange(2)) & 1) - 1.0
            probs[r, y] = multivariate_normal(
                mean=np.zeros(2), cov=cov * np.outer(signs, signs),
                abseps=1e-15, releps=1e-15).cdf(signs * mu)
    return probs


@pytest.mark.parametrize("rho", [0.999, -0.999, 0.6, -0.3])
def test_bivariate_orthants_match_mvn_cdf(rho):
    # Standardized means (h, k): exact zeros, mixed signs and 8 sigma.
    hk = np.array([(0.0, 0.0), (0.0, 1.3), (0.0, -1.3), (1.1, 0.0),
                   (-1.1, 0.0), (0.0, 8.0), (-8.0, 0.0), (8.0, 8.0),
                   (-8.0, -8.0), (8.0, -8.0), (-8.0, 8.0), (0.5, -2.0),
                   (2.0, 3.0), (-0.2, 0.1)])
    sigma0, sigma1 = 0.3, 0.7
    chol = np.array([[sigma0, 0.0],
                     [rho * sigma1, np.sqrt(1.0 - rho * rho) * sigma1]])
    means = hk * [sigma0, sigma1]
    table = orthant_table(means, chol)
    assert np.all(table >= 0.0)
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) < 1e-14
    reference = _bivariate_reference(means, chol)
    assert np.max(np.abs(table - reference)) < 1e-13
    # An independent sample 0 is peeled off as a normal CDF factor
    # (bit 0 of the pattern) before the correlated pair.
    chol3 = np.zeros((3, 3))
    chol3[0, 0] = 0.4
    chol3[1:, 1:] = chol
    first = 0.4 * np.linspace(-3.0, 3.0, len(hk))
    table3 = orthant_table(np.column_stack([first, means]), chol3)
    peeled = np.stack([ndtr(-first / 0.4), ndtr(first / 0.4)], axis=1)
    expect3 = (reference[:, :, None] * peeled[:, None, :]).reshape(-1, 8)
    assert np.all(table3 >= 0.0)
    assert np.max(np.abs(table3 - expect3)) < 1e-13


# -- Group 3: invariants and refusals ---------------------------------------------------

@pytest.mark.parametrize("name", ["4qam", "16qam", "3-level"])
def test_exact_table_sign_symmetry_is_bitwise(name):
    # The 3-level alphabet is in no registry; its middle (zero) level is
    # its own mirror.
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.3, span_symbols=5, oversampling=2)
    if name == "3-level":
        three = ComponentAlphabet(name, np.array([-1.0, 0.0, 1.0]),
                                  np.array([0.25, 0.5, 0.25]))
        ch = dataclasses.replace(assemble(spec, "4qam", snr_db=8.0),
                                 alphabet=three)
    else:
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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_exact_table_refuses_non_finite_channel(m):
    # A NaN in A makes NaN tables, which every tolerance check used to
    # pass (each compared with >); closed-form (M = 1), pair (correlated
    # M = 2) and integrating (correlated M = 3 and 4) tables are all
    # refused.
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.3, span_symbols=3,
                            oversampling=m), "4qam", snr_db=8.0)
    a = ch.A.copy()
    a[0, 0] = np.nan
    with pytest.raises(QuadratureToleranceError):
        enumerate_exact(dataclasses.replace(ch, A=a))


def test_enumeration_refuses_blown_budget():
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.22, span_symbols=13,
                            oversampling=1), "16qam", snr_db=10.0)
    with pytest.raises(BudgetExceededError) as info:
        enumerate_exact(ch)
    assert info.value.required == 4 ** 13 * 2
    assert info.value.budget == ENUM_BUDGET


def test_enumeration_refuses_wide_correlated_noise():
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.22, oversampling=5),
                  "4qam", snr_db=10.0)
    with pytest.raises(CorrelatedNoiseError):
        enumerate_exact(ch)


def test_cholesky_factor_reproduces_covariance():
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.22, oversampling=4),
                  "4qam", snr_db=10.0)
    chol = component_cholesky(ch)
    assert np.allclose(chol @ chol.T, ch.R_component, rtol=0, atol=1e-15)


# Literal exact tables, as float.hex.  They pin the exact path (windows,
# prior weights, kernel and reduction order) bit for bit on 4qam M = 2 at
# two SNRs, a 16qam table, an integrating M = 3 table, and an alphabet
# that is in no registry (4qam levels times 1.5).  All use rrc 0.5 at
# ratio 1.2.
PINNED_TABLES = {
    ('4qam', 2, 9, 0.0): [
        ['0x1.4fae139c5ed3fp-1', '0x1.b7f35a284c9b7p-5', '0x1.6c63c08e5b097p-3', '0x1.cdce34ec2cfe6p-4'],
        ['0x1.cdce34ec2cfe6p-4', '0x1.6c63c08e5b097p-3', '0x1.b7f35a284c9b7p-5', '0x1.4fae139c5ed3fp-1'],
    ],
    ('4qam', 2, 9, 30.0): [
        ['0x1.80012fa9ec8b1p-1', '0x0.0p+0', '0x1.fffb41584dd47p-3', '0x0.0p+0'],
        ['0x0.0p+0', '0x1.fffb41584dd47p-3', '0x0.0p+0', '0x1.80012fa9ec8b1p-1'],
    ],
    ('16qam', 1, 5, 10.0): [
        ['0x1.ffc9efe21ca29p-1', '0x1.b080ef1aeb99bp-12'],
        ['0x1.b86e6615fe01cp-1', '0x1.1e4667a807f80p-3'],
        ['0x1.1e4667a807f80p-3', '0x1.b86e6615fe01cp-1'],
        ['0x1.b080ef1aeb99bp-12', '0x1.ffc9efe21ca29p-1'],
    ],
    ('4qam', 3, 5, 10.0): [
        ['0x1.2b93c5f87d4e0p-1', '0x1.ee25453715458p-12', '0x1.c96b6629e8a00p-18', '0x1.09c0b68151a00p-17', '0x1.5040be1773040p-2', '0x1.8a138d5894a00p-12', '0x1.46d110418117cp-4', '0x1.8061b16ec0c20p-8'],
        ['0x1.8061b16ec0c20p-8', '0x1.46d110418117cp-4', '0x1.8a138d5894a00p-12', '0x1.5040be1773040p-2', '0x1.09c0b68151a00p-17', '0x1.c96b6629e8a00p-18', '0x1.ee25453715458p-12', '0x1.2b93c5f87d4e0p-1'],
    ],
    ('loud', 2, 5, 10.0): [
        ['0x1.8000c0e4b933fp-1', '0x1.e40616c9e1800p-18', '0x1.fe9f6b651d15bp-3', '0x1.59c8fbd087440p-11'],
        ['0x1.59c8fbd087440p-11', '0x1.fe9f6b651d15bp-3', '0x1.e40616c9e1800p-18', '0x1.8000c0e4b933fp-1'],
    ],
}


def _pinned_channel(alphabet, m, span, snr_db):
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.5, signaling_ratio=1.2,
                     span_symbols=span, oversampling=m)
    if alphabet != "loud":
        return assemble(spec, alphabet, snr_db)
    base = component_alphabet("4qam")
    loud = ComponentAlphabet("loud", 1.5 * base.levels, base.priors)
    return dataclasses.replace(assemble(spec, "4qam", snr_db), alphabet=loud)


@pytest.mark.parametrize("cell", list(PINNED_TABLES))
def test_exact_tables_pinned(cell):
    table = enumerate_exact(_pinned_channel(*cell))
    expect = [[float.fromhex(v) for v in row] for row in PINNED_TABLES[cell]]
    assert table.probs.tolist() == expect


def test_window_sets_shared_across_snrs_and_pulses():
    # The window set depends on the alphabet and L alone: two SNRs of one
    # pulse, a second pulse of the same span and another M share its
    # arrays.
    channels = [assemble(PulseSpec(family, shape, span_symbols=5,
                                   oversampling=m), "16qam", snr_db=snr)
                for family, shape, m, snr in (
                    (ROOT_RAISED_COSINE, 0.3, 2, 0.0),
                    (ROOT_RAISED_COSINE, 0.3, 2, 20.0),
                    (GAUSSIAN, 0.5, 2, 10.0),
                    (ROOT_RAISED_COSINE, 0.3, 1, 10.0))]
    sets = [list(transitions._window_chunks(ch)) for ch in channels]
    assert len(sets[0]) == 1
    for other in sets[1:]:
        assert other[0] is sets[0][0]
    for arr in sets[0][0]:
        assert not arr.flags.writeable
    levels, weights, centers = sets[0][0]
    # Centers in the lower half: 2 of 4 levels, 4^4 neighbor patterns.
    assert levels.shape == (2 * 4 ** 4, 5)
    assert weights.sum() == pytest.approx(2.0)
    assert np.bincount(centers).tolist() == [4 ** 4, 4 ** 4]
    # The centers are their own array, not a view of the digit matrix.
    assert centers.base is None


def test_scaled_alphabet_gets_its_own_window_set():
    # The memo keys on levels and priors, never on the alphabet's name.
    ch = _pinned_channel("4qam", 2, 5, 10.0)
    loud = _pinned_channel("loud", 2, 5, 10.0)
    renamed = dataclasses.replace(
        ch, alphabet=dataclasses.replace(loud.alphabet, name="4qam"))
    [plain], [scaled] = (list(transitions._window_chunks(c))
                         for c in (ch, loud))
    assert plain is not scaled
    assert np.array_equal(scaled[0], 1.5 * plain[0])
    assert list(transitions._window_chunks(renamed)) == [scaled]
    assert not np.array_equal(enumerate_exact(ch).probs,
                              enumerate_exact(loud).probs)


def test_window_memo_holds_a_bounded_number_of_bytes():
    # The memo keeps the last chunk it built, whatever tables ran before:
    # 8 (L + 3) bytes per window of at most one chunk.
    memo = transitions._window_set
    memo.cache_clear()
    for name in ("4qam", "16qam"):
        for m in (1, 2, 4):
            for span in (1, 3, 5, 7, 9):
                ch = _delta_channel(name, 0.0, m=m, span=span)
                enumerate_exact(ch)
                assert memo.cache_info().currsize == 1
                last = list(transitions._window_chunks(ch))[-1]
                assert sum(a.nbytes for a in last) <= (
                    8 * (ch.memory + 3) * transitions._WINDOW_CHUNK)
    # 16qam span 9 holds 2 * 4^8 windows, more than one chunk.
    assert 2 * 4 ** 8 > transitions._WINDOW_CHUNK


def test_large_window_set_is_built_one_chunk_at_a_time(monkeypatch):
    # A window set of several chunks never exists whole: each build
    # covers one chunk, the builds tile the set, the memo keeps only the
    # last, and the table equals the one from the memoized chunks.
    monkeypatch.setattr(transitions, "_WINDOW_CHUNK", 100)
    # 2 of 4 centers times 4^4 neighbor patterns: 512 windows, 6 chunks.
    ch = _delta_channel("16qam", 10.0, m=1, span=5)
    memo = transitions._window_set
    memo.cache_clear()
    expect = enumerate_exact(ch).probs

    built = []

    def spy_build(*args):
        built.append(args[-2:])
        return memo(*args)

    monkeypatch.setattr(transitions, "_window_set", spy_build)
    table = enumerate_exact(ch)
    assert built == [(s, min(s + 100, 512)) for s in range(0, 512, 100)]
    assert memo.cache_info().currsize == 1
    assert np.array_equal(table.probs, expect)


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


def _unblocked_chunk_counts(ch, n, seed, chunk_index):
    """Reference: one chunk in a single pass, without blocks or buffers."""
    chol = component_cholesky(ch)
    cdf = np.cumsum(ch.alphabet.priors)
    cdf[-1] = 1.0
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    rng = np.random.default_rng(seq)
    m = ch.oversampling
    idx = np.searchsorted(cdf, rng.random(n + ch.memory), side="right")
    symbols = ch.alphabet.levels[idx]
    white = rng.standard_normal((n, m)).T.copy()
    codes = idx[ch.memory // 2:ch.memory // 2 + n] << m
    for k in range(m):
        noise = chol[k, 0] * white[0]
        for j in range(1, k + 1):
            noise += chol[k, j] * white[j]
        z = np.convolve(symbols, ch.A[k, ::-1], mode="valid") + noise
        codes |= (z >= 0.0) << k
    counts = np.bincount(codes, minlength=ch.alphabet.size << m)
    return counts.reshape(ch.alphabet.size, ch.n_outputs)


@pytest.mark.parametrize("noise", ["rrc", "delta"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["4qam", "16qam"])
def test_mc_blocks_match_unblocked_chunks(name, m, noise):
    # Budgets at and around the block edges, then two chunks with the
    # second ending one interval into its second block: the blocked kernel
    # must reproduce the single-pass counts exactly, with its buffers
    # reused from chunk to chunk.
    if noise == "rrc":
        ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.5, signaling_ratio=1.2,
                                oversampling=m), name, snr_db=10.0)
    else:
        ch = _delta_channel(name, snr_db=10.0, m=m)
    correlated = np.tril(component_cholesky(ch), -1).any()
    assert correlated == (noise == "rrc" and m > 1)
    block = _BLOCK_SAMPLES
    for n in (1, block - 1, block, block + 1, 40000, CHUNK_SAMPLES):
        est = mc_estimate(ch, samples=n, seed=5)
        assert np.array_equal(est.counts, _unblocked_chunk_counts(ch, n, 5, 0))
    est = mc_estimate(ch, samples=CHUNK_SAMPLES + block + 1, seed=6,
                      workers=2)
    expect = [_unblocked_chunk_counts(ch, CHUNK_SAMPLES, 6, 0),
              _unblocked_chunk_counts(ch, block + 1, 6, 1)]
    assert np.array_equal(est.group_counts[:2], expect)


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
        row_n = est.counts.sum(axis=1, keepdims=True)
        se = np.sqrt(est.probs * (1.0 - est.probs) / row_n)
        stderr = max(stderr, float(np.max(se)))
    assert stderr > 0.0
    assert worst < 4.0 * stderr


def test_failed_chunk_cancels_queued_chunks(monkeypatch):
    # At two workers the third chunk raises; the chunks still queued
    # never start, not even after mc_estimate has raised.
    ch = _delta_channel("4qam", snr_db=4.0)
    real = transitions._chunk_counts
    calls = []
    lock = threading.Lock()

    def failing(*args):
        with lock:
            calls.append(None)
            third = len(calls) == 3
        if third:
            raise RuntimeError("chunk failed")
        return real(*args)

    monkeypatch.setattr(transitions, "_chunk_counts", failing)
    # The caller keeps the exception, and with it mc_estimate's frame.
    with pytest.raises(RuntimeError, match="chunk failed") as raised:
        mc_estimate(ch, samples=200 * CHUNK_SAMPLES, seed=1, workers=2)
    started = len(calls)
    time.sleep(0.2)
    assert len(calls) == started < 100


def test_mc_rejects_bad_arguments():
    ch = _delta_channel("4qam", snr_db=5.0)
    with pytest.raises(ValueError):
        mc_estimate(ch, samples=0, seed=1)
    with pytest.raises(ValueError):
        mc_estimate(ch, samples=100, seed=1, workers=0)
    # Counts are int64; no chunk may run with such a budget.
    with pytest.raises(ValueError, match="2\\^63"):
        mc_estimate(ch, samples=1 << 63, seed=1)


def test_mc_refuses_oversized_table():
    # |X| 2^M table entries above the budget are refused before anything
    # is allocated; 16qam's 4 component levels reach it at M = 14.
    edge = mc_estimate(_delta_channel("16qam", 5.0, m=14, span=1),
                       samples=10, seed=1)
    assert edge.probs.shape == (4, 1 << 14)
    with pytest.raises(BudgetExceededError) as info:
        mc_estimate(_delta_channel("16qam", 5.0, m=15, span=1),
                    samples=10, seed=1)
    assert info.value.required == 4 << 15
    assert info.value.budget == MC_TABLE_BUDGET
    assert "exact enumeration" not in str(info.value)


# -- Group 5: utilities -------------------------------------------------------------------

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


def test_table_arrays_read_only():
    ch = _delta_channel("4qam", snr_db=5.0)
    table = enumerate_exact(ch)
    with pytest.raises(ValueError):
        table.probs[0, 0] = 0.5


# -- Group 6: normal CDFs ------------------------------------------------------------------

def test_ndtr_matches_scipy():
    x = np.linspace(-40.0, 40.0, 400001)
    expect = ndtr(x)
    got = _ndtr(x)
    err = np.abs(got - expect)
    assert err.max() <= 2e-16
    shown = expect >= 1e-300
    assert np.max(err[shown] / expect[shown]) <= 5e-15
    # Shape is kept; the ends are exact and NaN stays NaN.
    assert np.array_equal(_ndtr(x[:12].reshape(3, 4)), got[:12].reshape(3, 4))
    ends = _ndtr(np.array([0.0, -0.0, 1e300, -1e300, np.inf, -np.inf]))
    assert ends.tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]
    assert np.isnan(_ndtr(np.array([np.nan]))).all()


# Genz's rules switch at |rho| = 0.3, 0.75 and 0.925 (asymptotic form).
GENZ_RHOS = [s * r for r in (0.2, 0.6, 0.9, 0.924, 0.926, 0.99, 0.999999)
             for s in (1, -1)]


@pytest.mark.parametrize("rho", GENZ_RHOS)
def test_phi2_matches_scipy_bivariate_cdf(rho):
    rng = np.random.default_rng(7)
    hk = np.concatenate([
        [(0.0, 0.0), (0.0, 1.3), (0.0, -1.3), (2.1, 0.0), (-2.1, 0.0),
         (0.0, -7.0), (1.5, 1.5), (-1.5, -1.5), (1.5, -1.5), (-6.0, 6.0)],
        rng.normal(scale=2.5, size=(30, 2))])
    h, k = hk.T
    got = _phi2(h, k, rho, _ndtr(h), _ndtr(k))
    mvn = multivariate_normal(mean=np.zeros(2), cov=[[1.0, rho], [rho, 1.0]],
                              abseps=1e-15, releps=1e-15)
    expect = np.array([mvn.cdf(point) for point in hk])
    assert np.max(np.abs(got - expect)) <= 1e-14


def test_phi2_rho_per_column_matches_scalar_rho():
    # One rho per column, spanning all four rules, as the Plackett terms
    # pass it: each column matches the scalar-rho evaluation up to the
    # order of the matrix products' sums.
    rhos = np.array(GENZ_RHOS)
    rng = np.random.default_rng(3)
    h, k = rng.normal(scale=2.0, size=(2, 50, rhos.size))
    got = _phi2(h, k, rhos, _ndtr(h), _ndtr(k))
    for col, rho in enumerate(rhos):
        expect = _phi2(h[:, col], k[:, col], rho, _ndtr(h[:, col]),
                       _ndtr(k[:, col]))
        assert np.max(np.abs(got[:, col] - expect)) <= 1e-15


@pytest.mark.parametrize("rho", GENZ_RHOS)
def test_phi2_keeps_nan(rho):
    # A NaN threshold must come out NaN on either branch, even with
    # finite Phi inputs: no cut-off may turn it into a number.
    h = np.array([np.nan, 0.4, np.nan])
    k = np.array([0.4, np.nan, np.nan])
    assert np.isnan(_phi2(h, k, rho, np.full(3, 0.5), np.full(3, 0.5))).all()
