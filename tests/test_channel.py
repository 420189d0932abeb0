"""Discrete receiver model tests.

Groups:
 1. Banded (Toeplitz) matrices against hand-written layouts.
 2. Mean operator A against a hand convolution at L = 2, M = 2, the
    impulse-selects-center-symbol special case, and the product H U of
    an explicit upsampler and response matrix.
 3. Per-component alphabets: values, priors, symbol energy, rejection.
 4. Observation bit order.
 5. Assembled channel: dimensions, covariance structure, read-only state.
"""

import itertools

import numpy as np
import pytest

from signrate.channel import (
    ComponentAlphabet,
    DiscreteChannel,
    assemble,
    build_toeplitz,
    component_alphabet,
    flip_index,
    from_taps,
    sigma2_from_snr_db,
)
from signrate.pulses import (
    GAUSSIAN,
    ROOT_RAISED_COSINE,
    FilterTaps,
    PulseSpec,
    combined_response,
    delta_taps,
)
from signrate.transitions import enumerate_exact


# -- Group 1: banded matrices ----------------------------------------------------

def test_toeplitz_single_tap():
    t = build_toeplitz(np.array([1.0]), 1, 5)
    assert np.array_equal(t, [[1.0, 0.0, 0.0, 0.0, 0.0]])


def test_toeplitz_rows_shift_by_one_sample():
    taps = np.array([1.0, 2.0, 3.0])
    t = build_toeplitz(taps, 2, 4)
    expect = np.array([
        [3.0, 2.0, 1.0, 0.0],
        [0.0, 3.0, 2.0, 1.0],
    ])
    assert np.array_equal(t, expect)


def test_toeplitz_rejects_overlong_filter():
    with pytest.raises(ValueError):
        build_toeplitz(np.arange(6.0), 2, 5)
    # Fits the first row but not the shifted last row.
    with pytest.raises(ValueError):
        build_toeplitz(np.arange(5.0), 3, 6)


# -- Group 2: mean operator -------------------------------------------------------

def test_mean_operator_matches_hand_convolution():
    # L = 2, M = 2: the window holds three symbols placed two samples apart,
    # and the two observation rows read the reversed response with a one
    # sample shift.  Everything below is written out by hand.
    h = FilterTaps(np.array([0.11, -0.2, 0.35, 1.0, 0.4, -0.15]), 2)
    ch = from_taps(delta_taps(3, 2), h, component_alphabet("4qam"),
                   snr_db=10.0)
    x = np.array([0.7, -1.1, 0.4])
    t = h.taps
    expect = np.array([
        x[0] * t[5] + x[1] * t[3] + x[2] * t[1],
        x[1] * t[4] + x[2] * t[2],
    ])
    assert np.allclose(ch.A @ x, expect, rtol=0, atol=1e-15)


def test_impulse_response_selects_center_symbol():
    alpha = component_alphabet("4qam")
    for m in (1, 2):
        d = delta_taps(9, m)
        ch = from_taps(d, d, alpha, snr_db=5.0)
        x = np.linspace(-1.0, 1.0, 9)
        mu = ch.A @ x
        assert mu.shape == (m,)
        assert mu[0] == pytest.approx(x[4], abs=1e-15)
        assert np.allclose(mu[1:], 0.0, atol=1e-15)


def _upsampled_response(taps: np.ndarray, memory: int, m: int) -> np.ndarray:
    """H U written out: U places window symbol j on sample j M + (M - 1) // 2
    of the (L + 2) M - 1 sample grid, and H reads the combined response."""
    u = np.zeros(((memory + 2) * m - 1, memory + 1))
    u[np.arange(memory + 1) * m + (m - 1) // 2, np.arange(memory + 1)] = 1.0
    h = build_toeplitz(taps, m, (memory + 2) * m - 1)
    return h @ u


def test_mean_operator_equals_upsampled_response_product():
    shapes = [(ROOT_RAISED_COSINE, 0.0), (ROOT_RAISED_COSINE, 0.22),
              (ROOT_RAISED_COSINE, 1.0), (GAUSSIAN, 0.3), (GAUSSIAN, 1.0)]
    for (family, shape), m, span, ratio in itertools.product(
            shapes, (1, 2, 3, 4, 5), (1, 3, 9, 13), (1.0, 1.3, 2.0)):
        spec = PulseSpec(family, shape, ratio, span_symbols=span,
                         oversampling=m)
        ch = assemble(spec, "4qam", 10.0)
        expect = _upsampled_response(combined_response(spec).taps,
                                     ch.memory, m)
        assert np.array_equal(ch.A, expect), spec


# -- Group 3: alphabets ------------------------------------------------------------

def test_quaternary_component_levels():
    a = component_alphabet("4qam")
    assert np.allclose(a.levels, [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
                       rtol=0, atol=1e-15)
    assert np.array_equal(a.priors, [0.5, 0.5])


def test_sixteen_level_component_levels():
    a = component_alphabet("16qam")
    s = 1.0 / np.sqrt(10.0)
    assert np.allclose(a.levels, [-3 * s, -s, s, 3 * s], rtol=0, atol=1e-15)
    assert np.array_equal(a.priors, np.full(4, 0.25))


@pytest.mark.parametrize("name", ["4qam", "16qam"])
def test_component_symbol_energy_is_half(name):
    a = component_alphabet(name)
    energy = float(np.dot(a.priors, a.levels ** 2))
    assert abs(energy - 0.5) < 1e-12


def test_unknown_alphabet_rejected():
    with pytest.raises(ValueError):
        component_alphabet("8psk")


def test_alphabet_structural_validation():
    with pytest.raises(ValueError):
        ComponentAlphabet("bad", np.array([0.3, -0.3]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ComponentAlphabet("bad", np.array([-0.3, 0.3]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        ComponentAlphabet("bad", np.array([-0.3, 0.1]), np.array([0.5, 0.5]))


# -- Group 4: bit order -------------------------------------------------

def test_observation_index_encoding():
    # The center symbol reaches sample 0 only; sample 1 is pure noise.  At
    # 60 dB the sign of sample 0 is the sign of the level, so a +1 first
    # sample must set bit 0 of the output index.
    d = delta_taps(3, 2)
    ch = from_taps(d, d, "4qam", snr_db=60.0)
    assert np.array_equal(ch.A, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    probs = enumerate_exact(ch).probs
    bit0 = (np.arange(4) & 1).astype(bool)
    assert np.allclose(probs[1, bit0], 0.5, rtol=0, atol=1e-12)
    assert np.allclose(probs[0, ~bit0], 0.5, rtol=0, atol=1e-12)
    assert np.allclose(probs[1, ~bit0], 0.0, rtol=0, atol=1e-12)
    assert np.allclose(probs[0, bit0], 0.0, rtol=0, atol=1e-12)
    # The -level row is the +level row read at the negated patterns.
    assert np.array_equal(probs[0], probs[1, flip_index(np.arange(4), 2)])


def test_index_roundtrip_and_flip():
    for m in (1, 2, 4):
        for idx in range(2 ** m):
            # Negating every sign sample clears each set bit and sets each
            # clear one; negating twice restores the index.
            negated = sum(((idx >> k) & 1 ^ 1) << k for k in range(m))
            assert flip_index(idx, m) == negated
            assert flip_index(flip_index(idx, m), m) == idx


# -- Group 5: assembled channel -------------------------------------------------------

def test_snr_convention():
    assert sigma2_from_snr_db(0.0) == pytest.approx(1.0, rel=1e-15)
    assert sigma2_from_snr_db(10.0) == pytest.approx(0.1, rel=1e-12)
    assert sigma2_from_snr_db(-3.0) == pytest.approx(10 ** 0.3, rel=1e-12)


def test_assembled_dimensions_oversampled():
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.22, oversampling=4), "4qam", 10.0)
    assert ch.memory == 8
    assert ch.G.shape == (4, 36)
    assert ch.R.shape == (4, 4)
    assert ch.A.shape == (4, 9)


def test_covariance_diagonal_carries_noise_power():
    for m in (1, 4):
        ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.3, oversampling=m), "4qam", 7.0)
        s2 = sigma2_from_snr_db(7.0)
        assert np.allclose(np.diag(ch.R), s2, rtol=0, atol=1e-12 * s2)
        assert np.array_equal(ch.R, ch.R.T)
        assert np.all(np.linalg.eigvalsh(ch.R) > 0.0)


def test_covariance_has_positive_neighbor_correlation():
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.22, oversampling=4), "4qam", 10.0)
    lag1 = np.diag(ch.R, k=1)
    assert np.all(lag1 > 0.0)


def test_identity_receive_filter_whitens():
    ch = from_taps(delta_taps(9, 2), combined_response(
        PulseSpec(GAUSSIAN, 0.4, span_symbols=9, oversampling=2)), "4qam", 4.0)
    s2 = sigma2_from_snr_db(4.0)
    assert np.allclose(ch.R, s2 * np.eye(2), rtol=0, atol=1e-15)


def test_per_component_covariance_is_half():
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.5, oversampling=2), "16qam", 12.0)
    assert np.allclose(ch.R_component, 0.5 * ch.R, rtol=0, atol=0)


def test_channel_arrays_are_read_only():
    ch = assemble(PulseSpec(ROOT_RAISED_COSINE, 0.22), "4qam", 10.0)
    for arr in (ch.G, ch.R, ch.A):
        with pytest.raises(ValueError):
            arr[0, 0] = 9.9

