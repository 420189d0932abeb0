"""Pulse shaping tests.

Groups:
 1. Closed-form pulse values against constants recomputed at 40-digit
    precision with mpmath (frozen below).
 2. Removable-singularity handling and continuity of the root-raised-cosine
    branches.
 3. Tap grids: length, centering, unit energy, symmetry, positivity.
 4. Matched combination: impulse identity, matched center tap, grid checks.
 5. Spectral width estimate and its scaling with the signaling ratio.
"""

import numpy as np
import pytest

from signrate import pulses
from signrate.pulses import (
    GAUSSIAN,
    ROOT_RAISED_COSINE,
    FilterTaps,
    PulseSpec,
    combined_response,
    delta_taps,
    discretize,
    estimate_3db_bandwidth,
    eval_gaussian,
    eval_rrc,
    matched_combine,
)

# mpmath (mp.dps = 40) reference values for the closed forms.
GAUSS_PEAK_B05 = 0.75269184778925248182      # eval_gaussian(0, 0.5)
GAUSS_T1_B05 = 0.1269511346313117084         # eval_gaussian(1, 0.5)
RRC_PEAK_BETA05 = 1.1366197723675813431      # eval_rrc(0, 0.5)
RRC_EDGE_BETA025 = -0.064237155776998622406  # eval_rrc(1, 0.25), t = tx/(4 beta)
RRC_T035_BETA022 = 0.8302730110898743331     # eval_rrc(0.35, 0.22)
RRC_T2_TX125 = -0.033946156827951631236      # eval_rrc(2.0, 0.5, tx=1.25)


# -- Group 1: closed-form values ---------------------------------------------

def test_gaussian_peak_value():
    assert eval_gaussian(0.0, 0.5) == pytest.approx(GAUSS_PEAK_B05, rel=1e-14)


def test_gaussian_off_peak_value():
    assert eval_gaussian(1.0, 0.5) == pytest.approx(GAUSS_T1_B05, rel=1e-13)


def test_gaussian_is_even_and_positive():
    t = np.arange(121) * 0.05
    assert np.all(eval_gaussian(t, 0.3) > 0.0)
    assert np.array_equal(eval_gaussian(t, 0.3), eval_gaussian(-t, 0.3))


def test_gaussian_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        eval_gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        eval_gaussian(0.0, -0.2)


def test_rrc_peak_value():
    assert eval_rrc(0.0, 0.5) == pytest.approx(RRC_PEAK_BETA05, rel=1e-14)


def test_rrc_singular_point_value():
    # t = tx / (4 beta) lands exactly on the removable singularity.
    assert eval_rrc(1.0, 0.25) == pytest.approx(RRC_EDGE_BETA025, rel=1e-13)
    assert eval_rrc(-1.0, 0.25) == pytest.approx(RRC_EDGE_BETA025, rel=1e-13)


def test_rrc_generic_value():
    assert eval_rrc(0.35, 0.22) == pytest.approx(RRC_T035_BETA022, rel=1e-13)


def test_rrc_stretch_matches_rescaled_argument():
    assert eval_rrc(2.0, 0.5, tx=1.25) == pytest.approx(RRC_T2_TX125, rel=1e-13)
    assert eval_rrc(2.0, 0.5, tx=1.25) == pytest.approx(eval_rrc(1.6, 0.5), rel=1e-14)


def test_rrc_zero_rolloff_is_cardinal_sine():
    assert eval_rrc(0.0, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert eval_rrc(0.5, 0.0) == pytest.approx(2.0 / np.pi, rel=1e-13)
    assert eval_rrc(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_rrc_rejects_bad_rolloff():
    with pytest.raises(ValueError):
        eval_rrc(0.1, -0.01)
    with pytest.raises(ValueError):
        eval_rrc(0.1, 1.01)


def test_rrc_vectorized_matches_scalar():
    t = np.linspace(-3.0, 3.0, 101)
    vec = eval_rrc(t, 0.3, tx=1.2)
    ref = np.array([eval_rrc(float(x), 0.3, tx=1.2) for x in t])
    assert np.array_equal(vec, ref)


# -- Group 2: branch continuity ----------------------------------------------

@pytest.mark.parametrize("beta", [0.1, 0.25, 0.5, 0.9])
def test_rrc_continuous_at_origin(beta):
    peak = eval_rrc(0.0, beta)
    for t in (1e-7, -1e-7):
        assert abs(eval_rrc(t, beta) - peak) < 1e-4


@pytest.mark.parametrize("beta", [0.1, 0.25, 0.5, 0.9])
def test_rrc_continuous_at_quarter_point(beta):
    ts = 1.0 / (4.0 * beta)
    edge = eval_rrc(ts, beta)
    for dt in (1e-7, -1e-7):
        assert abs(eval_rrc(ts + dt, beta) - edge) < 1e-4


# -- Group 3: tap grids --------------------------------------------------------

def test_discretize_rrc_grid_shape_and_energy():
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.22, signaling_ratio=1.0,
                     span_symbols=9, oversampling=4)
    ft = discretize(spec)
    assert ft.taps.shape == (36,)
    assert ft.center == 18
    assert ft.times[ft.center] == 0.0
    assert int(np.argmax(ft.taps)) == ft.center
    assert abs(ft.energy - 1.0) < 1e-12


def test_discretize_gaussian_positive_and_symmetric():
    spec = PulseSpec(GAUSSIAN, 0.3, span_symbols=9, oversampling=2)
    ft = discretize(spec)
    assert ft.taps.shape == (18,)
    assert np.all(ft.taps > 0.0)
    c = ft.center
    k = np.arange(1, min(c, ft.taps.size - 1 - c) + 1)
    assert np.max(np.abs(ft.taps[c - k] - ft.taps[c + k])) < 1e-9


def test_discretize_symmetry_odd_oversampling():
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.5, span_symbols=9, oversampling=3)
    ft = discretize(spec)
    c = ft.center
    k = np.arange(1, min(c, ft.taps.size - 1 - c) + 1)
    assert np.max(np.abs(ft.taps[c - k] - ft.taps[c + k])) < 1e-9


def test_discretize_tap_values_sit_on_the_grid():
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.3, signaling_ratio=1.5,
                     span_symbols=5, oversampling=2)
    ft = discretize(spec)
    raw = eval_rrc(ft.times, 0.3, tx=1.5)
    assert np.allclose(ft.taps, raw / np.sqrt(np.dot(raw, raw)), rtol=0, atol=1e-15)


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec("triangle", 0.3)
    with pytest.raises(ValueError):
        PulseSpec(ROOT_RAISED_COSINE, 0.3, span_symbols=8)   # even window
    with pytest.raises(ValueError):
        PulseSpec(ROOT_RAISED_COSINE, 0.3, span_symbols=-3)
    with pytest.raises(ValueError):
        PulseSpec(ROOT_RAISED_COSINE, 0.3, oversampling=0)
    with pytest.raises(ValueError):
        PulseSpec(ROOT_RAISED_COSINE, 0.3, signaling_ratio=0.8)
    with pytest.raises(ValueError):
        PulseSpec(GAUSSIAN, -0.5)
    with pytest.raises(ValueError):
        PulseSpec(ROOT_RAISED_COSINE, 1.2)


@pytest.mark.parametrize("field, value", [
    ("shape", float("nan")), ("shape", float("inf")),
    ("signaling_ratio", float("nan")), ("signaling_ratio", float("inf")),
    ("span_symbols", float("nan")), ("span_symbols", float("inf")),
    ("oversampling", float("nan")), ("oversampling", float("inf"))])
def test_pulse_spec_refuses_non_finite_numbers(field, value):
    # Every comparison with NaN is false, so a guard that tests for the
    # invalid side lets NaN through; a Gaussian pulse is the family whose
    # shape has no upper bound.
    with pytest.raises(ValueError):
        PulseSpec(**{"family": GAUSSIAN, "shape": 0.5, field: value})


def test_pulse_spec_types_its_numbers():
    # Spellings of one pulse store one type per number; a boolean is no
    # number (JSON true used to pass as oversampling 1).
    spec = PulseSpec(ROOT_RAISED_COSINE, 1, signaling_ratio=2,
                     span_symbols=9.0, oversampling=4.0)
    numbers = (spec.shape, spec.signaling_ratio, spec.span_symbols,
               spec.oversampling)
    assert numbers == (1.0, 2.0, 9, 4)
    assert [type(v) for v in numbers] == [float, float, int, int]
    for field in ("shape", "signaling_ratio", "span_symbols", "oversampling"):
        with pytest.raises(ValueError, match=f"{field} must be"):
            PulseSpec(**{"family": GAUSSIAN, "shape": 0.5, field: True})


# -- Group 4: matched combination ----------------------------------------------

def test_impulse_leaves_filter_unchanged():
    g = discretize(PulseSpec(GAUSSIAN, 0.3, span_symbols=3, oversampling=2))
    d = delta_taps(3, 2)
    h = matched_combine(d, g, 3)
    assert np.array_equal(h.taps, g.taps)


def test_matched_center_tap_equals_unit_energy():
    # Self-matched pair on a fully symmetric grid: center tap is exactly the
    # taps' inner product with themselves, which is one after normalization.
    v = discretize(PulseSpec(ROOT_RAISED_COSINE, 0.22, span_symbols=9, oversampling=1))
    h = matched_combine(v, v, 9)
    assert h.taps.shape == (9,)
    assert abs(h.taps[h.center] - 1.0) < 1e-12


def test_matched_center_tap_wide_window_oversampled():
    v = discretize(PulseSpec(ROOT_RAISED_COSINE, 0.22, span_symbols=33, oversampling=4))
    h = matched_combine(v, v, 33)
    assert abs(h.taps[h.center] - 1.0) < 1e-6


def test_combined_response_nulls_at_symbol_instants():
    # The matched pair of root-raised-cosine pulses must vanish (up to
    # truncation residue) at whole-interval lags: the no-overlap condition.
    # A tap-level convolution at one tap per interval aliases the excess
    # bandwidth and cannot show this; the refined-grid path must.
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.22, span_symbols=9, oversampling=1)
    h = combined_response(spec)
    assert abs(h.taps[h.center] - 1.0) < 1e-4
    off = np.delete(h.taps, h.center)
    assert np.max(np.abs(off)) < 5e-3


def test_combined_response_oversampled_grid():
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.5, span_symbols=9, oversampling=4)
    h = combined_response(spec)
    assert h.taps.shape == (36,)
    assert h.oversampling == 4
    assert abs(h.taps[h.center] - 1.0) < 1e-4
    # Whole-interval lags are multiples of the oversampling away from center.
    sym = h.taps[h.center + 4 * np.array([-2, -1, 1, 2])]
    assert np.max(np.abs(sym)) < 5e-3
    # In-between taps carry the overlap and must not vanish.
    assert abs(h.taps[h.center + 2]) > 0.05


def test_combined_response_agrees_with_fine_grid_choice(monkeypatch):
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.3, span_symbols=9, oversampling=2)
    assert pulses.FINE_FACTOR == 16
    a = combined_response(spec)
    monkeypatch.setattr(pulses, "FINE_FACTOR", 32)
    b = combined_response(spec)
    # Slowest convergence is at the window edge where truncation bites.
    assert np.max(np.abs(a.taps - b.taps)) < 3e-4


def test_matched_combine_rejects_mismatched_grids():
    a = discretize(PulseSpec(ROOT_RAISED_COSINE, 0.22, span_symbols=9, oversampling=1))
    b = discretize(PulseSpec(ROOT_RAISED_COSINE, 0.22, span_symbols=9, oversampling=2))
    with pytest.raises(ValueError):
        matched_combine(a, b, 9)


def test_filter_taps_are_read_only():
    ft = delta_taps(3, 1)
    with pytest.raises(ValueError):
        ft.taps[0] = 1.0


# -- Group 5: spectral width -----------------------------------------------------

def test_rrc_width_near_symbol_rate():
    v = discretize(PulseSpec(ROOT_RAISED_COSINE, 0.3, span_symbols=33, oversampling=4))
    width = estimate_3db_bandwidth(v)
    assert width == pytest.approx(1.0, rel=0.05)


def test_width_scales_inversely_with_ratio():
    w = {}
    for ratio in (1.0, 2.0):
        v = discretize(PulseSpec(ROOT_RAISED_COSINE, 0.3, signaling_ratio=ratio,
                                 span_symbols=33, oversampling=4))
        w[ratio] = estimate_3db_bandwidth(v)
    assert w[2.0] / w[1.0] == pytest.approx(0.5, rel=0.05)


def test_gaussian_width_matches_shape_parameter():
    v = discretize(PulseSpec(GAUSSIAN, 0.5, span_symbols=33, oversampling=4))
    assert estimate_3db_bandwidth(v) == pytest.approx(0.5, rel=0.05)
