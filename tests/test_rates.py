"""Mutual information and rate evaluation tests.

Groups:
 1. DMC mutual information against frozen closed-form values and
    structural properties (entropy identity, data processing,
    validation).
 2. Channel-level invariances: joint amplitude scaling is exact, rates
    grow with SNR.
 3. End-to-end rate evaluation: both estimators, error bars, the
    bandwidth-normalized rate, JSON payload.
 4. Configuration: round trips, fingerprints, stream seeds.
 5. Block entropy bound: equality without memory, nonnegative gap with
    memory, refusals.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from signrate.channel import ComponentAlphabet, component_alphabet, from_taps
from signrate.config import RunConfig
from signrate.errors import BudgetExceededError, CorrelatedNoiseError
from signrate.pulses import (
    ROOT_RAISED_COSINE,
    PulseSpec,
    combined_response,
    delta_taps,
    discretize,
)
from signrate.rates import (
    BLOCK_BUDGET,
    block_entropy_bound,
    dmc_mutual_information,
    rate_for_config,
    rate_from_table,
)
from signrate.transitions import enumerate_exact, mc_estimate

# 1 - H2(0.11), frozen from a 40-digit evaluation of the binary entropy.
BSC_011_CAPACITY = 0.5000840418354720


def _delta_channel(alphabet, snr_db, m=1, span=9):
    d = delta_taps(span, m)
    return from_taps(d, d, alphabet, snr_db)


# -- Group 1: closed forms and structure -----------------------------------------

def test_mi_zero_for_constant_rows():
    probs = np.full((4, 8), 1.0 / 8.0)
    priors = np.full(4, 0.25)
    assert dmc_mutual_information(probs, priors) == 0.0


def test_mi_of_noiseless_channel_is_input_entropy():
    probs = np.eye(4)
    priors = np.full(4, 0.25)
    assert dmc_mutual_information(probs, priors) == pytest.approx(2.0, abs=1e-15)
    skew = np.array([0.5, 0.25, 0.125, 0.125])
    expect = -np.sum(skew * np.log2(skew))
    assert dmc_mutual_information(np.eye(4), skew) == pytest.approx(
        expect, abs=1e-15)


def test_mi_binary_symmetric_channel():
    probs = np.array([[0.89, 0.11], [0.11, 0.89]])
    priors = np.array([0.5, 0.5])
    assert dmc_mutual_information(probs, priors) == pytest.approx(
        BSC_011_CAPACITY, abs=1e-15)


def test_mi_never_grows_under_output_merging():
    rng = np.random.default_rng(42)
    priors = np.full(3, 1.0 / 3.0)
    for _ in range(20):
        probs = rng.random((3, 6))
        probs /= probs.sum(axis=1, keepdims=True)
        merged = np.column_stack([probs[:, :4], probs[:, 4] + probs[:, 5]])
        assert (dmc_mutual_information(merged, priors)
                <= dmc_mutual_information(probs, priors) + 1e-12)


def _entropy(p):
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def test_mi_equals_entropy_difference():
    # I(X; Y) = H(Y) - H(Y | X), on random tables with some zero entries
    # so the p = 0 convention is exercised as well.
    rng = np.random.default_rng(7)
    for n_in, n_out in [(2, 2), (4, 16), (8, 4), (3, 7)]:
        for _ in range(5):
            probs = rng.random((n_in, n_out))
            probs[rng.random(probs.shape) < 0.3] = 0.0
            probs[:, 0] += 1e-3
            probs /= probs.sum(axis=1, keepdims=True)
            priors = rng.dirichlet(np.ones(n_in))
            h_out = _entropy(priors @ probs)
            h_out_given_in = sum(p * _entropy(row)
                                 for p, row in zip(priors, probs))
            info = dmc_mutual_information(probs, priors)
            assert abs((h_out - h_out_given_in) - info) < 1e-12


def test_mi_validates_inputs():
    priors = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        dmc_mutual_information(np.array([[0.5, 0.4], [0.5, 0.5]]), priors)
    with pytest.raises(ValueError):
        dmc_mutual_information(np.array([[1.2, -0.2], [0.5, 0.5]]), priors)
    with pytest.raises(ValueError):
        dmc_mutual_information(np.eye(2), np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        dmc_mutual_information(np.eye(3), priors)


def test_mi_refuses_nan_tables_and_priors():
    # A NaN fails every check; before, NaN entries passed the checks and
    # dropped out of the sum, so a NaN table had rate 0.
    priors = np.array([0.5, 0.5])
    for probs in (np.full((2, 2), np.nan), np.array([[1.0, 0.0], [np.nan, 1.0]])):
        with pytest.raises(ValueError, match="transition"):
            dmc_mutual_information(probs, priors)
    with pytest.raises(ValueError, match="priors"):
        dmc_mutual_information(np.eye(2), np.array([np.nan, 1.0]))


# -- Group 2: invariances ---------------------------------------------------------

def test_joint_amplitude_scaling_is_bitwise_exact():
    # Doubling every level and quadrupling the noise variance leaves the
    # sign statistics untouched; with power-of-two factors the float
    # results match bit for bit.
    ch = _delta_channel("16qam", snr_db=7.0, m=2)
    base = component_alphabet("16qam")
    scaled_alpha = ComponentAlphabet("scaled", 2.0 * base.levels, base.priors)
    scaled = dataclasses.replace(ch, alphabet=scaled_alpha,
                                 sigma2=4.0 * ch.sigma2)
    a = enumerate_exact(ch)
    b = enumerate_exact(scaled)
    assert np.array_equal(a.probs, b.probs)


def test_exact_rate_grows_with_snr():
    priors = component_alphabet("4qam").priors
    rates = []
    for snr in (0.0, 5.0, 10.0, 15.0):
        table = enumerate_exact(_delta_channel("4qam", snr))
        rates.append(dmc_mutual_information(table.probs, priors))
    diffs = np.diff(rates)
    assert np.all(diffs > 1e-6)


# -- Group 3: rate evaluation -------------------------------------------------------

def _config(**overrides):
    base = dict(family="rrc", shape=0.22, signaling_ratio=1.0,
                oversampling=1, alphabet="4qam", snr_db=10.0,
                estimator="enum", samples=1000, seed=0)
    base.update(overrides)
    return RunConfig(**base)


def test_rate_for_config_exact_path():
    res = rate_for_config(_config())
    assert res.method == "enum"
    assert res.stderr == 0.0
    assert res.samples == 0
    assert res.rate_bpcu == 2.0 * res.mutual_information
    assert res.rate_3db == res.rate_bpcu
    assert 0.0 < res.rate_bpcu < 2.0


def test_rate_for_config_mc_path_matches_exact():
    exact = rate_for_config(_config())
    mc = rate_for_config(_config(estimator="mc", samples=400000, seed=5))
    assert mc.method == "mc"
    assert mc.samples == 400000
    assert mc.stderr > 0.0
    assert abs(mc.rate_bpcu - exact.rate_bpcu) < 4.0 * mc.stderr


@pytest.fixture(scope="module")
def exact_twins():
    """1M-sample Monte Carlo and exact rates of 4qam M = 4 cells (span 9,
    correlated noise), computed once for the module."""
    twins = []
    for shape in (0.22, 0.5):
        for snr_db in (10.0, 25.0):
            cfg = RunConfig("rrc", shape, 1.2, 4, "4qam", snr_db,
                            samples=1_000_000, seed=0)
            twins.append((cfg, rate_for_config(cfg, workers=2),
                          rate_for_config(
                              dataclasses.replace(cfg, estimator="enum"))))
    return twins


def test_mc_rates_match_exact_twins_at_m4(exact_twins):
    # A saturated cell reports se = 0, hence the 1e-9 floor.
    for cfg, mc, exact in exact_twins:
        bound = max(3.0 * mc.stderr, 1e-9)
        assert abs(mc.rate_bpcu - exact.rate_bpcu) <= bound, (cfg, mc, exact)


def test_rate_3db_weights_by_signaling_ratio():
    res = rate_for_config(_config(signaling_ratio=1.25))
    assert res.rate_3db == pytest.approx(1.25 * res.rate_bpcu, rel=1e-15)


def test_rate_for_config_is_deterministic():
    cfg = _config(estimator="mc", samples=100000, seed=9)
    a = rate_for_config(cfg)
    b = rate_for_config(cfg, workers=2)
    assert a.rate_bpcu == b.rate_bpcu
    assert a.stderr == b.stderr


def test_group_stderr_tracks_spread():
    # The pooled estimate across disjoint seeds should scatter on the
    # order of the reported stderr.
    cfg = _config(estimator="mc", samples=200000)
    exact = rate_for_config(_config())
    devs, errs = [], []
    for seed in range(6):
        res = rate_for_config(dataclasses.replace(cfg, seed=seed))
        devs.append(abs(res.rate_bpcu - exact.rate_bpcu))
        errs.append(res.stderr)
    assert max(devs) < 5.0 * max(errs)
    assert max(errs) < 10.0 * min(errs)


def test_rate_result_json_payload():
    res = rate_for_config(_config())
    payload = res.to_json_dict()
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["config"]["alphabet"] == "4qam"
    assert back["fingerprint"] == res.config.fingerprint()
    assert back["rate_bpcu"] == res.rate_bpcu
    assert set(back) == {"config", "fingerprint", "method",
                         "mutual_information", "rate_3db", "rate_bpcu",
                         "samples", "stderr"}


def test_rate_from_table_rejects_nothing_extra():
    ch = _delta_channel("4qam", snr_db=6.0)
    table = mc_estimate(ch, samples=65536, seed=2)
    res = rate_from_table(table, _config(estimator="mc", samples=65536),
                          ch.alphabet.priors)
    assert res.samples == 65536
    assert res.method == "mc"


# -- Group 4: configuration -----------------------------------------------------------

def test_config_dict_roundtrip():
    cfg = _config(snr_db=12.5, samples=123)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys():
    data = _config().to_dict()
    data["bandwidth"] = 1.0
    with pytest.raises(ValueError):
        RunConfig.from_dict(data)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(estimator="exact")
    with pytest.raises(ValueError):
        _config(samples=0)
    with pytest.raises(ValueError):
        _config(seed=-1)
    with pytest.raises(ValueError):
        _config(family="nyquist")
    with pytest.raises(ValueError):
        _config(alphabet="64qam")
    with pytest.raises(ValueError):
        _config(signaling_ratio=0.5)


@pytest.mark.parametrize("field, value", [
    ("snr_db", float("nan")), ("snr_db", float("inf")),
    ("snr_db", float("-inf")),
    pytest.param("snr_db", 10 ** 400, id="snr_db-10**400"),
    ("signaling_ratio", float("nan")), ("signaling_ratio", float("inf")),
    ("shape", float("nan"))])
def test_config_refuses_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        _config(**{field: value})


@pytest.mark.parametrize("snr_db", [1e308, 3000.5, -3000.5, -4000.0])
def test_config_refuses_snr_outside_its_range(snr_db):
    # sigma2 = 10^(-snr_db / 10) underflows to 0 at 1e308 dB and
    # overflows at -4000 dB; inside +-3000 dB it and the covariance built
    # from it stay normal floats.
    with pytest.raises(ValueError, match=r"snr_db must lie in \[-3000, 3000\]"):
        _config(snr_db=snr_db)


@pytest.mark.parametrize("estimator", ["mc", "enum"])
def test_snr_at_the_ends_of_its_range_gives_a_rate(estimator):
    # Standardized means reach about 1e150 at 3000 dB and 1e-150 at -3000
    # dB; no numpy operation may overflow, divide by zero or go invalid.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for snr_db in (3000.0, -3000.0):
            result = rate_for_config(_config(snr_db=snr_db, oversampling=2,
                                             samples=1000,
                                             estimator=estimator))
            assert 0.0 <= result.rate_bpcu <= 2.0
        # Both alphabets and pulse families at M = 1 to 4, on a short
        # span.  Some exact cells at -3000 dB reach -2e-16 by round-off
        # before the mutual information is clamped at zero.
        for alphabet, family, m, snr_db in itertools.product(
                ("4qam", "16qam"), ("rrc", "gaussian"), (1, 2, 3, 4),
                (3000.0, -3000.0)):
            result = rate_for_config(_config(
                family=family, alphabet=alphabet, oversampling=m,
                span_symbols=3, snr_db=snr_db, samples=1000,
                estimator=estimator))
            top = 2.0 * np.log2(component_alphabet(alphabet).size)
            assert 0.0 <= result.rate_bpcu <= top + 1e-12, (
                alphabet, family, m, snr_db)


def test_config_canonicalizes_integral_floats():
    cfg = _config(oversampling=4.0, span_symbols=9.0, samples=1000.0,
                  seed=0.0)
    assert cfg == _config(oversampling=4)
    assert cfg.fingerprint() == _config(oversampling=4).fingerprint()
    assert type(cfg.oversampling) is int
    for name in ("oversampling", "span_symbols", "samples", "seed"):
        with pytest.raises(ValueError, match=name):
            _config(**{name: 2.5})


def test_config_canonicalizes_integer_spelled_floats():
    # One physical cell has one fingerprint and one sample stream,
    # whether its real-valued fields were typed as 1 or 1.0.
    ints = RunConfig("rrc", 1, 1, 1, "4qam", 10)
    floats = RunConfig("rrc", 1.0, 1.0, 1, "4qam", 10.0)
    assert ints.canonical_json() == floats.canonical_json()
    assert ints.fingerprint() == floats.fingerprint()
    assert ints.stream_seed() == floats.stream_seed()
    for name in ("shape", "signaling_ratio", "snr_db"):
        assert type(getattr(ints, name)) is float
        with pytest.raises(ValueError, match=name):
            _config(**{name: "1.0"})


def test_fingerprint_separates_configs():
    a = _config()
    assert a.fingerprint() == _config().fingerprint()
    assert a.fingerprint() != _config(snr_db=11.0).fingerprint()
    assert a.fingerprint() != _config(estimator="mc").fingerprint()
    assert len(a.fingerprint()) == 16


def test_stream_seed_ignores_estimator_and_budget():
    a = _config(estimator="mc", samples=1000)
    b = _config(estimator="enum", samples=999999)
    assert a.stream_seed() == b.stream_seed()
    assert a.stream_seed() != _config(seed=1).stream_seed()
    assert a.stream_seed() != _config(snr_db=9.0).stream_seed()
    assert a.stream_seed() != _config(signaling_ratio=1.1).stream_seed()


# -- Group 5: block entropy bound ---------------------------------------------------------

def test_block_bound_equality_without_memory():
    d = delta_taps(1, 1)
    ch = from_taps(d, d, "4qam", snr_db=3.0)
    report = block_entropy_bound(ch, 4)
    assert report.n_inputs == 16 and report.n_outputs == 16
    assert abs(report.gap) < 1e-9
    assert report.block_entropy > 0.0


def test_block_bound_equality_with_idle_samples():
    # A second sample per interval that carries no signal adds
    # independent noise only; the block still factorizes.
    d2 = delta_taps(3, 2)
    ch = from_taps(d2, d2, "4qam", snr_db=3.0)
    report = block_entropy_bound(ch, 3)
    assert abs(report.gap) < 1e-9


def test_block_bound_positive_gap_with_overlap():
    spec = PulseSpec(ROOT_RAISED_COSINE, 0.3, signaling_ratio=1.25,
                     span_symbols=5, oversampling=1)
    h = combined_response(spec)
    d = delta_taps(5, 1)
    ch = from_taps(d, h, "4qam", snr_db=8.0)
    report = block_entropy_bound(ch, 4)
    assert report.gap > 1e-6
    assert report.marginal_entropy_sum > report.block_entropy


def test_block_bound_refuses_correlated_noise():
    # At M = 1, R is 1 x 1, so only the receive filter shows that the
    # noise is correlated across intervals.
    for m in (1, 2):
        spec = PulseSpec(ROOT_RAISED_COSINE, 0.3, span_symbols=5,
                         oversampling=m)
        ch = from_taps(discretize(spec), combined_response(spec), "4qam",
                       snr_db=8.0)
        with pytest.raises(CorrelatedNoiseError):
            block_entropy_bound(ch, 2)


def test_block_bound_refuses_blown_budget():
    d = delta_taps(1, 1)
    ch = from_taps(d, d, "16qam", snr_db=3.0)
    with pytest.raises(BudgetExceededError) as info:
        block_entropy_bound(ch, 8)
    assert info.value.required == 4 ** 8 * 2 ** 8
    assert info.value.budget == BLOCK_BUDGET
    with pytest.raises(ValueError):
        block_entropy_bound(ch, 0)
