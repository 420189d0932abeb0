"""End-to-end acceptance checks.

Nine checks cover the library's headline behaviors: exact oracles for
interference-free operation, agreement between the two transition-table
routes, saturation of the sign channel, the rate gains from oversampling
combined with deliberate interference, optimum and region structure on
the bandwidth-normalized grid, the block entropy bound, and the
structural invariants.  Each check prints a single PASS or FAIL line
with the measured numbers (run ``pytest -s`` to see them on success)
before asserting.
"""

import dataclasses

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import entropy

from signrate.channel import assemble, flip_index, from_taps
from signrate.config import RunConfig
from signrate.pulses import PulseSpec, delta_taps, discretize, matched_combine
from signrate.rates import block_entropy_bound, dmc_mutual_information, rate_for_config
from signrate.sweeps import SweepConfig, find_optimum, region_compare, run_sweep
from signrate.transitions import enumerate_exact, mc_estimate

MC_SAMPLES = 1_000_000


def _report(ok: bool, label: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


def _binary_channel(shape, ratio, span, m, snr_db):
    """Binary-input model with an impulse receive filter (independent noise)."""
    spec = PulseSpec("rrc", shape, ratio, span_symbols=span, oversampling=m)
    v = discretize(spec)
    g = delta_taps(span, m)
    return from_taps(g, matched_combine(v, g, span), "4qam", snr_db)


@pytest.fixture(scope="module")
def sweep25(tmp_path_factory):
    """Full shape-ratio grid at 25 dB, four samples per interval, both alphabets."""
    grid = SweepConfig(
        family="rrc",
        beta=tuple(round(i / 10, 12) for i in range(11)),
        ratio=tuple(round(1 + i / 10, 12) for i in range(11)),
        snr_db=(25.0,),
        oversampling=(4,),
        alphabets=("4qam", "16qam"),
        estimator="mc",
        samples=MC_SAMPLES,
        seed=0,
    )
    out = tmp_path_factory.mktemp("acceptance") / "grid25.csv"
    return run_sweep(grid, out, workers=4)


def test_1_isi_free_closed_form():
    """Interference-free points match the two-level sign-channel formula."""
    worst = 0.0
    lines = []
    for shape in (0.22, 0.5):
        for snr_db in (0.0, 10.0, 20.0):
            cfg = RunConfig("rrc", shape, 1.0, 1, "4qam", snr_db,
                            samples=MC_SAMPLES, seed=1)
            res = rate_for_config(cfg, workers=2)
            ch = assemble(PulseSpec("rrc", shape, 1.0), "4qam", snr_db)
            mu = ch.alphabet.levels[-1] * ch.A[0, ch.memory // 2]
            sigma = float(np.sqrt(ch.R_component[0, 0]))
            p = float(ndtr(-mu / sigma))
            closed = 2.0 * (1.0 - entropy([p, 1.0 - p], base=2))
            dev = abs(res.rate_bpcu - closed) / max(3.0 * res.stderr, 1e-9)
            worst = max(worst, dev)
            lines.append(f"shape {shape} at {snr_db:g} dB: {dev:.2f}")
    ok = worst <= 1.0
    assert _report(ok, "[1/9] interference-free closed form",
                   "|mc-closed| / (3 se) = " + ", ".join(lines))


def test_2_mc_matches_enumeration():
    """Sampled and enumerated tables agree entry by entry and in rate."""
    ch = _binary_channel(0.3, 1.0, span=3, m=2, snr_db=8.0)
    exact = enumerate_exact(ch)
    sampled = mc_estimate(ch, MC_SAMPLES, seed=3)
    row_counts = sampled.counts.sum(axis=1, keepdims=True)
    sigma = np.sqrt(exact.probs * (1.0 - exact.probs) / row_counts)
    entry_dev = np.abs(sampled.probs - exact.probs) / (3.0 * sigma + 1e-12)
    priors = ch.alphabet.priors
    rate_exact = 2.0 * dmc_mutual_information(exact.probs, priors)
    group_rates = [2.0 * dmc_mutual_information(g, priors)
                   for g in sampled.group_probs()]
    rate_mc = 2.0 * dmc_mutual_information(sampled.probs, priors)
    se = float(np.std(group_rates, ddof=1) / np.sqrt(len(group_rates)))
    rate_dev = abs(rate_mc - rate_exact) / max(3.0 * se, 1e-9)
    ok = float(entry_dev.max()) <= 1.0 and rate_dev <= 1.0
    assert _report(ok, "[2/9] sampling matches enumeration",
                   f"max entry dev {float(entry_dev.max()):.2f}, "
                   f"rate dev {rate_dev:.2f} (units of 3 se)")


def test_3_sign_channel_saturation():
    """At 30 dB with one sample per interval both alphabets pin near 2 bpcu."""
    rates = {}
    for name in ("4qam", "16qam"):
        cfg = RunConfig("rrc", 0.22, 1.0, 1, name, 30.0, estimator="enum")
        rates[name] = rate_for_config(cfg).rate_bpcu
    ok = abs(rates["4qam"] - 2.0) <= 0.02 and rates["16qam"] <= 2.02
    assert _report(ok, "[3/9] sign-channel saturation",
                   f"4qam {rates['4qam']:.6f}, 16qam {rates['16qam']:.6f}")


def test_4_oversampling_isi_gain():
    """Four samples per interval push a 16-point alphabet past 2 bpcu."""
    cfg = RunConfig("rrc", 0.9, 1.0, 4, "16qam", 25.0,
                    samples=MC_SAMPLES, seed=0)
    res = rate_for_config(cfg, workers=2)
    margin = (res.rate_bpcu - 2.0) / max(res.stderr, 1e-12)
    ok = margin >= 3.0
    assert _report(ok, "[4/9] oversampling gain",
                   f"rate {res.rate_bpcu:.4f} bpcu, {margin:.0f} se above 2")


def test_5_full_rate_beyond_nyquist(sweep25):
    """A 4-point cell with ratio above one still reaches full rate."""
    hits = [row for row in sweep25.rows
            if row.alphabet == "4qam" and row.beta in (0.5, 0.9)
            and 1.0 < row.ratio <= 1.5 and row.rate_bpcu >= 1.98]
    best = max((row.rate_bpcu for row in hits), default=float("nan"))
    ok = bool(hits)
    assert _report(ok, "[5/9] full rate beyond ratio 1",
                   f"{len(hits)} qualifying cells, best {best:.4f} bpcu")


def test_6_optimum_prefers_faster_signaling(sweep25):
    """The bandwidth-normalized optimum sits at a ratio above one."""
    optima = {name: find_optimum(sweep25, alphabet=name, oversampling=4,
                                 snr_db=25.0)
              for name in ("4qam", "16qam")}
    ok = all(opt.ratio > 1.0 for opt in optima.values())
    assert _report(ok, "[6/9] optimum beyond ratio 1",
                   ", ".join(f"{k} ratio {v.ratio:g} (I3dB {v.rate_3db:.3f})"
                             for k, v in optima.items()))


def test_7_alphabet_regions(sweep25):
    """Each alphabet wins somewhere, the 16-point one at the slowest ratios."""
    region = region_compare(sweep25, snr_db=25.0, oversampling=4)
    ratios16 = [row.ratio for row in region.rows if row.winner == "16qam"]
    ratios4 = [row.ratio for row in region.rows if row.winner == "4qam"]
    ok = bool(ratios16) and bool(ratios4) and min(ratios16) < min(ratios4)
    assert _report(ok, "[7/9] alphabet regions",
                   f"16qam wins {len(ratios16)} cells from ratio "
                   f"{min(ratios16, default=float('nan')):g}, "
                   f"4qam wins {len(ratios4)} cells from ratio "
                   f"{min(ratios4, default=float('nan')):g}")


def test_8_block_entropy_bound():
    """Per-interval conditioning never undercounts block uncertainty."""
    ch = _binary_channel(0.3, 1.25, span=5, m=2, snr_db=10.0)
    report = block_entropy_bound(ch, 3)
    memoryless = _binary_channel(0.3, 1.0, span=1, m=2, snr_db=10.0)
    flat = block_entropy_bound(memoryless, 3)
    ok = report.gap >= -1e-9 and abs(flat.gap) <= 1e-9
    assert _report(ok, "[8/9] block entropy bound",
                   f"gap {report.gap:.3e} with interference, "
                   f"{flat.gap:.3e} memoryless")


def test_9_invariants():
    """Row sums, sign symmetry, scale invariance, determinism, unit energy."""
    checks = {}

    ch = assemble(PulseSpec("rrc", 0.3, 1.0, span_symbols=3, oversampling=2),
                  "4qam", 6.0)
    table = enumerate_exact(ch)
    checks["row sums"] = float(
        np.abs(table.probs.sum(axis=1) - 1.0).max()) <= 1e-9

    ch16 = _binary_channel(0.5, 1.0, span=3, m=2, snr_db=6.0)
    t16 = enumerate_exact(ch16)
    n = t16.probs.shape[0]
    flipped = np.array([flip_index(y, ch16.oversampling)
                        for y in range(t16.probs.shape[1])])
    checks["sign symmetry"] = all(
        np.array_equal(t16.probs[c], t16.probs[n - 1 - c][flipped])
        for c in range(n))

    alpha = ch16.alphabet
    scaled = dataclasses.replace(
        ch16,
        alphabet=dataclasses.replace(alpha, levels=2.0 * alpha.levels),
        sigma2=4.0 * ch16.sigma2)
    checks["scale invariance"] = np.array_equal(
        enumerate_exact(scaled).probs, t16.probs)

    one = mc_estimate(ch16, 200_000, seed=5, workers=1)
    three = mc_estimate(ch16, 200_000, seed=5, workers=3)
    checks["worker determinism"] = np.array_equal(one.counts, three.counts)

    specs = (PulseSpec("rrc", 0.22, 1.0, oversampling=4),
             PulseSpec("rrc", 0.9, 1.5, oversampling=2),
             PulseSpec("gaussian", 0.5, 1.0, oversampling=4))
    checks["unit energy"] = all(
        abs(discretize(s).energy - 1.0) <= 1e-12 for s in specs)

    ok = all(checks.values())
    assert _report(ok, "[9/9] invariants",
                   ", ".join(f"{k} {'ok' if v else 'BROKEN'}"
                             for k, v in checks.items()))
