"""One rate point, two independent routes.

Evaluates a single configuration with the Monte Carlo estimator and the
exact enumerator, checks that they agree within the reported error bar,
does the same at four samples per interval, shows what a refusal looks
like, and closes with the block-entropy check behind the per-symbol rate
bound.

Run with ``python3 demos/rate_point.py``.
"""

from signrate import (
    CorrelatedNoiseError,
    PulseSpec,
    RunConfig,
    block_entropy_bound,
    delta_taps,
    discretize,
    from_taps,
    matched_combine,
    rate_for_config,
)

# -- The same point, sampled and enumerated ---------------------------------------
#
# The Monte Carlo route sees only simulated sign patterns; the enumerator
# integrates the exact orthant probabilities.  They share no code beyond
# the model itself, which is what makes the comparison meaningful.

base = dict(family="rrc", shape=0.5, signaling_ratio=1.25, oversampling=2,
            alphabet="4qam", snr_db=10.0, span_symbols=5)

mc = rate_for_config(RunConfig(**base, estimator="mc", samples=500_000))
exact = rate_for_config(RunConfig(**base, estimator="enum"))

print(f"monte carlo: {mc.rate_bpcu:.5f} bpcu +- {mc.stderr:.5f}")
print(f"enumerated:  {exact.rate_bpcu:.5f} bpcu (exact)")
print(f"difference:  {abs(mc.rate_bpcu - exact.rate_bpcu) / mc.stderr:.2f} "
      "standard errors")

# -- Four samples per interval, still exact -----------------------------------------
#
# At M = 4 the matched filter correlates the noise of all four samples.
# The enumerator integrates Plackett's identity over one smooth variable,
# checked against a second node rule, so this point is exact too.

m4 = {**base, "oversampling": 4, "span_symbols": 9}
mc4 = rate_for_config(RunConfig(**m4, estimator="mc", samples=1_000_000))
exact4 = rate_for_config(RunConfig(**m4, estimator="enum"))

print()
print(f"M = 4 monte carlo: {mc4.rate_bpcu:.5f} bpcu +- {mc4.stderr:.5f}")
print(f"M = 4 enumerated:  {exact4.rate_bpcu:.5f} bpcu (exact)")

# -- Refusals instead of silent degradation ----------------------------------------
#
# Correlated noise is integrated exactly up to four samples per interval;
# beyond that the library refuses loudly rather than approximating.

print()
try:
    rate_for_config(RunConfig(**{**base, "oversampling": 5},
                              estimator="enum"))
except CorrelatedNoiseError as err:
    print(f"enum at M = 5 refuses: {err}")

# -- Why the per-symbol table is a lower bound --------------------------------------
#
# The rate machinery conditions on one symbol at a time, which discards
# information carried jointly across intervals.  On a short block with
# independent noise the loss is measurable: the summed per-interval
# conditional entropies exceed the true block conditional entropy.

spec = PulseSpec("rrc", 0.5, 1.25, span_symbols=5, oversampling=2)
v = discretize(spec)
g = delta_taps(5, 2)
ch = from_taps(g, matched_combine(v, g, 5), "4qam", snr_db=10.0)
report = block_entropy_bound(ch, n_intervals=3)

print()
print(f"block of {report.n_intervals}: H(block) = {report.block_entropy:.4f}, "
      f"sum of per-interval H = {report.marginal_entropy_sum:.4f}")
print(f"slack given away by per-symbol conditioning: {report.gap:.4f} bits")
