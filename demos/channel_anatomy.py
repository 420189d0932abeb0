"""Anatomy of the discrete observation model.

Assembles the sign-quantized receiver for a small configuration and
walks through the pieces: the symbol window, the linear map from
symbols to the M samples of one interval, and the noise correlation
that matched filtering leaves behind.

Run with ``python3 demos/channel_anatomy.py``.
"""

import numpy as np

from signrate import PulseSpec, assemble

# -- Assembly -------------------------------------------------------------------
#
# The model answers one question: given the window of symbols that overlap
# one interval, what is the distribution of the M quantized samples taken
# there?  ``assemble`` builds the model from the pulse description.

spec = PulseSpec("rrc", 0.5, 1.25, span_symbols=5, oversampling=2)
ch = assemble(spec, "4qam", snr_db=10.0)

print(f"symbol memory L = {ch.memory} (window of {ch.memory + 1} symbols)")
print(f"samples per interval M = {ch.oversampling}")
print(f"symbol operator A {ch.A.shape}, noise covariance R {ch.R.shape}")

# -- The per-interval operator ---------------------------------------------------
#
# In z = H U x + G n, U places the symbols on the sample grid and H reads
# the combined response at the M sampling phases.  A = H U collapses that
# to one small matrix: column j holds the contribution of window symbol j
# to the M samples.  The center column dominates; its neighbors are the
# interference the receiver must live with.

print()
with np.printoptions(precision=3, suppress=True):
    print("A = H U, one column per window symbol:")
    print(ch.A)

# -- Noise correlation ------------------------------------------------------------
#
# The receive filter colors the noise, so the M samples of an interval are
# not independent.  R collects their covariance; the unit diagonal times
# sigma2 restates the per-sample SNR convention.

print()
with np.printoptions(precision=3, suppress=True):
    print(f"noise covariance R (sigma2 = {ch.sigma2:g}):")
    print(ch.R)

# -- One noiseless shot ------------------------------------------------------------
#
# Push the all-ones symbol window through the linear stage and quantize.
# Only signs survive; everything the rate machinery works with is the
# distribution of such sign patterns.

x = np.full(ch.memory + 1, ch.alphabet.levels[-1])
z = ch.A @ x
print()
print("noiseless samples for the all-ones window:", np.round(z, 4))
print("their quantized signs:", np.where(z >= 0.0, 1, -1))
