"""The bandwidth-normalized case for faster signaling.

Sweeps a small shape-ratio grid at high SNR, locates the optimum of the
normalized rate for each alphabet, and maps which alphabet wins where.
The point of the exercise: once rates are charged for the bandwidth
they occupy, the best operating points sit at signaling ratios above
one, where neighboring pulses deliberately overlap.

Run with ``python3 demos/ftn_tradeoff.py`` (a few seconds).
"""

import tempfile
from pathlib import Path

from signrate import SweepConfig, find_optimum, region_compare, run_sweep

# -- A desk-scale grid ---------------------------------------------------------------
#
# Full study grids go through the command line tool and its resumable CSV
# files; this demo keeps one SNR, one oversampling factor, and coarse axes
# so it finishes in a few seconds.

grid = SweepConfig(
    family="rrc",
    beta=(0.1, 0.5, 0.9),
    ratio=(1.0, 1.2, 1.4, 1.6, 1.8),
    snr_db=(25.0,),
    oversampling=(4,),
    alphabets=("4qam", "16qam"),
    estimator="mc",
    samples=200_000,
    seed=0,
)

with tempfile.TemporaryDirectory() as tmp:
    result = run_sweep(grid, Path(tmp) / "tradeoff.csv", workers=4)
print(f"swept {grid.n_cells()} cells")

# -- Where each alphabet peaks ---------------------------------------------------------
#
# ``rate_3db`` multiplies the per-use rate by the signaling ratio, crediting
# a pulse that spends less bandwidth per symbol.  Both optima land beyond
# ratio 1: pure Nyquist signaling is not the best use of a 1-bit receiver.

print()
for alphabet in ("4qam", "16qam"):
    opt = find_optimum(result, alphabet=alphabet, oversampling=4, snr_db=25.0)
    print(f"{alphabet}: best normalized rate {opt.rate_3db:.3f} at "
          f"shape {opt.beta:g}, ratio {opt.ratio:g} "
          f"({opt.rate_bpcu:.3f} bpcu per use)")

# -- The winner map ----------------------------------------------------------------------
#
# Cell by cell, the richer alphabet wins while the channel is clean enough
# to resolve it; the 4-point alphabet takes over once it saturates at 2 bits
# per use and rides the ratio credit instead.

region = region_compare(result, snr_db=25.0, oversampling=4)
print()
print("shape\\ratio " + "  ".join(f"{r:4.1f}" for r in grid.ratio))
marks = {"4qam": "   4", "16qam": "  16", "tie": "   ."}
for beta in grid.beta:
    row = [marks[r.winner] for r in region.rows if r.beta == beta]
    print(f"{beta:11.1f} " + "  ".join(row))
print("(16 = 16qam wins, 4 = 4qam wins, . = within noise)")
