"""Every public name resolves: ``signrate.__all__`` and the ``__all__`` of
each ``signrate`` module list only attributes that exist, each name once,
so a deleted function cannot linger in an export list.  The package's
``__all__`` is stated nowhere but in its modules: it joins their lists,
and each exported name is the module's own object.

The import set is pinned too: no run loads scipy, and importing the
package and the command line, and Monte Carlo rates and sweeps, load no
``numpy.polynomial``; the exact kernel builds its quadrature rules with
it the first time it integrates."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import signrate

# Every module but the command line front end exports to the package.
SURFACE_MODULES = ["channel", "config", "errors", "pulses", "rates",
                   "sweeps", "transitions"]


def test_all_names_resolve_once():
    modules = {info.name: importlib.import_module(f"signrate.{info.name}")
               for info in pkgutil.iter_modules(signrate.__path__)}
    listing = sorted(name for name, module in modules.items()
                     if hasattr(module, "__all__"))
    assert listing == SURFACE_MODULES
    for module in [signrate, *modules.values()]:
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert missing == [], module.__name__

    assert signrate.__all__ == [name for module in SURFACE_MODULES
                                for name in modules[module].__all__]
    for module in SURFACE_MODULES:
        for name in modules[module].__all__:
            assert getattr(signrate, name) is getattr(modules[module], name)


# Run in a fresh interpreter: prints, after each step, the scipy and the
# numpy.polynomial modules loaded so far, as one JSON object.
_IMPORT_SET_SCRIPT = """
import json, sys, tempfile
from pathlib import Path

def loaded():
    return {name: sorted(m for m in sys.modules
                         if (m + ".").startswith(name + "."))
            for name in ("scipy", "numpy.polynomial")}

seen = {}
import numpy
seen["numpy"] = loaded()
import signrate
import signrate.cli
seen["import"] = loaded()
from signrate import (RunConfig, SweepConfig, block_entropy_bound,
                      rate_for_config, run_sweep)
from signrate.channel import from_taps
from signrate.pulses import delta_taps
cell = dict(family="rrc", shape=0.5, signaling_ratio=1.25, oversampling=2,
            alphabet="4qam", snr_db=10.0, samples=2000)
rate_for_config(RunConfig(**cell, estimator="mc"), workers=2)
seen["mc_rate"] = loaded()
grid = SweepConfig(family="rrc", beta=(0.5,), ratio=(1.0, 1.25),
                   snr_db=(10.0,), oversampling=(2,), alphabets=("4qam",),
                   estimator="mc", samples=2000)
with tempfile.TemporaryDirectory() as tmp:
    run_sweep(grid, Path(tmp) / "grid.csv")
seen["mc_sweep"] = loaded()
rate_for_config(RunConfig(**cell, estimator="enum"))
seen["enum_rate"] = loaded()
rate_for_config(RunConfig(**{**cell, "oversampling": 4}, span_symbols=3,
                          estimator="enum"))
seen["enum_rate_integrating"] = loaded()
taps = delta_taps(3, 2)
block_entropy_bound(from_taps(taps, taps, "4qam", snr_db=3.0), 2)
seen["block_bound"] = loaded()
print(json.dumps(seen))
"""


def test_runs_load_no_scipy_and_monte_carlo_no_numpy_polynomial():
    # Exact rates, integrating (correlated M = 4) or not, and the block
    # bound run on numpy alone; the quadrature rules are built on first
    # use, so importing the package and Monte Carlo runs load no
    # numpy.polynomial beyond what numpy itself loads.
    src = str(Path(signrate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SET_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    seen = json.loads(proc.stdout)
    assert list(seen) == ["numpy", "import", "mc_rate", "mc_sweep",
                          "enum_rate", "enum_rate_integrating",
                          "block_bound"]
    for step, modules in seen.items():
        assert modules["scipy"] == [], step
    for step in ("import", "mc_rate", "mc_sweep"):
        assert seen[step]["numpy.polynomial"] == (
            seen["numpy"]["numpy.polynomial"]), step
