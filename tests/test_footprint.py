"""Process footprint: what `import riglab` loads, and a trial's peak memory."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np

import riglab
from riglab.experiments import run_trial, trial_stream
from riglab.model import derive_params, project_with_excess, sample_bipartite

# traced peak bytes of one run_trial per pair key (distinct edges + eta);
# 46 at n = 2e5, beta = 1, gamma = 2, where temporaries with one entry per
# key are freed as soon as they are used
BYTES_PER_PAIR_KEY = 58


def heavy_modules_after(code: str) -> str:
    """Run `code` in a fresh interpreter that imports the same riglab as this
    process; return which of scipy.stats and mpmath it left loaded."""
    code += ("\nimport sys\n"
             "print(sorted(m for m in ('scipy.stats', 'mpmath') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(riglab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return out.strip()


def test_import_loads_no_scipy_stats_or_mpmath():
    assert heavy_modules_after("import riglab, riglab.cli") == "[]"


def test_closed_forms_load_no_scipy_stats_or_mpmath():
    code = """
from riglab import degree, theory
degree.rig_pmf(200, 200, 0.01)
degree.rig_gf(200, 200, 0.01, 0.5)
degree.rimg_pmf(5, 10, 0.2)
degree.cpoisson_pmf(degree.CompoundPoissonSpec(1.0, 2.0), 60)
theory.chernoff_upper(200, 200, 0.01, 2.0, 20, 0.5)
theory.chernoff_lower(200, 200, 0.01, 2.0, 20, 0.5)
theory.solve_extinction(2.0, 1.0)
"""
    assert heavy_modules_after(code) == "[]"


def test_trial_peak_memory_per_pair_key():
    params = derive_params(200_000, 1.0, 2.0)
    run_trial(derive_params(1000, 1.0, 2.0), np.random.default_rng(0))  # warm up
    tracemalloc.start()
    try:
        run_trial(params, trial_stream(3, 0, 0)[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    g, eta = project_with_excess(sample_bipartite(params, trial_stream(3, 0, 0)[1]))
    keys = g.edge_count + eta
    assert keys > 300_000
    assert peak <= BYTES_PER_PAIR_KEY * keys, f"{peak / keys:.1f} B per pair key"
