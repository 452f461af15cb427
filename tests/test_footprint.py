"""Process footprint: what `import riglab` loads, and a trial's peak memory."""

import ctypes
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import riglab
from riglab import _alloc, model
from riglab.components import census
from riglab.experiments import run_trial, trial_stream
from riglab.model import (_pair_keys, derive_params, project_simple, project_with_excess,
                          sample_aux_lists, sample_bipartite)

# traced peak bytes of one run_trial per pair key (distinct edges + eta) at
# n = 2e5, beta = 1, by gamma: 19.4 at gamma = 2 and 15.9 at gamma = 4, where
# the edges are int32 pairs written over their sorted keys; a u, v copy beside
# the keys would add 8 bytes per edge (it read 33.8 and 32.0 with int64 u, v),
# and at gamma = 2 it read 23.4 with blocks of 2**16 and 25.3 with int64
# offsets and a dedupe mask as long as the keys
BYTES_PER_PAIR_KEY = {2.0: 21, 4.0: 16.5}

# traced peak bytes of census per vertex above its graph at n = 2e5, beta = 1,
# gamma = 2: 15.2; it read 18.7 with blocks of 2**16, and 26.0 when the sizes
# came from np.bincount(np.bincount(parent)), an intp copy of parent, n counts
# and a count as long as the giant
CENSUS_BYTES_PER_VERTEX = 17

# traced peak bytes of _pair_keys beside its keys, per BLOCK entry: one
# block's temporaries.  It read 28.5 at n = 10^6, beta = gamma = 1 (30.1 with
# blocks of 2**16), and 183 when the key count was deg @ (deg - 1) over all m
# int64 degrees
PAIR_KEY_TEMP_BYTES_PER_BLOCK_ENTRY = 32

# traced peak bytes of one run_trial per bipartite member at n = 10^5,
# beta = 1.5, gamma = 1, the sweep's largest graph: 19.2, of which the graph
# holds 12 and its pair keys 4; with blocks of 2**16 one block's temporaries
# were as large as the graph and it read 29.3
SWEEP_TRIAL_BYTES_PER_MEMBER = 22

# glibc heap growth over one run_trial at n = 10^6, beta = 1, gamma = 2, per
# byte of the same trial's traced peak: RSS holds the heap's high-water mark,
# and a temporary freed below a later, larger array leaves a hole that pushes
# it past the traced peak.  It read 1.32 with an int64 temporary of m entries
# in the sampler's heavy test, 1.15 without, and 1.08 with the sampler's
# degrees also freed before its draws.  With arrays of 2 MiB or more in
# mappings of their own (riglab/_alloc.py) the heap grows only 0.14 of the
# traced peak, far from this bound; RSS, which also counts the mappings and
# is what test_trial_rss_growth_near_traced_peak bounds, grows 1.09 of it
# over three trials (1.25 with the threshold at 4 MiB).  At n = 10^5,
# beta = 1.5, gamma = 1, where every array stays in the heap, the heap grows
# 1.03 of the traced peak.
HEAP_PER_TRACED_BYTE = 1.2

# traced peak bytes of sample_aux_lists(10**6, 1, 0.45) per member: one dense
# light segment, completed by _fill_distinct (it read 118 with a dict of ints)
BYTES_PER_REPAIRED_MEMBER = 48


def run_fresh(code: str) -> str:
    """Run `code` in a fresh interpreter that imports the same riglab as this
    process; return its stdout."""
    src = os.path.dirname(os.path.dirname(riglab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return out.strip()


def heavy_modules_after(code: str, packages=("scipy.stats", "mpmath")) -> str:
    """Run `code` in a fresh interpreter (see run_fresh); return the modules
    of `packages` (each package or anything inside it) that it left loaded."""
    code += ("\nimport sys\n"
             "print(sorted(m for m in sys.modules\n"
             f"             if any(m == p or m.startswith(p + '.') for p in {packages!r})))")
    return run_fresh(code)


def test_import_loads_no_scipy_stats_or_mpmath():
    assert heavy_modules_after("import riglab, riglab.cli") == "[]"


def test_trial_sweep_and_summary_load_no_scipy():
    # the census is numpy only; scipy.special stays with the closed forms;
    # only a sweep on more than one worker imports the process pool
    code = """
import io
import numpy as np
import riglab, riglab.cli
from riglab import experiments, model
experiments.run_trial(model.derive_params(2000, 1.0, 1.5), np.random.default_rng(0))
config = experiments.SweepConfig(grid=((1000, 0.5, 1.0), (1000, 1.5, 1.0)),
                                 replicates=2, master_seed=7)
result = experiments.run_sweep(config, workers=1, sink=io.StringIO())
assert not result.failures
experiments.summarize(result.records)
"""
    packages = ("scipy", "concurrent.futures.process", "multiprocessing")
    assert heavy_modules_after(code, packages) == "[]"


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


def trial_peak_per_pair_key(gamma: float) -> float:
    """Traced peak bytes of one run_trial at n = 2e5, beta = 1, per pair key."""
    params = derive_params(200_000, 1.0, gamma)
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
    return peak / keys


def test_trial_peak_memory_per_pair_key():
    per_key = trial_peak_per_pair_key(2.0)
    assert per_key <= BYTES_PER_PAIR_KEY[2.0], f"{per_key:.1f} B per pair key"


def test_trial_peak_memory_per_pair_key_gamma_4():
    # 8 pair keys per vertex: the keys outweigh the per-vertex arrays, so a
    # u, v copy beside the keys, even as int32, breaks the bound (22.7 B)
    per_key = trial_peak_per_pair_key(4.0)
    assert per_key <= BYTES_PER_PAIR_KEY[4.0], f"{per_key:.1f} B per pair key"


def traced_peak(f, *args) -> int:
    """Traced peak bytes of f(*args) above what was allocated before it."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_trial_peak_memory_per_member():
    # the sweep's graphs are small, so a block's temporaries, not the graph,
    # can set a trial's peak
    run_trial(derive_params(1000, 1.0, 2.0), np.random.default_rng(0))  # warm up
    params = derive_params(100_000, 1.5, 1.0)
    members = sample_bipartite(params, trial_stream(3, 0, 0)[1]).edge_count
    assert members > 2 * model.BLOCK
    per_member = traced_peak(run_trial, params, trial_stream(3, 0, 0)[1]) / members
    assert per_member <= SWEEP_TRIAL_BYTES_PER_MEMBER, f"{per_member:.1f} B per member"


def test_census_peak_memory_per_vertex():
    census(project_simple(sample_bipartite(derive_params(1000, 1.0, 2.0),
                                           np.random.default_rng(0))))  # warm up
    g = project_simple(sample_bipartite(derive_params(200_000, 1.0, 2.0),
                                        trial_stream(3, 0, 0)[1]))
    per_vertex = traced_peak(census, g) / g.n
    assert per_vertex <= CENSUS_BYTES_PER_VERTEX, f"{per_vertex:.1f} B per vertex"


def test_pair_keys_peak_memory_above_keys():
    # one pair key per two auxiliaries, so that an int64 temporary as long as
    # m (8 MB) outweighs the keys (4 MB) and the block allowance (0.5 MiB;
    # the block's temporaries read 0.45)
    b = sample_bipartite(derive_params(10 ** 6, 1.0, 1.0), np.random.default_rng(5))
    key_bytes = _pair_keys(b).nbytes  # also the warm-up
    assert key_bytes > 3_000_000
    per_entry = (traced_peak(_pair_keys, b) - key_bytes) / model.BLOCK
    assert per_entry <= PAIR_KEY_TEMP_BYTES_PER_BLOCK_ENTRY, f"{per_entry:.1f} B per block entry"


def test_dense_segment_repair_peak_memory_per_member():
    sample_aux_lists(1000, 1, 0.45, np.random.default_rng(0))  # warm up
    tracemalloc.start()
    try:
        b = sample_aux_lists(10 ** 6, 1, 0.45, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.edge_count > 400_000
    per_member = peak / b.edge_count
    assert per_member <= BYTES_PER_REPAIRED_MEMBER, f"{per_member:.1f} B per member"


MALLINFO2 = """
import ctypes

class Mallinfo2(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in ("arena", "ordblks", "smblks", "hblks",
                "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
mallinfo2.argtypes = []
"""

needs_mallinfo2 = pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallinfo2"),
                                     reason="needs glibc >= 2.33")


@needs_mallinfo2
def test_import_pins_malloc_thresholds():
    # in a fresh interpreter, glibc's sliding mmap threshold is still 128 KiB;
    # after import riglab an array under MMAP_THRESHOLD comes from the heap,
    # a larger one from its own mapping (mallinfo2's hblkhd counts mappings)
    code = MALLINFO2 + f"""
import numpy as np
import riglab

before = mallinfo2().hblkhd
small = np.ones({_alloc.MMAP_THRESHOLD // 2}, dtype=np.uint8)
mid = mallinfo2().hblkhd
large = np.ones({_alloc.MMAP_THRESHOLD + (8 << 20)}, dtype=np.uint8)
print(mid - before, mallinfo2().hblkhd - mid >= large.nbytes)
"""
    assert run_fresh(code) == "0 True"


@needs_mallinfo2
def test_trial_heap_high_water_near_traced_peak():
    # in a fresh interpreter, so that no earlier test's freed arrays are in
    # the heap; the arena (sbrk'd heap) only grows here, as nothing is near
    # the 64 MiB trim threshold, so its growth is the trial's high-water mark
    code = MALLINFO2 + """
import tracemalloc
import riglab
from riglab.experiments import run_trial, trial_stream
from riglab.model import derive_params

run_trial(derive_params(1000, 1.0, 2.0), trial_stream(3, 1, 0)[1])  # warm up
params = derive_params(10 ** 6, 1.0, 2.0)
before = mallinfo2().arena
run_trial(params, trial_stream(3, 0, 0)[1])
growth = mallinfo2().arena - before
tracemalloc.start()
run_trial(params, trial_stream(3, 0, 0)[1])
print(growth / tracemalloc.get_traced_memory()[1])
"""
    ratio = float(run_fresh(code))
    assert ratio <= HEAP_PER_TRACED_BYTE, f"heap grew {ratio:.3f} x the traced peak"


@needs_mallinfo2
def test_sweep_trial_heap_high_water_near_traced_peak():
    # the same at the sweep's largest graph, n = 10^5, beta = 1.5, gamma = 1,
    # where every array is under MMAP_THRESHOLD and so stays in the heap: a
    # freed array below a later, larger one shows here as arena growth
    code = MALLINFO2 + """
import tracemalloc
import riglab
from riglab.experiments import run_trial, trial_stream
from riglab.model import derive_params

run_trial(derive_params(1000, 1.0, 2.0), trial_stream(3, 1, 0)[1])  # warm up
params = derive_params(10 ** 5, 1.5, 1.0)
before = mallinfo2().arena
run_trial(params, trial_stream(3, 0, 0)[1])
growth = mallinfo2().arena - before
tracemalloc.start()
run_trial(params, trial_stream(3, 0, 0)[1])
print(growth / tracemalloc.get_traced_memory()[1])
"""
    ratio = float(run_fresh(code))
    assert ratio <= HEAP_PER_TRACED_BYTE, f"heap grew {ratio:.3f} x the traced peak"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_trial_rss_growth_near_traced_peak():
    # RSS is what the benchmark reads: over a few trials in a fresh
    # interpreter it grows by about one trial's traced peak, whether an array
    # sits in the heap or in a mapping of its own.  VmHWM, not ru_maxrss:
    # after exec, Linux starts ru_maxrss at the peak of the process that
    # spawned the interpreter, here the test runner, which hides the growth
    code = """
import tracemalloc
import riglab
from riglab.experiments import run_trial, trial_stream
from riglab.model import derive_params

def high_water():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status
                    if line.startswith("VmHWM:"))

run_trial(derive_params(1000, 1.0, 2.0), trial_stream(3, 1, 0)[1])  # warm up
params = derive_params(10 ** 6, 1.0, 2.0)
before = high_water()
for i in range(3):
    run_trial(params, trial_stream(3, i, 0)[1])
growth = high_water() - before
tracemalloc.start()
run_trial(params, trial_stream(3, 0, 0)[1])
print(growth / tracemalloc.get_traced_memory()[1])
"""
    ratio = float(run_fresh(code))
    assert ratio <= HEAP_PER_TRACED_BYTE, f"RSS grew {ratio:.3f} x the traced peak"
