"""riglab: simulation and numerical verification lab for random intersection
graphs with tunable clustering (alpha = 1 regime)."""

from ._alloc import pin_malloc_thresholds

pin_malloc_thresholds()

from .components import ComponentCensus, ExplorationTrace, census, explore, small_fraction
from .degree import (CompoundPoissonSpec, DegreePmf, cpoisson_gf, cpoisson_pmf,
                     cpoisson_sample, rig_degree_sample, rig_gf, rig_moments,
                     rig_pmf, rimg_pmf, tv_distance)
from .experiments import (ExperimentRecord, SweepConfig, run_sweep, run_trial,
                          summarize, trial_stream)
from .model import (BipartiteGraph, ModelParams, SimpleGraph, derive_params,
                    project_simple, sample_bipartite)
from .theory import (CompoundPoissonOffspring, FixedPointResult,
                     RigDegreeOffspring, TailBound, branching_total,
                     chernoff_lower, chernoff_upper, extinction_mc,
                     solve_extinction)

__version__ = "0.1.0"
