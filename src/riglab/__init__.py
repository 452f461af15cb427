"""riglab: simulation and numerical verification lab for random intersection
graphs with tunable clustering (alpha = 1 regime)."""

from ._alloc import pin_malloc_thresholds

pin_malloc_thresholds()

__version__ = "0.1.0"
