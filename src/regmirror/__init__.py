"""Mirror-descent training with explicit regularization.

Implements stochastic mirror descent over pluggable potential
geometries, the constraint-augmented variant that minimizes a
regularized cost (with per-sample auxiliary variables), exact oracles
for the linear-model convergence targets, and a seeded experiment
harness for label-corruption robustness sweeps.
"""

# The mirror steps have a single numpy implementation; the name stays
# because benchmark environment records read it.
kernel_backend = "python"

__version__ = "0.1.0"
__all__ = ["kernel_backend", "__version__"]
