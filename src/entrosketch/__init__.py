"""Streaming Shannon entropy estimation from skewed-stable data sketches.

The API lives in the submodules (``entrosketch.sketch``,
``entrosketch.estimator``, ...); the package root imports none of them,
so a CLI process loads only what its subcommand runs.
"""

BACKEND = "python"  # labels benchmark records

__version__ = "0.1.0"
