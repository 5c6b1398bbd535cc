"""rdgauge: encoder benchmark planning and rate-distortion analytics.

Plans encode matrices against external encoder binaries, stores
measured bitrate/quality/time records, and computes BD-Rate analytics,
aggregate curves, scenario-gated preset recommendations and migration
grids.

The Python API is the submodules (``from rdgauge import bd, store``);
the package root exports only ``__version__``.
"""

__version__ = "0.1.0"
