"""Polarization self-rotation and vacuum-noise simulator for driven 4-level vapours.

The package computes, for a linearly polarized beam traversing a driven
4-level atomic ensemble:

* classical transmission and self-rotation spectra, with Doppler and
  hyperfine-line averaging (:mod:`psrsim.ensemble`),
* the phenomenological cross-phase rotation/squeezing model
  (:mod:`psrsim.matsko`),
* semi-classical steady states and the depleted drive's intensity
  profile in closed form (:mod:`psrsim.bloch`),
* quadrature noise spectra of the orthogonally polarized vacuum mode,
  with atomic Langevin sources (:mod:`psrsim.fluct`).

All frequencies are expressed in units of the optical coherence decay
rate gamma (gamma = 1 internally); the quantum noise limit is
normalized to 1 (0 dB).
"""

__version__ = "0.1.0"

import os

# psrsim's matrices are small (2x2 sideband stacks, fit Jacobians of a
# few columns).  OpenBLAS would still run them on a pool of one thread
# per core, whose workers busy-wait after every call (the fit's SVD and
# Jacobian products go through OpenBLAS): twice the CPU time for no
# speed-up, and run times that follow the load of other processes.
# This only takes effect for BLAS libraries loaded after psrsim is
# imported; a value already in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    DataError,
    DriveParams,
    EnsembleParams,
    NumericalError,
    ValidationError,
)

__all__ = [
    "DataError",
    "DriveParams",
    "EnsembleParams",
    "NumericalError",
    "ValidationError",
    "__version__",
]
