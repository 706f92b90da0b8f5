"""Structure-of-arrays kernels behind the scalar simulation/query APIs.

This package vectorizes the two hottest paths of the reproduction with
NumPy while keeping the scalar code the source of truth:

* :mod:`repro.vec.engine` runs one policy family of a sweep — every
  trip under every update cost of dl, ail or cil — through a lock-step
  tick loop over ``(n_costs, n_vehicles)`` state arrays, mirroring
  :meth:`repro.sim.engine.PolicySimulation._run_fast` operation for
  operation so the results are byte-identical.
* :mod:`repro.vec.geom` batches the bbox min/max-distance pre-tests of
  the query core.

Vectorization can be disabled globally with ``REPRO_VECTORIZE=0`` —
every dispatcher consults :func:`vectorization_default` when its
``vectorize`` argument is left at ``None``.
"""

from __future__ import annotations

import os


def vectorization_default() -> bool:
    """The process-wide default for ``vectorize=None`` dispatchers.

    ``REPRO_VECTORIZE=0`` forces every array-dispatching call site back
    onto the scalar path; any other value (or no value) leaves the
    vectorized kernels enabled.
    """
    return os.environ.get("REPRO_VECTORIZE", "1") != "0"


__all__ = [
    "vectorization_default",
]
