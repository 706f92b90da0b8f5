"""Structure-of-arrays kernels behind the simulation and query APIs.

This package vectorizes the two hottest paths of the reproduction with
NumPy while keeping the scalar code the source of truth:

* :mod:`repro.vec.engine` runs one policy family — every trip under
  every update cost of dl, ail or cil, or one trip under one policy —
  over ``(n_costs, n_vehicles)`` state arrays, mirroring the reference
  loop (:meth:`repro.sim.engine.PolicySimulation._run_generic`)
  operation for operation so the results are byte-identical.  Which
  runs it takes is decided by their inputs
  (:func:`repro.sim.engine.supports_fast_path`), never by a switch.
* :mod:`repro.vec.geom` batches the bbox min/max-distance pre-tests of
  the query core, which picks them by candidate count; that choice
  alone can be forced scalar, with ``REPRO_VECTORIZE=0`` or
  ``BatchQueryEngine(vectorize=False)``
  (:func:`vectorization_default`).
"""

from __future__ import annotations

import os


def vectorization_default() -> bool:
    """The process-wide default of the query core's ``vectorize=None``.

    ``REPRO_VECTORIZE=0`` forces the query pre-tests onto the scalar
    classifier; any other value (or no value) leaves the batched
    pre-tests enabled.
    """
    return os.environ.get("REPRO_VECTORIZE", "1") != "0"


__all__ = [
    "vectorization_default",
]
