"""Structure-of-arrays kernels behind the simulation and query APIs.

This package vectorizes the two hottest paths of the reproduction with
NumPy while keeping the scalar code the source of truth:

* :mod:`repro.vec.engine` runs one policy family — every trip under
  every parameter row of one kind of :data:`~repro.sim.engine.KERNEL_FAMILIES`,
  or one trip under one policy — over ``(n_rows, n_vehicles)`` state
  arrays, mirroring the reference
  loop (:meth:`repro.sim.engine.PolicySimulation._run_generic`)
  operation for operation so the results are byte-identical.  Which
  runs it takes is decided by their inputs
  (:func:`repro.sim.engine.supports_fast_path`), never by a switch.
* :mod:`repro.vec.geom` batches the bbox min/max-distance pre-tests of
  the query core, which takes them whenever a query has at least
  ``repro.dbms.refine._MIN_VEC_CANDIDATES`` candidates — again by
  input, never by a switch.
"""

__all__: list[str] = []
