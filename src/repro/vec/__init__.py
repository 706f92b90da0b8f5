"""Structure-of-arrays kernels behind the simulation API.

:mod:`repro.vec.engine` vectorizes the hottest path of the reproduction
with NumPy while keeping the scalar code the source of truth: it runs
one policy family — every trip under every parameter row of one kind of
:data:`~repro.sim.engine.KERNEL_FAMILIES`, or one trip under one policy
— over ``(n_rows, n_vehicles)`` state arrays packed by
:mod:`repro.vec.batch`, mirroring the reference loop
(:meth:`repro.sim.engine.PolicySimulation._run_generic`) operation for
operation so the results are byte-identical.  Which runs it takes is
decided by their inputs (:func:`repro.sim.engine.supports_fast_path`),
never by a switch.  Queries never import this package: the query core's
pre-tests are scalar (:mod:`repro.dbms.refine`).
"""

__all__: list[str] = []
