"""The whole-program rules of ``repro lint``.

The engine (:mod:`repro.lint.engine`) parses each file once, groups
the modules into programs (a package root, or a lone file), and runs
these over each program's call graph:

* :mod:`repro.lint.flow.graph` — name resolution and the
  module/function/call graph (imports, re-exports, ``self.``-method
  edges),
* :mod:`repro.lint.flow.taint` — the determinism rules
  ``RPR101``–``RPR103`` at every call depth: depth 0 where the hazard
  is, depth ≥ 1 at the first hop of the chain that carries it into a
  deterministic function.
"""

__all__: list[str] = []
