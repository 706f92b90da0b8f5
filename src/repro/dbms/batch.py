"""Batched query processing — many queries through the one query core.

A database answers a query by putting it to its
:class:`~repro.dbms.refine.QueryCore`: candidates from the index, then
refinement of each candidate's cached uncertainty interval to may/must.
A single query (``database.range_query(...)``) is a batch of one.  A
serving workload ("the free cabs near each of these 1 000 passengers,
now") puts many at once, and :class:`BatchQueryEngine` is the caller
that does: the same core, the same cache, and on top of them what only
a batch can have —

* **R-tree multi-search** — all query windows are answered by a single
  shared tree traversal (:meth:`repro.index.rtree.RTree.search_many`
  via :meth:`repro.index.timespace.TimeSpaceIndex.candidates_at_many`),
  where a single query keeps the plain ``search``,
* **hoisted filter sets** — the stationary-object id set and each
  distinct ``(where, class_name)`` eligibility set are computed once
  per batch instead of once per query,
* batch-level telemetry: ``dbms_batch_*`` metrics, a batch id and slot
  on every recorded query, and one ``cache`` trace event per run.

Because both paths are one procedure over one cache, an answer does not
depend on how its query was put.  What holds the procedure to the paper
is an independent, cache-free reference (``tests/oracle/
query_reference.py``), which ``tests/dbms/test_batch.py``, the stateful
differential test and ``benchmarks/bench_query_batch.py`` compare
against byte for byte.
"""

from __future__ import annotations

from repro.dbms.database import MovingObjectDatabase
from repro.dbms.refine import (
    Answer as BatchAnswer,
    PositionQuery,
    ProximityQuery,
    Query as BatchQuery,
    RangeQuery,
    WithinDistanceQuery,
)
from repro.errors import QueryError
from repro.index.rtree import SearchStats
from repro.obs.probe import probe
from repro.trace.events import CACHE


class BatchQueryEngine:
    """Amortised query processing over a :class:`MovingObjectDatabase`.

    The engine owns no data and no cache: derived values live in the
    database's query core, shared with the database's single queries
    and with every other engine over it, and are dropped there when a
    record changes or the clock passes their time.  ``cache_hits`` /
    ``cache_misses`` count this engine's own lookups.

    ``max_cache_entries`` bounds the shared cache whenever this engine
    adds to it; on overflow the cache is cleared wholesale (correct,
    merely cold).
    """

    def __init__(self, database: MovingObjectDatabase,
                 max_cache_entries: int = 1 << 18) -> None:
        if max_cache_entries < 1:
            raise QueryError(
                f"max_cache_entries must be positive, got {max_cache_entries}"
            )
        self._db = database
        self._max_cache_entries = max_cache_entries
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def database(self) -> MovingObjectDatabase:
        return self._db

    def cache_size(self) -> int:
        """Entries currently held by the database's derived-value cache."""
        return self._db._core.size()

    def hit_rate(self) -> float:
        """Lifetime uncertainty-cache hit rate (0.0 when never used)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def run(self, queries: list[BatchQuery],
            stats: SearchStats | None = None) -> list[BatchAnswer]:
        """Answer ``queries`` in order, with work amortised across them.

        Validation (query-time monotonicity, horizon coverage, NaN and
        radius sign, known object ids) runs up front in query order and
        raises the same :class:`QueryError` the query would raise put
        singly, at the first offending query; no answers are produced
        on error.  ``stats`` aggregates index work over the whole batch.
        """
        p = probe()
        if not p.enabled:
            return self._answer(queries, stats)
        hits, misses = self.cache_hits, self.cache_misses
        try:
            with p.timed("dbms_batch_seconds"):
                answers = self._answer(queries, stats)
        finally:
            # A batch that raised still counts: an error rate is taken
            # over every query put, not only those answered.
            kinds = [query.kind for query in queries]
            for kind in ("position", "range", "within", "proximity"):
                if kind in kinds:
                    p.count("dbms_batch_queries_total", kinds.count(kind),
                            kind=kind)
        hits, misses = self.cache_hits - hits, self.cache_misses - misses
        p.count("dbms_batch_cache_hits_total", hits)
        p.count("dbms_batch_cache_misses_total", misses)
        p.gauge("dbms_batch_cache_hit_rate", self.hit_rate())
        if queries:
            p.queries(queries, answers, batch=True)
            p.event(CACHE, hits=hits, misses=misses)
        return answers

    def _answer(self, queries: list[BatchQuery],
                stats: SearchStats | None) -> list[BatchAnswer]:
        """Validate, then refine the database index's candidates."""
        core = self._db._core
        core.validate(queries)
        hits, misses = core.hits, core.misses
        answers = core.answer(self._db._index, queries, stats,
                              limit=self._max_cache_entries)
        self.cache_hits += core.hits - hits
        self.cache_misses += core.misses - misses
        return answers


__all__ = [
    "BatchAnswer",
    "BatchQuery",
    "BatchQueryEngine",
    "PositionQuery",
    "ProximityQuery",
    "RangeQuery",
    "WithinDistanceQuery",
]
