"""The one instrumentation seam: a hook states a fact once, to one probe.

What an observed run publishes is the paper's own ledger — update
messages and their cost (§3.1), the onboard deviation and the DBMS-side
bound at every tick (§3.3), index work per query (§4.2) — and three
sinks want it: the metrics registry, the span tracer and the flight
recorder.  A hook does not know which of them are installed.  It reads
the process's single :class:`Probe`, tests its one precomputed
``enabled`` flag, and states each fact in one statement::

    p = probe()
    if p.enabled:
        p.count("index_boxes_inserted_total", inserted)
        p.event(INDEX_INSERT, object_id=object_id, boxes=inserted)

The probe decides who hears it (DESIGN.md §4 has the fact -> sinks
table); a metric's kind, help text and buckets come from
:mod:`repro.obs.catalogue`.  Unobserved, a hook costs one ``probe()``
read and one flag test.

The sinks are *slots* of the probe: :func:`slot` builds the ``get_*`` /
``set_*`` / ``use_*`` spellings the sink modules export, each slot's
off-value being its module's ``Null*`` sink; :func:`observe` installs
several at once.

This module imports nothing from :mod:`repro.trace`: that package binds
its recorder slot here while it is being imported.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager, nullcontext
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Iterator

from repro.errors import ObservabilityError
from repro.obs.catalogue import CATALOGUE, UNLISTED

#: The sink slots, in the order ``enabled`` consults them.
_SINKS = ("registry", "tracer", "recorder")
#: ``repro.trace.events.UPDATE``: the event kind that is also a metric.
_UPDATE = "update"
_UPDATE_COUNTER = "dbms_update_messages_total"


#: What a slot holds until its sink module binds it.
_OFF = SimpleNamespace(enabled=False)
_NULL_CONTEXT = nullcontext()


class Probe:
    """The process's sinks and the verbs a hook states facts with."""

    __slots__ = (*_SINKS, "enabled")

    def __init__(self) -> None:
        self.registry: Any = _OFF
        self.tracer: Any = _OFF
        self.recorder: Any = _OFF
        self.enabled = False

    def _install(self, name: str, sink: Any) -> Any:
        previous = getattr(self, name)
        setattr(self, name, sink)
        self.enabled = any(getattr(self, slot).enabled for slot in _SINKS)
        return previous

    # -- metrics (registry) -----------------------------------------------

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` to the counter ``name``."""
        if self.registry.enabled:
            self.registry.counter(
                name, help=CATALOGUE.get(name, UNLISTED).help, **labels,
            ).inc(amount)

    def gauge(self, name: str, value: float, **labels: str) -> None:
        """Set the gauge ``name``."""
        if self.registry.enabled:
            self.registry.gauge(
                name, help=CATALOGUE.get(name, UNLISTED).help, **labels,
            ).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record ``value`` in the histogram ``name``."""
        metric = CATALOGUE.get(name, UNLISTED)
        if self.registry.enabled:
            self.registry.histogram(name, help=metric.help,
                                    buckets=metric.buckets,
                                    **labels).observe(value)

    def instrument(self, name: str, **labels: str) -> Any:
        """The registry instrument of a catalogued ``name``, for a loop
        that hoists the lookup (a no-op one when no registry listens)."""
        metric = CATALOGUE[name]
        if metric.kind == "histogram":
            return self.registry.histogram(
                name, help=metric.help, buckets=metric.buckets, **labels)
        return getattr(self.registry, metric.kind)(
            name, help=metric.help, **labels)

    def timed(self, name: str, **labels: str) -> Any:
        """A context manager timing its block into the histogram
        ``name`` — the run counts even when the block raises, and then
        the catalogue entry's error counter counts too."""
        return self._timed(name, labels) if self.enabled else _NULL_CONTEXT

    @contextmanager
    def _timed(self, name: str, labels: dict[str, str]) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        except BaseException:
            errors = CATALOGUE.get(name, UNLISTED).errors
            if errors is not None:
                self.count(errors)
            raise
        finally:
            self.observe(name, perf_counter() - start, **labels)

    # -- spans (tracer) ---------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Any:
        """Open a span on the tracer; enter it with ``with``."""
        return self.tracer.span(name, **attrs)

    # -- events (flight recorder) ------------------------------------------

    def event(self, kind: str, *, time: float | None = None,
              object_id: str | None = None, **data: Any) -> None:
        """One DBMS-visible event; ``data`` is its JSON payload.

        An ``update`` event — the paper's position-update message — is
        also ``dbms_update_messages_total``.
        """
        if self.recorder.enabled:
            self.recorder.record(kind, time=time, object_id=object_id,
                                 **data)
        if kind == _UPDATE:
            self.count(_UPDATE_COUNTER)

    def query(self, kind: str, answer: Any, *, time: float,
              **params: Any) -> None:
        """One answered query; the answer is digested only when a
        recorder hears it."""
        recorder = self.recorder
        if recorder.enabled:
            recorder.record_query(kind, recorder.digest(answer),
                                  time=time, **params)

    def queries(self, queries: Any, answers: Any,
                batch: bool = False) -> None:
        """One ``query`` event per answered query, in order; a
        ``batch`` gets a fresh batch id and each query its slot."""
        if not self.recorder.enabled:
            return
        issuer: dict[str, Any] = {}
        if batch:
            issuer = {"engine": "batch",
                      "batch": self.recorder.next_batch_id()}
        for index, (query, answer) in enumerate(zip(queries, answers)):
            if batch:
                issuer["index"] = index
            self.query(query.kind, answer, time=query.time,
                       **query.fields(), **issuer)


_PROBE = Probe()
#: Slot name -> (its ``use`` spelling, its off-value).
_SLOTS: dict[str, tuple[Callable, Any]] = {}


def probe() -> Probe:
    """The process's probe (its sinks all off by default)."""
    return _PROBE


def slot(name: str, factory: Callable[[], Any],
         null: Any) -> tuple[Callable, Callable, Callable]:
    """Bind the sink slot ``name``: its ``(get, set, use)`` spellings.

    ``get()`` is the installed sink; ``set(sink)`` installs one and
    returns the previous (``None`` restores ``null``, the slot's
    off-value, which is also installed now); ``use(sink)`` scopes one
    to a ``with`` block, building it with ``factory`` when given none.
    """
    _PROBE._install(name, null)

    def get() -> Any:
        return getattr(_PROBE, name)

    def set_(sink: Any | None) -> Any:
        return _PROBE._install(name, sink if sink is not None else null)

    @contextmanager
    def use(sink: Any | None = None) -> Iterator[Any]:
        if sink is None:
            sink = factory()
        previous = _PROBE._install(name, sink)
        try:
            yield sink
        finally:
            _PROBE._install(name, previous)

    _SLOTS[name] = (use, null)
    return get, set_, use


@contextmanager
def observe(**sinks: Any) -> Iterator[Probe]:
    """Install several sinks for one block and yield the probe.

    One keyword per slot (``registry``, ``tracer``, ``recorder``): a
    sink instance installs it, ``True`` installs a fresh default one,
    ``False`` switches the slot off, ``None`` leaves it as it is.
    ``with observe(registry=True, tracer=True) as p:`` then
    ``p.registry`` / ``p.tracer`` hold what the block published.
    """
    with ExitStack() as stack:
        for name, sink in sinks.items():
            if name not in _SINKS:
                raise ObservabilityError(f"unknown sink slot {name!r}")
            if sink is None:
                continue
            if name not in _SLOTS:
                raise ObservabilityError(
                    f"sink slot {name!r} is unbound: import the module "
                    "that defines its sink first")
            use, null = _SLOTS[name]
            if sink is False:
                sink = null
            stack.enter_context(use(None if sink is True else sink))
        yield _PROBE


__all__ = [
    "Probe",
    "observe",
    "probe",
    "slot",
]
