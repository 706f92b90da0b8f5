"""Stateful differential test: a tree built on first read equals a live one.

``TimeSpaceIndex`` keeps only its content until something reads the
tree, then STR-loads it; ``TimeSpaceIndex.bulk_build({})`` has a tree
from the start and swaps boxes on every write.  A hypothesis
``RuleBasedStateMachine`` drives both, and a ``LinearScanIndex``,
through one generated sequence of inserts, replaces (skippable and
forced), removes, single and batched candidate searches, content
digests, rebuilds at another slab length and restarts (a fresh index
given the current content and not read yet), with writes and reads in
any interleaving.  After every step the two trees agree on everything
a caller can see: returned box counts and ``IndexMaintenanceStats``,
``total_boxes``, candidate sets (which equal a brute force over the
slab boxes, and sit inside the scan's all-objects answer) and content
digests; after every read both trees pass ``check_invariants``.

A second, plain test holds the writes made before the first read to the
metrics and trace events a live tree's writes publish.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import IndexError_
from repro.geometry.bbox import Box3D, Rect2D
from repro.index.rtree import RTree
from repro.index.scan import LinearScanIndex
from repro.index.timespace import TimeSpaceIndex
from repro.obs.probe import observe
from repro.routes.generators import straight_route
from repro.trace.recorder import TraceRecorder
from tests.conftest import examples
from tests.index.test_oplane_bounds import maximal_runs, reference_boxes
from tests.index.test_slab_runs import OBJECTS, planes
from tests.index.test_timespace import plane_for

TUNING = {"max_entries": 4, "min_entries": 2}
HORIZON = 12.5
regions = st.builds(lambda x, y, w, h: Rect2D(x, y, x + w, y + h),
                    st.floats(-0.2, 2.0), st.floats(-0.2, 2.0),
                    st.floats(0.0, 1.0), st.floats(0.0, 1.0))
times = st.one_of(st.sampled_from([0.0, 2.5, 5.0, 7.0, 10.0, 19.5]),
                  st.floats(-1.0, 25.0))
windows = st.tuples(regions, times)


class LazyTreeMachine(RuleBasedStateMachine):
    @initialize(slab=st.sampled_from([2.5, 5.0, 10.0]))
    def start(self, slab):
        self.slab = slab
        self.lazy = TimeSpaceIndex(slab_minutes=slab, **TUNING)
        self.live = TimeSpaceIndex.bulk_build({}, slab_minutes=slab, **TUNING)
        self.scan = LinearScanIndex()
        self.model = {}

    def trees(self):
        return (self.lazy, self.live)

    # -- writes ---------------------------------------------------------

    @rule(object_id=st.sampled_from(OBJECTS), plane=planes(HORIZON))
    def insert(self, object_id, plane):
        if object_id in self.model:
            for index in (*self.trees(), self.scan):
                try:
                    index.insert(object_id, plane)
                except IndexError_:
                    continue
                raise AssertionError("duplicate id accepted")
            return
        assert self.lazy.insert(object_id, plane) == \
            self.live.insert(object_id, plane)
        self.scan.insert(object_id, plane)
        self.model[object_id] = plane

    @rule(object_id=st.sampled_from(OBJECTS), plane=planes(HORIZON),
          force=st.booleans())
    def replace(self, object_id, plane, force):
        assert self.lazy.replace(object_id, plane, force=force) == \
            self.live.replace(object_id, plane, force=force)
        self.scan.replace(object_id, plane)
        self.model[object_id] = plane

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def replace_with_itself(self, data):
        """The skip path: the same plane again stores no box."""
        object_id = data.draw(st.sampled_from(sorted(self.model)))
        plane = self.model[object_id]
        stats = self.lazy.replace(object_id, plane)
        assert stats == self.live.replace(object_id, plane)
        assert (stats.boxes_removed, stats.boxes_inserted) == (0, 0)

    @rule(object_id=st.sampled_from(OBJECTS))
    def remove(self, object_id):
        if object_id not in self.model:
            for index in (*self.trees(), self.scan):
                try:
                    index.remove(object_id)
                except IndexError_:
                    continue
                raise AssertionError("absent id removed")
            return
        assert self.lazy.remove(object_id) == self.live.remove(object_id)
        self.scan.remove(object_id)
        del self.model[object_id]

    @rule(slab=st.sampled_from([2.5, 5.0, 10.0]))
    def rebuild(self, slab):
        self.slab = slab
        self.lazy = self.lazy.rebuilt(self.model, slab_minutes=slab, **TUNING)
        self.live = self.live.rebuilt(self.model, slab_minutes=slab, **TUNING)

    @rule()
    def restart(self):
        """A fresh index over the current content, not read yet."""
        self.lazy = TimeSpaceIndex(slab_minutes=self.slab, **TUNING)
        for object_id, plane in self.model.items():
            self.lazy.insert(object_id, plane)

    # -- reads ----------------------------------------------------------

    def expected(self, region, t):
        window = Box3D.from_rect(region, t, t)
        return {object_id for object_id, plane in self.model.items()
                if any(box.intersects(window)
                       for box in reference_boxes(plane, self.slab))}

    def read(self):
        for index in self.trees():
            index.tree.check_invariants()

    def window(self, data):
        """A random window, or one at a stored slab's rectangle and time."""
        slabs = [box for plane in self.model.values()
                 for box in reference_boxes(plane, self.slab)]
        if not slabs or data.draw(st.booleans()):
            return data.draw(windows)
        box = data.draw(st.sampled_from(slabs))
        return box.rect, data.draw(st.sampled_from([box.min_t, box.max_t]))

    @rule(data=st.data())
    def candidates_at(self, data):
        window = self.window(data)
        expected = self.expected(*window)
        for index in self.trees():
            assert index.candidates_at(*window) == expected
        assert self.scan.candidates_at(*window) == set(self.model)
        self.read()

    @rule(data=st.data(), size=st.integers(0, 5))
    def candidates_at_many(self, data, size):
        batch = [self.window(data) for _ in range(size)]
        expected = [self.expected(*window) for window in batch]
        for index in self.trees():
            assert index.candidates_at_many(batch) == expected
        assert self.scan.candidates_at_many(batch) == [
            set(self.model)] * len(batch)
        self.read()

    @rule()
    def content_digest(self):
        assert self.lazy.content_digest() == self.live.content_digest()
        assert self.scan.content_digest() is None
        self.read()

    # -- after every step -----------------------------------------------

    @invariant()
    def same_content(self):
        runs = sum(len(maximal_runs(reference_boxes(plane, self.slab)))
                   for plane in self.model.values())
        for index in self.trees():
            assert index.total_boxes() == runs
            assert sorted(index.object_ids()) == sorted(self.model)
        assert sorted(self.scan.object_ids()) == sorted(self.model)


TestLazyTree = LazyTreeMachine.TestCase
TestLazyTree.settings = settings(
    max_examples=examples(30), stateful_step_count=20, deadline=None,
    suppress_health_check=list(HealthCheck),
)


def count_tree_work(monkeypatch) -> dict[str, int]:
    """Count ``RTree.insert`` / ``delete`` / ``bulk_load`` calls from
    here on (the dict fills in as they happen)."""
    calls = {"insert": 0, "delete": 0, "bulk_load": 0}
    for name in ("insert", "delete"):
        def counted(self, *args, _name=name, _original=getattr(RTree, name)):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(RTree, name, counted)
    bulk_load = RTree.bulk_load.__func__

    def counted_bulk_load(cls, *args, **kwargs):
        calls["bulk_load"] += 1
        return bulk_load(cls, *args, **kwargs)
    monkeypatch.setattr(RTree, "bulk_load", classmethod(counted_bulk_load))
    return calls


def test_writes_before_the_first_read_publish_what_a_live_tree_does(
        monkeypatch):
    """Same returns, metrics and trace events as a live tree, and no
    R-tree insert or delete: the first search builds the tree by one
    bulk load."""
    route = straight_route(40.0, "h1")
    first, moved = plane_for(route), plane_for(route, starttime=3.0, x=3.0)

    def drive(index):
        recorder = TraceRecorder()
        with observe(registry=True, recorder=recorder) as p:
            returned = [index.insert("a", first),
                        index.replace("b", moved),
                        index.replace("a", moved),
                        index.replace("a", moved),
                        index.replace("b", moved, force=True),
                        index.remove("b")]
            published = p.registry.snapshot()
        return returned, published, [e.to_dict() for e in recorder.events()]

    live = TimeSpaceIndex.bulk_build({})
    lazy = TimeSpaceIndex()
    calls = count_tree_work(monkeypatch)
    observed = drive(lazy)
    assert calls == {"insert": 0, "delete": 0, "bulk_load": 0}
    assert lazy.candidates_at(Rect2D(0.0, -1.0, 40.0, 1.0), 5.0) == {"a"}
    assert calls == {"insert": 0, "delete": 0, "bulk_load": 1}
    assert drive(live) == observed
    assert calls["insert"] > 0 and calls["delete"] > 0
    assert lazy.content_digest() == live.content_digest()
    assert lazy.total_boxes() == live.total_boxes() == len(lazy.tree)
