"""One instrumentation seam, held by structure rather than convention.

Walks ``src/repro`` and fails when a hook outside ``obs/`` (and the
recorder's own module) reads a sink directly, spells a help text or a
bucket tuple, tests more than one ``enabled`` flag, or hands the probe
a metric name the catalogue does not declare — and when the catalogue
declares a series no hook emits.
"""

import ast
from pathlib import Path

import repro
import repro.obs.probe as probe_module
from repro.obs.catalogue import CATALOGUE
from repro.trace import events

SRC = Path(repro.__file__).parent
#: The packages whose hooks the probe replaced.
INSTRUMENTED = ("sim", "vec", "exec", "dbms", "index", "shard")
AMBIENT_READS = {"get_registry", "get_tracer", "get_recorder"}
USE_SPELLINGS = {"use_registry", "use_tracer", "use_recorder"}
#: Probe verbs whose first argument is a metric name.
METRIC_VERBS = {"count", "gauge", "observe", "timed", "instrument"}


def modules():
    """``(path relative to src/repro, parsed module)`` for every file."""
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def outside_the_seam(relpath):
    return not relpath.startswith("obs/") and relpath != "trace/recorder.py"


def called_name(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", None)


def on_the_probe(call):
    """``p.verb(...)`` or ``probe().verb(...)``."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    receiver = func.value
    return (isinstance(receiver, ast.Name) and receiver.id == "p") or (
        isinstance(receiver, ast.Call) and called_name(receiver) == "probe")


def calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_no_hook_reads_a_sink_directly():
    offenders = [
        f"{relpath}:{call.lineno}"
        for relpath, tree in modules() if outside_the_seam(relpath)
        for call in calls(tree) if called_name(call) in AMBIENT_READS
    ]
    assert offenders == []


def test_no_hook_spells_help_text_or_buckets():
    offenders = [
        f"{relpath}:{call.lineno}"
        for relpath, tree in modules()
        if relpath.split("/")[0] in INSTRUMENTED
        for call in calls(tree)
        if {keyword.arg for keyword in call.keywords} & {"help", "buckets"}
    ]
    assert offenders == []


def test_no_function_tests_more_than_one_enabled_flag():
    offenders = []
    for relpath, tree in modules():
        if not outside_the_seam(relpath):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            reads = [sub for sub in ast.walk(node)
                     if isinstance(sub, ast.Attribute)
                     and sub.attr == "enabled"]
            if len(reads) > 1:
                offenders.append(f"{relpath}:{node.lineno} {node.name}")
    assert offenders == []


def stated_metric_names():
    """Every string literal a hook hands the probe as a metric name."""
    names = set()
    for relpath, tree in modules():
        if not outside_the_seam(relpath):
            continue
        for call in calls(tree):
            verb = called_name(call)
            stated = (verb in METRIC_VERBS and on_the_probe(call)) or (
                verb in {"timed", "time_section"}
                and isinstance(call.func, ast.Name))
            if not stated or not call.args:
                continue
            literals = {sub.value for sub in ast.walk(call.args[0])
                        if isinstance(sub, ast.Constant)
                        and isinstance(sub.value, str)}
            assert literals, (
                f"{relpath}:{call.lineno} names its metric indirectly")
            names |= literals
        for call in calls(tree):
            # An ``update`` event is also the message counter.
            if (called_name(call) == "event" and on_the_probe(call)
                    and getattr(call.args[0], "id", None) == "UPDATE"):
                names.add(probe_module._UPDATE_COUNTER)
    return names


def test_every_stated_metric_is_catalogued_and_every_entry_is_stated():
    stated = stated_metric_names()
    assert stated - set(CATALOGUE) == set()
    # A timed histogram's error counter is stated by the probe itself.
    stated |= {CATALOGUE[name].errors for name in stated
               if CATALOGUE[name].errors is not None}
    assert set(CATALOGUE) - stated == set()


def test_catalogue_entries_are_coherent():
    for name, metric in CATALOGUE.items():
        assert metric.kind in {"counter", "gauge", "histogram"}, name
        assert metric.help, name
        if metric.errors is not None:
            assert CATALOGUE[metric.errors].kind == "counter", name


def test_one_probe_three_slots_one_session():
    constructed = []
    slots = []
    for relpath, tree in modules():
        for call in calls(tree):
            if called_name(call) == "Probe":
                constructed.append(relpath)
            if called_name(call) == "slot" and isinstance(call.func,
                                                          ast.Name):
                slots.append(call.args[0].value)
    assert constructed == ["obs/probe.py"]
    assert sorted(slots) == ["recorder", "registry", "tracer"]
    cli = ast.parse((SRC / "cli.py").read_text())
    entered = [called_name(call) for call in calls(cli)
               if called_name(call) in USE_SPELLINGS | {"observe"}
               and isinstance(call.func, ast.Name)]
    assert entered == ["observe"]


def test_the_probe_knows_the_update_kind_by_value():
    # repro.trace binds its recorder slot while it is imported, so the
    # probe cannot import the constant.
    assert probe_module._UPDATE == events.UPDATE
