"""The program's output does not depend on the interpreter's hash seed.

Every table and answer this repo reproduces is pinned by byte-identical
digests, so a set's or a dict's iteration order, an unseeded draw or a
clock read anywhere on the way to them breaks a pin.  ``repro lint``
looks for such hazards one module at a time; this test looks at what
the program writes.  Two fresh interpreters, one under
``PYTHONHASHSEED=0`` and one under ``=1``, each print the SHA-256 of
what the program computes: a small sweep's cells, a taxi fleet's
update stream, and a CI-size ``trace record`` written plain and with
``--batch --shards 4``.  The two must print the same digests.

The sweep and the fleet run through the library, the traces through
the CLI; no command seeds the global RNG, so an unseeded draw from it
(in ``core/`` or ``routes/``, which no determinism rule scopes) moves a
digest whichever way it is reached.  The children run side by side, so
the test costs about one child's wall time.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parents[1]

#: What each child prints: one ``label sha256`` line per output.
CHILD = """
import hashlib, sys
from pathlib import Path

from repro.cli import main
from repro.exec import SweepExecutor
from repro.experiments.sweep import SweepSpec
from repro.workloads import taxi_fleet_scenario

spec = SweepSpec(policy_names=("dl", "ail", "cil", "adaptive"),
                 update_costs=(0.05, 0.5), num_curves=8, duration=30.0,
                 seed=7, dt=0.1)
cells = SweepExecutor().run(spec).cells
print("sweep", hashlib.sha256(repr(cells).encode()).hexdigest())

scenario = taxi_fleet_scenario(num_taxis=8, duration=12.0, seed=11)
scenario.fleet.run()
messages = scenario.database.update_log.messages()
print("fleet", hashlib.sha256(repr(messages).encode()).hexdigest())

record = ["trace", "record", "--size", "8", "--duration", "12",
          "--seed", "11", "--queries", "25"]
for label, extra in (("plain", []), ("batch-shards4",
                                     ["--batch", "--shards", "4"])):
    out = Path(sys.argv[1]) / f"{label}.jsonl"
    assert main(record + extra + ["--out", str(out)], out=sys.stderr) == 0
    print(label, hashlib.sha256(out.read_bytes()).hexdigest())
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    children = []
    for seed in ("0", "1"):
        workdir = tmp_path / f"hashseed-{seed}"
        workdir.mkdir()
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        children.append(subprocess.Popen(
            [sys.executable, "-c", CHILD, str(workdir)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    digests = []
    try:
        for child in children:
            stdout, stderr = child.communicate(timeout=60)
            assert child.returncode == 0, stderr
            digests.append(stdout.splitlines())
    finally:
        for child in children:
            child.kill()
            child.wait()
    assert [line.split()[0] for line in digests[0]] == [
        "sweep", "fleet", "plain", "batch-shards4"]
    assert digests[0] == digests[1]
