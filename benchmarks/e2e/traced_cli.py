"""One ``repro`` command, in-process under probes: a traced child process.

    traced_cli.py SPANS_PATH SECTION RETARGET_JSON ARGV...

stands in for ``python -m repro ARGV...`` in a traced repetition of a
command workload: same stdout and exit code, and the span table of the
run written to ``SPANS_PATH``.  The root span covers ``import repro``
and ``repro.cli.main``, the two things the plain command's wall clock
is made of; this file imports nothing heavy of its own so that the
process wall clocks compare.
"""

from __future__ import annotations

import json
import sys

import probes


def main(spans_path: str, section: str, overrides: str,
         argv: list[str]) -> int:
    log = probes.SpanLog()
    log.section = section
    with log.span(probes.ROOT_SPAN):
        with log.span("import.repro"):
            import repro  # noqa: F401
        from repro.cli import main as repro_main

        probes.install(log, probes.retargeted(json.loads(overrides)))
        code = repro_main(argv)
    with open(spans_path, "w") as out:
        json.dump(log.dump(), out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2], sys.argv[3],
                          sys.argv[4:]))
