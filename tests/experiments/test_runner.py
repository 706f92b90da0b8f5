"""Smoke test for the full experiment runner (the report's content is
pinned by ``tests/test_cli.py::TestReport::test_fast_report``)."""

from repro.experiments.runner import main


class TestRunner:
    def test_main_entry(self, capsys):
        assert main(["--fast"]) == 0
        captured = capsys.readouterr()
        assert "[E12]" in captured.out
