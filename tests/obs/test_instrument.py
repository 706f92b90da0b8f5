"""Unit tests for repro.obs.instrument — timed/time_section glue."""

from repro.obs.catalogue import CATALOGUE
from repro.obs.instrument import time_section, timed
from repro.obs.registry import get_registry, use_registry


class TestTimed:
    def test_records_into_active_registry(self):
        # A catalogued name: the help text is the catalogue's, not the
        # call site's (``timed`` takes a name and labels, nothing else).
        @timed("dbms_query_seconds", kind="unit")
        def add(a, b):
            return a + b

        with use_registry() as registry:
            assert add(1, 2) == 3
            assert add(3, 4) == 7
        hist = registry.get("dbms_query_seconds", kind="unit")
        assert hist.count == 2
        assert hist.sum >= 0.0
        assert registry.help_text("dbms_query_seconds") == \
            CATALOGUE["dbms_query_seconds"].help

    def test_noop_when_disabled(self):
        @timed("fn_seconds")
        def fn():
            return 42

        assert fn() == 42
        assert get_registry().enabled is False

    def test_records_even_on_exception(self):
        @timed("fn_seconds")
        def boom():
            raise RuntimeError

        with use_registry() as registry:
            try:
                boom()
            except RuntimeError:
                pass
        assert registry.get("fn_seconds").count == 1

    def test_preserves_metadata(self):
        @timed("fn_seconds")
        def documented():
            """Docstring."""

        assert documented.__name__ == "documented"
        assert documented.__doc__ == "Docstring."

    def test_resolves_registry_per_call(self):
        """The decorator binds no registry at decoration time."""
        @timed("fn_seconds")
        def fn():
            pass

        fn()  # disabled: nothing recorded anywhere
        with use_registry() as first:
            fn()
        with use_registry() as second:
            fn()
            fn()
        assert first.get("fn_seconds").count == 1
        assert second.get("fn_seconds").count == 2


class TestTimeSection:
    def test_records_block_duration(self):
        with use_registry() as registry:
            with time_section("section_seconds", phase="load"):
                pass
        assert registry.get("section_seconds", phase="load").count == 1

    def test_noop_when_disabled(self):
        with time_section("section_seconds"):
            pass
        assert get_registry().enabled is False
