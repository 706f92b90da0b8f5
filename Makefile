# Convenience targets for the repro moving-objects database.

PYTHON ?= python

.PHONY: install test lint bench report report-fast examples clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# `repro lint` is stdlib-only and always runs; ruff/mypy run when
# installed (skipped with a notice otherwise), but their findings still
# fail the target when they are present.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src tests
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping"; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "lint: mypy not installed, skipping"; \
	fi

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

report:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.runner

report-fast:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.runner --fast

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis *.egg-info src/*.egg-info
