"""``repro.bench``: the environment fingerprint the end-to-end ledger
stamps on its samples file, and nothing else."""

import repro.bench
from repro.bench import environment_fingerprint


def test_fingerprint_fields():
    fingerprint = environment_fingerprint()
    assert fingerprint["python"].count(".") == 2
    assert fingerprint["cpu_count"] >= 1
    assert fingerprint["platform"]
    # In this repo's checkout, the SHA must resolve.
    assert isinstance(fingerprint["git_sha"], str)
    assert len(fingerprint["git_sha"]) == 40


def test_the_module_exports_only_the_fingerprint():
    assert repro.bench.__all__ == ["environment_fingerprint"]
