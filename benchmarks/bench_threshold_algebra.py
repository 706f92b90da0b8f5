"""E9: threshold algebra and the incomparability observation (§3.2).

Checks (1) ``k_opt(a, b) <= k_opt(a, 0)`` over a parameter grid, and
(2) that despite (1) the *number of updates* under dl vs. ail is
incomparable — adversarial speed curves push the count either way.
"""

from repro.core.thresholds import optimal_update_threshold
from repro.experiments.tables import table_threshold_algebra


def test_threshold_algebra(benchmark):
    table = table_threshold_algebra()
    print()
    print(table.render())

    for row in table.rows:
        if str(row[0]).startswith("k_opt"):
            assert row[1] <= row[2] + 1e-12

    update_rows = [r for r in table.rows if "updates" in str(r[0])]
    assert any(r[1] != r[2] for r in update_rows), (
        "update counts should differ on adversarial curves"
    )

    benchmark(
        lambda: [
            optimal_update_threshold(a / 10.0, b / 10.0, 5.0)
            for a in range(1, 30)
            for b in range(0, 30)
        ]
    )
