"""E6: the shape of the deviation bounds over time since the update.

§3.3's qualitative contrast: "in the delayed linear policy, the bound
on the error first increases, and then it remains fixed" while for the
immediate policies "the bound ... first increases ... and after [the
peak], in the absence of an update, the bound ... decreases as time
progresses.  This is a surprising positive result."
"""

from repro.core.bounds import immediate_linear_bounds
from repro.experiments.figures import figure_bound_shapes


def test_bound_shapes(benchmark):
    figure = figure_bound_shapes(
        declared_speed=1.0, max_speed=1.5, update_cost=5.0,
        horizon=15.0, points=60,
    )
    print()
    print(figure.render())

    dl_ys = figure.series[0].ys
    imm_ys = figure.series[1].ys

    # dl: monotone non-decreasing, flat at the end (plateau).
    assert all(b >= a - 1e-9 for a, b in zip(dl_ys, dl_ys[1:]))
    assert dl_ys[-1] == dl_ys[-5]

    # immediate: rises, peaks strictly inside, then decays.
    peak_index = max(range(len(imm_ys)), key=imm_ys.__getitem__)
    assert 0 < peak_index < len(imm_ys) - 1
    assert imm_ys[-1] < imm_ys[peak_index]
    tail = imm_ys[peak_index:]
    assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))

    bounds = immediate_linear_bounds(1.0, 1.5, 5.0)
    benchmark(lambda: [bounds.total(t * 0.25) for t in range(60)])
