"""Checks of the benchmark's own arithmetic on hand-made spans and traces.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import measure as MS  # noqa: E402


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent}


# -- tail percentile ---------------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    # 39 samples: p75 has rank 30 and only 9 beyond it
    assert MS.tail_percentile(range(39)) is None
    # 40 samples: p75 is the 30th sample, with 10 beyond
    assert MS.tail_percentile(range(1, 41)) == (75.0, 30, 40)


def test_tail_picks_highest_qualifying_percentile():
    samples = list(range(1, 1001))
    # p99 is rank 990 with 10 beyond; p99.9 would leave 1
    assert MS.tail_percentile(samples) == (99.0, 990, 1000)
    # p95 at 200 samples: rank 190, 10 beyond; p99 would leave 2
    assert MS.tail_percentile(list(range(200))[::-1]) == (95.0, 189, 200)


def test_tail_of_unsorted_samples_uses_order_statistics():
    samples = [5.0] * 30 + [1.0] * 10 + [9.0] * 10
    pct, value, n = MS.tail_percentile(samples)
    assert (pct, value, n) == (75.0, 5.0, 50)


# -- time to a smoothed ELBO target -------------------------------------------

def test_time_to_target_uses_trailing_mean():
    elbos = [-10.0, -8.0, -6.0, -4.0, -2.0]
    walls = [1.0, 2.0, 3.0, 4.0, 5.0]
    # single points reach -6 at iteration 3, but the 3-window mean only at 4:
    # mean(-8, -6, -4) = -6
    assert MS.time_to_target(elbos, walls, -6.0, window=3) == (4, 4.0)
    assert MS.time_to_target(elbos, walls, -6.0, window=1) == (3, 3.0)


def test_time_to_target_ignores_spikes_and_reports_unreached():
    elbos = [-10.0, 0.0, -10.0, -10.0]
    walls = [0.5, 1.0, 1.5, 2.0]
    assert MS.time_to_target(elbos, walls, -5.0, window=3) is None
    # no full window yet at the spike, so window=3 cannot qualify early
    assert MS.time_to_target([0.0, -10, -10], [1, 2, 3], -1.0, window=3) is None


def test_iteration_times_from_cumulative_walls():
    assert MS.iteration_times([0.5, 1.25, 2.0]) == [0.5, 0.75, 0.75]


# -- self time from nested spans ------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        span("fit", 0.0, 10.0),
        span("elbo_gradients", 1.0, 5.0, parent=0),
        span("features", 2.0, 3.0, parent=1),
        span("gegenbauer", 2.2, 2.7, parent=2),
        span("elbo_gradients", 6.0, 9.0, parent=0),
    ]
    assert MS.self_times(spans) == pytest.approx([3.0, 3.0, 0.5, 0.5, 3.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 4.0), span("b", 1.0, 3.0, 0), span("c", 2.0, 5.0, 0)]
    # children cover [1, 4] inside the parent: self time is 1
    assert MS.self_times(spans)[0] == pytest.approx(1.0)


def test_has_ancestor_walks_the_whole_chain():
    spans = [
        span("vargp.elbo_gradients", 0, 4),
        span("harmonics.features", 1, 2, 0),
        span("backend.gegenbauer_last", 1.1, 1.2, 1),
        span("backend.gegenbauer_last", 5, 6),
    ]
    assert MS.has_ancestor(spans, 2, ("vargp.elbo_gradients",))
    assert not MS.has_ancestor(spans, 3, ("vargp.elbo_gradients",))


# -- cli.self_s -----------------------------------------------------------------

def test_cli_self_subtracts_top_level_spans():
    spans = [
        span("data_io.load_csv", 1.0, 1.5),
        span("vargp.fit", 2.0, 8.0),
        span("vargp.elbo_gradients", 3.0, 7.0, parent=1),
        span("checkpoint.save", 8.5, 9.0),
    ]
    # 10 s of command, 7 s inside top-level spans; nested spans do not count twice
    assert MS.cli_self(10.0, spans) == pytest.approx(3.0)


def test_quartile_spread_is_relative_to_median():
    assert MS.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert MS.quartile_spread([10.0] * 5) == 0.0
