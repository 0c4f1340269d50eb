"""Self-tests for the benchmark harness's own arithmetic.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q``.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracing  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, -1),   # root
        (1.0, 4.0, 0),     # child: 3 s, holding a 1 s grandchild
        (2.0, 3.0, 1),     # grandchild
        (5.0, 7.0, 0),     # child: 2 s
    ]
    assert harness.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_of_leaf_is_its_duration():
    assert harness.self_times([(2.0, 2.5, -1)]) == [0.5]


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))            # 1..100
    pct, value, beyond = harness.tail_percentile(values)
    assert (pct, value, beyond) == (90, 90, 10)
    # One more sample moves the boundary, never below ten beyond.
    pct, value, beyond = harness.tail_percentile(list(range(1, 111)))
    assert beyond >= 10 and pct == 90 and value == 99


def test_tail_percentile_none_when_sample_too_small():
    assert harness.tail_percentile(list(range(19))) is None
    pct, _, beyond = harness.tail_percentile(list(range(20)))
    assert (pct, beyond) == (50, 10)


def test_nearest_rank_median():
    assert harness.nearest_rank([5, 1, 3], 50) == 3
    assert harness.nearest_rank([4, 1, 3, 2], 50) == 2


def test_count_failures_counts_incidents_diffs_and_length():
    ref = [[1, 10, "masked", "", 0], [2, 20, "sdc", "x", 5]]
    assert harness.count_failures(ref, [list(r) for r in ref]) == 0
    changed = [ref[0], [2, 20, "masked", "", 5]]
    assert harness.count_failures(ref, changed) == 1
    assert harness.count_failures(ref, ref[:1], incidents=1) == 2
    assert harness.count_failures([], ref) == 2


def test_fail_frac():
    assert harness.fail_frac(3, 300) == 0.01
    assert harness.fail_frac(0, 0) == 0.0


def test_layer_metrics_label_runs_by_context():
    spans = [
        ["golden", 0.0, 4.0, -1, 1000],
        ["run", 0.5, 3.5, 0, ("uarch", 600)],
        ["fault", 5.0, 9.0, -1, None],
        ["seek", 5.0, 6.0, 2, None],
        ["run", 5.2, 5.8, 3, ("uarch", 60)],
        ["run", 6.0, 8.0, 2, ("uarch", 200)],
    ]
    m = tracing.layer_metrics(spans)
    assert m["golden.capture_s"] == 4.0 and m["golden.self_s"] == 1.0
    assert m["golden.cycles"] == 1000
    assert m["uarch.run.golden_s"] == 3.0
    assert abs(m["uarch.run.seek_s"] - 0.6) < 1e-12
    assert m["uarch.run.fault_s"] == 2.0
    assert m["seek.s"] == 1.0 and abs(m["seek.self_s"] - 0.4) < 1e-12
    assert abs(m["fault.self_s"] - 1.0) < 1e-12
    assert abs(m["uarch.cycles_per_s"] - 860 / 5.6) < 1e-9
    assert m["rtl.run_s"] == 0.0
