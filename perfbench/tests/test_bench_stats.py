import math

import pytest

import run
from stats import normalise, tail_percentile


@pytest.mark.parametrize("n, percentile", [(40, 75), (64, 84), (100, 90), (144, 93), (1000, 99)])
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile):
    values = [float(v) for v in range(n, 0, -1)]
    p, value = tail_percentile(values)
    assert p == percentile
    beyond = [v for v in values if v > value]
    assert len(beyond) >= 10
    # one percentile higher would leave fewer than ten beyond it
    assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_uses_nearest_rank():
    p, value = tail_percentile([float(v) for v in range(1, 65)])
    assert (p, value) == (84, 54.0)


def test_tail_below_forty_samples_is_the_median():
    assert tail_percentile([1.0, 2.0, 10.0]) == (50, 2.0)
    assert tail_percentile([float(v) for v in range(39)]) == (50, 19.0)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_each_operation_divided_by_mean_of_its_two_references():
    assert normalise([1.0, 3.0], [0.5, 1.5, 0.5]) == [1.0, 3.0]
    assert normalise([2.0], [1.0, 3.0]) == [1.0]


def test_normalise_needs_a_reference_around_every_operation():
    with pytest.raises(ValueError):
        normalise([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        normalise([1.0], [0.0, 0.0])


def test_run_gives_every_end_to_end_metric_with_its_unit():
    batch = run.Batch([None], op_seconds=[2.0], ref_seconds=[1.0, 1.0])
    setup = run.Batch([None], op_seconds=[1.0], ref_seconds=[1.0, 1.0])
    metrics, _ = run.end_to_end_metrics([batch], setup, rss=50.0)
    assert metrics == {
        m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
        for m in run.SPEC["end_to_end"]
    }
    assert metrics["batch_ref"]["value"] == 2.0
