import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caltest.binning import quantile_bins
from caltest.core import BinSet, Dataset
from caltest.diagram import _sorted_histogram, _sorted_quartiles, build_diagram, render_svg
from caltest.metrics import tce
from caltest.stattest import TestConfig


@pytest.fixture
def four_point():
    return Dataset(np.array([0.2, 0.3, 0.7, 0.9]), np.array([0, 1, 1, 1]))


def fixture_dataset():
    rng = np.random.default_rng(2024)
    preds = np.sort(rng.random(400))
    labels = (rng.random(400) < preds).astype(int)
    return Dataset(preds, labels)


def test_build_diagram_one_bin_means(four_point):
    spec = build_diagram(four_point, BinSet.from_edges([0.0, 1.0]), kind="standard")
    entry = spec.bins[0]
    assert entry.count == 4
    assert entry.empirical_prob == pytest.approx(0.75)
    assert entry.mean_prediction == pytest.approx(0.525)
    assert sum(spec.histogram_counts) == 4
    assert len(spec.histogram_counts) == 50


def test_build_diagram_calibrated_bin_has_zero_rejection():
    ds = Dataset(np.full(40, 0.5), np.array([0, 1] * 20))
    spec = build_diagram(ds, BinSet.from_edges([0.0, 1.0]), TestConfig(), "test_based")
    assert spec.bins[0].rejection_pct == 0.0


def test_rejections_equal_tce_per_bin_losses():
    ds = fixture_dataset()
    bins = quantile_bins(ds, 6)
    cfg = TestConfig()
    spec = build_diagram(ds, bins, cfg, "test_based")
    report = tce(ds, bins, cfg)
    for entry, pb in zip(spec.bins, report.per_bin):
        assert entry.rejection_pct == pb.loss
        assert entry.count == pb.count


def test_quartiles_inside_bin_and_density_sums():
    ds = fixture_dataset()
    bins = quantile_bins(ds, 5)
    spec = build_diagram(ds, bins, TestConfig(), "test_based")
    for entry in spec.bins:
        if entry.count == 0:
            continue
        q1, q2, q3 = entry.quartiles
        assert entry.bin.lower <= q1 <= q2 <= q3 <= entry.bin.upper
        assert sum(entry.density) == entry.count
        assert len(entry.density) == 20


def test_diagram_config_records_a_test_only_when_one_ran(four_point):
    bins = BinSet.from_edges([0.0, 0.5, 1.0])
    cfg = TestConfig(alpha=0.2)
    assert build_diagram(four_point, bins, cfg, "standard").config == {"num_bins": 2}
    assert build_diagram(four_point, bins, cfg, "test_based").config == {
        "num_bins": 2, "test": "binomial", "alpha": 0.2}


def test_build_diagram_validation(four_point):
    with pytest.raises(ValueError):
        build_diagram(four_point, BinSet.from_edges([0.0, 1.0]), kind="fancy")
    with pytest.raises(ValueError):
        build_diagram(four_point, BinSet.from_edges([0.0, 1.0]), kind="test_based")


def test_render_svg_is_valid_xml_and_deterministic():
    ds = fixture_dataset()
    spec = build_diagram(ds, quantile_bins(ds, 6), TestConfig(), "test_based")
    a = render_svg(spec)
    b = render_svg(spec)
    assert a == b
    root = ET.fromstring(a)
    assert root.tag.endswith("svg")

    standard = build_diagram(ds, quantile_bins(ds, 6), kind="standard")
    ET.fromstring(render_svg(standard))


def test_render_single_bin_has_one_probability_marker(four_point):
    spec = build_diagram(four_point, BinSet.from_edges([0.0, 1.0]), kind="standard")
    svg = render_svg(spec)
    assert svg.count('stroke="#cc2222" stroke-width="2.00"') == 1


def test_render_svg_validation(four_point):
    spec = build_diagram(four_point, BinSet.from_edges([0.0, 1.0]), kind="standard")
    with pytest.raises(ValueError):
        render_svg(spec, width=0)


def test_spec_json_round_trip():
    ds = fixture_dataset()
    spec = build_diagram(ds, quantile_bins(ds, 4), TestConfig(), "test_based")
    payload = json.loads(spec.to_json())
    assert payload["schema_version"] == 1
    assert payload["kind"] == "test_based"
    assert payload["n"] == ds.n
    assert len(payload["bins"]) == len(spec.bins)
    assert payload["bins"][0]["rejection_pct"] == spec.bins[0].rejection_pct
    assert spec.to_json() == spec.to_json()


def test_golden_svg(tmp_path):
    import pathlib

    ds = fixture_dataset()
    spec = build_diagram(ds, quantile_bins(ds, 6), TestConfig(), "test_based")
    svg = render_svg(spec)
    golden = pathlib.Path(__file__).parent / "data" / "golden_diagram.svg"
    assert svg == golden.read_text(encoding="utf-8")


@st.composite
def histogram_cases(draw):
    """Ascending values on the bucket edges, next to them, at both ends of the
    range and outside it, in ties, and a range and bucket count."""
    lower = draw(st.floats(0.0, 1.0, exclude_max=True))
    upper = draw(st.floats(lower, 1.0, exclude_min=True))
    buckets = draw(st.integers(1, 60))
    try:
        edges = np.histogram_bin_edges(np.zeros(0), buckets, (lower, upper)).tolist()
    except ValueError:  # too many buckets for the range: both sides raise
        edges = [lower, upper]
    near = [float(np.nextafter(e, d)) for e in edges for d in (0.0, 1.0)]
    pool = edges + near + draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    values = draw(st.lists(st.sampled_from(pool), max_size=80))
    return np.sort(np.array(values, dtype=np.float64)), buckets, lower, upper


@settings(max_examples=300, deadline=None)
@given(histogram_cases())
@example((np.sort(np.r_[np.linspace(0.0, 1.0, 51), 0.5, 1.0, 0.0]), 50, 0.0, 1.0))
@example((np.array([0.25, 0.25, 0.5]), 20, 0.25, 0.5))
def test_sorted_histogram_matches_numpy(case):
    values, buckets, lower, upper = case
    try:
        want = np.histogram(values, buckets, (lower, upper))
    except ValueError:
        with pytest.raises(ValueError):
            _sorted_histogram(values, buckets, lower, upper)
        return
    counts, edges = _sorted_histogram(values, buckets, lower, upper)
    assert counts.tolist() == want[0].tolist()
    assert edges.tobytes() == want[1].tobytes()


QUARTILE_VALUES = st.sampled_from([0.0, 1.0, 0.5, 0.25, 5e-324, 1.0 - 2**-53]) | st.floats(0.0, 1.0)


@st.composite
def quartile_cases(draw):
    """Ascending values: sizes 1-4 most often, ties, 0.0 and 1.0, and some with -0.0 among the zeros."""
    size = draw(st.integers(1, 4) | st.integers(5, 60))
    pool = draw(st.lists(QUARTILE_VALUES, min_size=1, max_size=size))
    values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    if draw(st.booleans()):
        values = [-0.0 if v == 0.0 and draw(st.booleans()) else v for v in values]
    values = np.sort(np.array(values), kind="stable")
    values.flags.writeable = False  # as the sorted view is
    return values


@settings(max_examples=500, deadline=None)
@given(quartile_cases())
@example(np.array([0.3]))
@example(np.array([0.0, 1.0]))
@example(np.array([0.0, 0.0, 1.0]))
@example(np.array([0.1, 0.2, 0.2, 0.9]))
@example(np.array([-0.0, 0.0, 0.0, 1.0]))
def test_sorted_quartiles_match_numpy_percentile(values):
    assert _sorted_quartiles(values).tobytes() == np.percentile(values, [25, 50, 75]).tobytes()
