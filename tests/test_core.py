import numpy as np
import pytest

from caltest.binning import pava
from caltest.core import Bin, BinSet, Dataset, partition


def random_binset(rng, max_interior=6):
    k = int(rng.integers(0, max_interior + 1))
    interior = np.sort(rng.random(k))
    interior = np.unique(interior[(interior > 0) & (interior < 1)])
    return BinSet.from_edges([0.0, *interior.tolist(), 1.0])


def random_dataset(rng, n=None):
    n = n or int(rng.integers(1, 200))
    return Dataset(rng.random(n), rng.integers(0, 2, n))


def test_partition_hand_example():
    ds = Dataset(np.array([0.2, 0.3, 0.7, 0.9]), np.array([0, 1, 1, 1]))
    binned = partition(ds, BinSet.from_edges([0.0, 0.5, 1.0]))
    assert binned.counts.tolist() == [2, 2]
    assert binned.empirical_prob.tolist() == [0.5, 1.0]
    assert binned.mean_prediction.tolist() == [0.25, 0.8]


def test_partition_single_bin_is_identity():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, 50)
    binned = partition(ds, BinSet.from_edges([0.0, 1.0]))
    assert binned.counts.tolist() == [50]
    assert binned.empirical_prob[0] == ds.labels.mean()


def test_partition_keeps_empty_bins_flagged():
    ds = Dataset(np.zeros(5), np.zeros(5, dtype=int))
    binned = partition(ds, BinSet.from_edges([0.0, 0.4, 1.0]))
    assert binned.counts.tolist() == [5, 0]
    assert np.isnan(binned.empirical_prob[1])


def test_partition_boundary_value_goes_right():
    ds = Dataset(np.array([0.5, 1.0]), np.array([1, 1]))
    binned = partition(ds, BinSet.from_edges([0.0, 0.5, 1.0]))
    assert binned.counts.tolist() == [0, 2]


def test_partition_is_exhaustive_and_exclusive():
    rng = np.random.default_rng(7)
    for _ in range(100):
        ds = random_dataset(rng)
        binned = partition(ds, random_binset(rng))
        assert int(binned.counts.sum()) == ds.n


def test_partition_invariant_under_permutation():
    rng = np.random.default_rng(11)
    for _ in range(30):
        ds = random_dataset(rng, 120)
        bins = random_binset(rng)
        perm = rng.permutation(ds.n)
        shuffled = Dataset(ds.predictions[perm], ds.labels[perm])
        a = partition(ds, bins)
        b = partition(shuffled, bins)
        assert a.counts.tolist() == b.counts.tolist()
        assert np.array_equal(a.empirical_prob, b.empirical_prob, equal_nan=True)


def test_mean_prediction_stays_inside_its_bin():
    rng = np.random.default_rng(13)
    for _ in range(50):
        ds = random_dataset(rng)
        bins = random_binset(rng)
        binned = partition(ds, bins)
        for b, interval in enumerate(bins.bins):
            if binned.counts[b]:
                assert interval.lower <= binned.mean_prediction[b] <= interval.upper


def test_sorted_view_examples():
    ds = Dataset(np.array([0.9, 0.1]), np.array([1, 0]))
    labels, preds = ds.sorted_labels, ds.sorted_predictions
    assert labels.tolist() == [0, 1]
    assert preds.tolist() == [0.1, 0.9]

    labels = Dataset(np.array([0.5, 0.5]), np.array([1, 0])).sorted_labels
    assert labels.tolist() == [1, 0]  # stable on ties

    labels = Dataset(np.array([0.3, 0.1, 0.2]), np.array([1, 0, 1])).sorted_labels
    assert labels.tolist() == [0, 1, 1]


def test_data_holders_compare_and_hash_by_identity():
    def holders():
        ds = Dataset(np.array([0.2, 0.7]), np.array([0, 1]))
        return ds, partition(ds, BinSet.from_edges([0.0, 0.5, 1.0])), pava(np.array([0, 1]))

    for one, twin in zip(holders(), holders()):
        assert one == one and one != twin
        assert len({one, one, twin}) == 2


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([1.2]), np.array([0]))
    with pytest.raises(ValueError):
        Dataset(np.array([-0.1]), np.array([0]))
    with pytest.raises(ValueError):
        Dataset(np.array([0.5]), np.array([2]))
    with pytest.raises(ValueError):
        Dataset(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        Dataset(np.array([0.5, 0.6]), np.array([1]))
    with pytest.raises(ValueError, match="one-dimensional"):
        Dataset(np.array([[0.5]]), np.array([[1]]))
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([np.nan]), np.array([0]))


def test_dataset_arrays_are_read_only():
    ds = Dataset(np.array([0.5]), np.array([1]))
    with pytest.raises(ValueError):
        ds.predictions[0] = 0.9


def test_dataset_copies_the_callers_predictions():
    p = np.array([0.1, 0.9])
    Dataset(p, np.array([0, 1]))
    assert p.flags.writeable
    q = np.array([0.1, 0.9, 0.5])
    ds = Dataset(q[:2], np.array([0, 1]))
    sorted_before = ds.sorted_predictions.tolist()
    q[0] = 0.95
    assert ds.predictions.tolist() == [0.1, 0.9]
    assert ds.sorted_predictions.tolist() == sorted_before == [0.1, 0.9]


def test_bin_and_binset_validation():
    with pytest.raises(ValueError):
        Bin(0.5, 0.5)
    with pytest.raises(ValueError):
        Bin(-0.1, 0.5)
    with pytest.raises(ValueError):
        BinSet.from_edges([0.0, 0.5])  # does not end at 1
    with pytest.raises(ValueError):
        BinSet.from_edges([0.1, 0.5, 1.0])  # does not start at 0
    with pytest.raises(ValueError):
        BinSet.from_edges([0.0, 0.5, 0.5, 1.0])
    # the rules of a bin set built from its bins, not from edges
    for bins, rule in [
        ((), "at least one bin"),
        ((Bin(0.1, 1.0, closed_upper=True),), "start at 0"),
        ((Bin(0.0, 1.0),), "closed at 1"),
        ((Bin(0.0, 0.5, closed_upper=True), Bin(0.5, 1.0, closed_upper=True)), "only the last"),
        ((Bin(0.0, 0.4), Bin(0.5, 1.0, closed_upper=True)), "contiguous"),
    ]:
        with pytest.raises(ValueError, match=rule):
            BinSet(bins)
    # last bin closed, others half-open
    bs = BinSet.from_edges([0.0, 0.4, 1.0])
    assert not bs.bins[0].closed_upper
    assert bs.bins[1].closed_upper
    assert [str(b) for b in bs.bins] == ["[0, 0.4)", "[0.4, 1]"]
