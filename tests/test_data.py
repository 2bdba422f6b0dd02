import numpy as np
import pytest

from regmirror.data import Dataset, accuracy, corrupt_labels, encode_labels, generate_synthetic
from regmirror.numerics import rng_stream


class TestGenerateSynthetic:
    def test_same_seed_identical(self):
        a_tr, a_te = generate_synthetic(3, 40, 20, 5, 0.5, rng_stream(7))
        b_tr, b_te = generate_synthetic(3, 40, 20, 5, 0.5, rng_stream(7))
        assert np.array_equal(a_tr.X, b_tr.X)
        assert np.array_equal(a_tr.labels, b_tr.labels)
        assert np.array_equal(a_te.X, b_te.X)

    def test_shapes_and_encoding(self):
        tr, te = generate_synthetic(4, 30, 10, 6, 0.1, rng_stream(1))
        assert tr.X.shape == (30, 6) and tr.Y.shape == (30, 4)
        assert te.n == 10
        assert np.all(np.sum(tr.Y == 1.0, axis=1) == 1)
        assert np.all(np.sum(tr.Y == -1.0, axis=1) == 3)

    def test_empty_test_set(self):
        _, te = generate_synthetic(2, 10, 0, 3, 0.1, rng_stream(2))
        assert te.n == 0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 10, 10, 3, 0.1, rng_stream(0))


class TestCorruptLabels:
    def _dataset(self, n, classes, seed):
        tr, _ = generate_synthetic(classes, n, 0, 4, 0.2, rng_stream(seed))
        return tr

    def test_zero_fraction_is_identity(self):
        ds = self._dataset(50, 3, 1)
        out = corrupt_labels(ds, 0.0, 3, rng_stream(9))
        assert out is ds
        assert out.corrupted_indices == frozenset()

    def test_exact_count(self):
        ds = self._dataset(1000, 10, 2)
        out = corrupt_labels(ds, 0.25, 10, rng_stream(3))
        assert len(out.corrupted_indices) == 250

    def test_full_corruption_wrong_rate(self):
        ds = self._dataset(10_000, 10, 4)
        out = corrupt_labels(ds, 1.0, 10, rng_stream(5))
        wrong = float(np.mean(out.labels != ds.labels))
        assert abs(wrong - 0.9) < 0.03

    def test_features_untouched_and_targets_reencoded(self):
        ds = self._dataset(200, 5, 6)
        out = corrupt_labels(ds, 0.3, 5, rng_stream(7))
        assert out.X is ds.X
        assert np.array_equal(out.Y, encode_labels(out.labels, 5))
        untouched = sorted(set(range(200)) - out.corrupted_indices)
        assert np.array_equal(out.labels[untouched], ds.labels[untouched])

    def test_fraction_out_of_range(self):
        ds = self._dataset(10, 2, 8)
        with pytest.raises(ValueError):
            corrupt_labels(ds, 1.5, 2, rng_stream(0))


class TestAccuracy:
    def test_perfect_and_empty(self):
        labels = np.array([0, 1])
        ds = Dataset(X=np.eye(2), Y=encode_labels(labels, 2), labels=labels)

        class ArgmaxModel:
            def batch_predict(self, w, xs, buffers):
                return xs

        assert accuracy(ArgmaxModel(), None, ds) == 100.0
        empty = Dataset(X=np.zeros((0, 2)), Y=np.zeros((0, 2)),
                        labels=np.zeros(0, dtype=int))
        assert np.isnan(accuracy(ArgmaxModel(), None, empty))

