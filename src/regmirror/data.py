"""Datasets: synthetic generation, label corruption, CSV loading.

Classification tasks are encoded as one regression target per class:
the target row for a sample of class c is -1 everywhere and +1 at
position c, and the predicted class is the argmax over heads.
"""

import dataclasses

import numpy as np


@dataclasses.dataclass
class Dataset:
    """Feature matrix X (n, d), regression targets Y, optional class labels.

    Y has shape (n,) for plain regression and (n, classes) for encoded
    classification. ``corrupted_indices`` records which samples had
    their label resampled.
    """

    X: np.ndarray
    Y: np.ndarray
    labels: np.ndarray = None
    corrupted_indices: frozenset = frozenset()

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    @property
    def classes(self):
        return None if self.labels is None else self.Y.shape[1]


def encode_labels(labels, classes):
    """Class indices -> (n, classes) matrix of +/-1 regression targets."""
    y = -np.ones((len(labels), classes))
    y[np.arange(len(labels)), labels] = 1.0
    return y


def label_accuracy(out, labels):
    """Percent of rows of model outputs ``out`` whose argmax head is the label."""
    return 100.0 * float(np.mean(np.argmax(out, axis=1) == labels))


def accuracy(model, w, ds, buffers=None):
    """Percent of samples whose argmax head matches the class label.

    ``buffers`` (from ``model.predict_buffers``) receive the forward pass.
    """
    if ds.labels is None:
        raise ValueError("dataset has no class labels")
    if ds.n == 0:
        return float("nan")
    if buffers is None:
        return label_accuracy(model.batch_predict(w, ds.X), ds.labels)
    return label_accuracy(model.batch_predict(w, ds.X, buffers), ds.labels)


def generate_synthetic(classes, n_train, n_test, d, noise, rng, separation=3.0):
    """Gaussian cluster classification task; returns (train, test).

    Class means are i.i.d. normal scaled to norm ``separation``; samples
    add ``noise``-scaled isotropic Gaussian jitter. Labels are drawn
    uniformly, so cluster sizes vary with the seed.
    """
    if classes < 1 or n_train < 1 or d < 1 or n_test < 0:
        raise ValueError("counts must be positive (n_test may be zero)")
    means = rng.standard_normal((classes, d))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)

    def draw(count):
        labels = rng.integers(0, classes, size=count)
        x = means[labels] + noise * rng.standard_normal((count, d))
        return Dataset(X=x, Y=encode_labels(labels, classes), labels=labels)

    return draw(n_train), draw(n_test)


def corrupt_labels(ds, fraction, classes, rng):
    """Relabel round(fraction*n) samples uniformly over all classes.

    A corrupted sample can keep its original label by chance, so the
    expected wrong-label rate is fraction * (classes-1) / classes.
    Features and the sample order are untouched.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"corruption fraction must be in [0, 1], got {fraction}")
    count = int(round(fraction * ds.n))
    if count == 0:
        return ds
    chosen = rng.choice(ds.n, size=count, replace=False)
    labels = ds.labels.copy()
    labels[chosen] = rng.integers(0, classes, size=count)
    return Dataset(
        X=ds.X,
        Y=encode_labels(labels, classes),
        labels=labels,
        corrupted_indices=frozenset(int(i) for i in chosen),
    )


def load_csv(path):
    """Load a headerless CSV of d feature columns followed by one label."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    return Dataset(X=raw[:, :-1], Y=raw[:, -1])
