"""Seeded generators for the two synthetic benchmark datasets.

Reproducibility contract: the PRNG is numpy's PCG64 (`numpy.random.default_rng`),
Gaussian draws use `Generator.normal` (ziggurat).  Train and test splits are
generated from independently spawned SeedSequence children of the dataset
seed, so changing the test size never perturbs the training draw.  Identical
SimSpec values yield bit-identical datasets within a pinned numpy version;
cross-language bit-exactness is not a goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class PairedDataset:
    """N aligned rows of (x, y) samples, with optional integer class labels."""

    x: np.ndarray
    y: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise InputError(
                f"x and y row counts differ: {self.x.shape[0]} vs {self.y.shape[0]}"
            )
        if self.labels is not None and self.labels.shape[0] != self.x.shape[0]:
            raise InputError("labels length does not match sample count")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise InputError("x and y must be finite (found nan or inf)")

    @property
    def n(self):
        return self.x.shape[0]


@dataclass(frozen=True)
class SimSpec:
    scenario: str
    n_train: int
    n_test: int
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in ("sim1", "sim2"):
            raise InputError(f"unknown scenario {self.scenario!r}")
        if self.n_train < 1 or self.n_test < 1:
            raise InputError("sample counts must be >= 1")
        if self.noise_std < 0:
            raise InputError("noise_std must be >= 0")


def _sim1_draw(rng, n, noise_std):
    theta = rng.uniform(-np.pi, np.pi, n)
    x = np.stack([theta, np.sin(3.0 * theta)], axis=1)
    x = x + rng.normal(0.0, noise_std, (n, 2))
    y = np.exp(theta / 4.0)[:, None] * np.stack(
        [np.cos(2.0 * theta), np.sin(2.0 * theta)], axis=1
    )
    y = y + rng.normal(0.0, noise_std, (n, 2))
    return PairedDataset(x=x, y=y), theta


def gen_sim1(spec):
    """Noisy curve pair driven by a shared angle theta ~ U[-pi, pi].

    x = (theta, sin 3*theta) + eps1, y = exp(theta/4) (cos 2*theta, sin 2*theta) + eps2,
    eps iid Gaussian with std spec.noise_std.  Returns (train, test,
    (train_thetas, test_thetas)), the angles that drew each split.
    """
    if spec.scenario != "sim1":
        raise InputError("gen_sim1 requires scenario='sim1'")
    train_ss, test_ss = np.random.SeedSequence(spec.seed).spawn(2)
    train, theta_train = _sim1_draw(np.random.default_rng(train_ss), spec.n_train, spec.noise_std)
    test, theta_test = _sim1_draw(np.random.default_rng(test_ss), spec.n_test, spec.noise_std)
    return train, test, (theta_train, theta_test)


def gen_sim2(spec):
    """Class-center data: n_train centers uniform on [0,1]^2 per side, paired
    by draw order; each test sample picks a class uniformly at random and adds
    iid Gaussian noise to both centers.  Test labels record the class.
    """
    if spec.scenario != "sim2":
        raise InputError("gen_sim2 requires scenario='sim2'")
    center_ss, test_ss = np.random.SeedSequence(spec.seed).spawn(2)
    rng = np.random.default_rng(center_ss)
    x_centers = rng.uniform(0.0, 1.0, (spec.n_train, 2))
    y_centers = rng.uniform(0.0, 1.0, (spec.n_train, 2))
    train = PairedDataset(x=x_centers, y=y_centers, labels=np.arange(spec.n_train))

    rng = np.random.default_rng(test_ss)
    classes = rng.integers(0, spec.n_train, spec.n_test)
    x_test = x_centers[classes] + rng.normal(0.0, spec.noise_std, (spec.n_test, 2))
    y_test = y_centers[classes] + rng.normal(0.0, spec.noise_std, (spec.n_test, 2))
    test = PairedDataset(x=x_test, y=y_test, labels=classes)
    return train, test
