import numpy as np
import pytest

from banditseq.model import ModelParams


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def tiny_params(vocab_size=6, embed_size=3, hidden_size=4, seed=0):
    """A 6-id model (3 reserved + 3 regular tokens) small enough for
    finite differences and exhaustive enumeration."""
    return ModelParams(vocab_size, embed_size=embed_size,
                       hidden_size=hidden_size, seed=seed)


def random_source(rng, vocab_size=6, length=3):
    return [int(t) for t in rng.integers(3, vocab_size, size=length)]


def max_abs_diff(a, b):
    return max(float(np.max(np.abs(a[k] - b[k]))) for k in a)


def max_abs(grads):
    return max(float(np.max(np.abs(g))) for g in grads.values())


def relative_gap(got, want):
    """Global relative difference between two gradient maps."""
    num = max_abs_diff(got, want)
    den = max(max_abs(want), 1e-12)
    return num / den


def antithetic_variance_identity(x1, x2):
    """Empirical check quantities for the averaged-pair estimator: returns
    ``(var of (x1+x2)/2, (var x1 + var x2 + 2 cov) / 4)`` using population
    moments, for which the identity is exact."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    lhs = np.var((x1 + x2) / 2.0)
    cov = np.mean((x1 - x1.mean()) * (x2 - x2.mean()))
    rhs = 0.25 * (np.var(x1) + np.var(x2) + 2.0 * cov)
    return float(lhs), float(rhs)
