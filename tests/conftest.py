"""Shared, cached catalog builds: constructors are pure, so tests reuse them."""

from functools import lru_cache

from hopfkit import catalog
from hopfkit.linalg import Matrix


@lru_cache(maxsize=None)
def _build(name, items):
    return catalog.build_family(name, dict(items))


def build(name, **params):
    """Cached (HopfAlgebraData, CandidateData) for a family."""
    return _build(name, tuple(sorted(params.items())))


def qline(q):
    """The braiding c(e_0 (x) e_0) = q e_0 (x) e_0 of a quantum line, as sparse columns."""
    return {(0, 0): {(0, 0): q}}


def word_product(word, mats, dim, conductor):
    """mats[w_1] * mats[w_2] * ... along the whole word, from the identity."""
    m = Matrix.identity(dim, conductor)
    for letter in word:
        m = m * mats[letter]
    return m
