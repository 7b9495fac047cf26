"""Shared, cached catalog builds: constructors are pure, so tests reuse them."""

from functools import lru_cache

from hopfkit import catalog
from hopfkit.cyclotomic import CycNumber
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


# -- dense oracles: the package keeps linear maps as sparse columns ----------


def identity_matrix(n, conductor):
    """The dense n x n identity."""
    m = Matrix(n, n, conductor)
    for i in range(n):
        m.entries[i][i] = CycNumber.one(conductor)
    return m


def dense(cols, conductor, rows=None):
    """The dense matrix of a map given as sparse columns, square unless rows is given."""
    m = Matrix(len(cols) if rows is None else rows, len(cols), conductor)
    for j, col in enumerate(cols):
        for i, x in col.items():
            m.entries[i][j] = x
    return m


def columns(m):
    """The sparse columns of a dense matrix."""
    return [{i: m.entries[i][j] for i in range(m.rows) if not m.entries[i][j].is_zero()}
            for j in range(m.cols)]


def dense_trace(m):
    return sum((m.entries[i][i] for i in range(m.rows)), CycNumber.zero(m.conductor))


def word_product(word, mats, dim, conductor):
    """The dense product mats[w_1] mats[w_2] ... along the whole word, from the
    identity, handed back as sparse columns; mats are sparse columns too."""
    m = identity_matrix(dim, conductor)
    for letter in word:
        m = m * dense(mats[letter], conductor, dim)
    return columns(m)


def power(x, n, one):
    """x^n by n multiplications from `one`: the tests' reference for powers."""
    out = one
    for _ in range(n):
        out = out * x
    return out


def left_mult_matrix(h, u):
    """The dense matrix of e_j -> u e_j; column j holds the coefficients of u e_j."""
    m = Matrix(h.dim, h.dim, h.conductor)
    for j in range(h.dim):
        for i, c in h.mult_dict(u, h.basis_dict(j)).items():
            m.entries[i][j] = c
    return m


def kron(a, b):
    """Kronecker product of dense matrices; acts on the tensor basis e_i (x) e_j."""
    out = Matrix(a.rows * b.rows, a.cols * b.cols, a.conductor)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.entries[i][j]
            if aij.is_zero():
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    bkl = b.entries[k][l]
                    if not bkl.is_zero():
                        out.entries[i * b.rows + k][j * b.cols + l] = aij * bkl
    return out


def same_tensors(a, b) -> bool:
    """Bit-exact comparison of two algebras' structure tensors, ignoring labels."""
    return ((a.dim, a.conductor, a.unit, a.counit, a.comult, a.antipode)
            == (b.dim, b.conductor, b.unit, b.counit, b.comult, b.antipode)
            and all(list(x) == list(y) for x, y in zip(a.mult, b.mult)))
