"""Exact matrices, subspaces and elimination over a cyclotomic field.

A vector is sparse, {index: nonzero value}.  A linear map on an algebra's
basis or on V (x) V (the antipode, a Hopf map, a braiding) is kept as sparse
columns, column j the image of the j-th basis vector, and maps compose with
`compose_columns`.  All elimination runs through one incremental Gauss-Jordan
core, `EchelonBasis`, which keeps each reduced row sparse, so a row update
touches only nonzero entries.  A `Subspace` is such a basis and hands its
vectors out as sparse dicts; its `perp` is read off the free columns of the
reduced rows.  `Matrix` is dense and serves the rest: module and group-irrep
actions, which are small, and the input of `rank`, `nullspace` and `solve`.
The largest matrices are the v^n x v^n quantum symmetrizers whose ranks give
Nichols dimensions (about 2000 rows at most under the default memory guard;
`ydnichols` builds them column by column and stores them here only for
`rank`).  `accumulate` is the one "add into a sparse dict, drop the key if it
cancels" step that every sparse loop in the package shares.  `kron` is kept
as the tests' dense reference for braid operators.
"""

from __future__ import annotations

from .cyclotomic import CycNumber


class Matrix:
    __slots__ = ("rows", "cols", "conductor", "entries")

    def __init__(self, rows: int, cols: int, conductor: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.conductor = conductor
        if entries is None:
            z = CycNumber.zero(conductor)
            self.entries = [[z] * cols for _ in range(rows)]
        else:
            self.entries = [list(r) for r in entries]
            assert len(self.entries) == rows
            assert all(len(r) == cols for r in self.entries)

    @staticmethod
    def identity(n: int, conductor: int) -> "Matrix":
        m = Matrix(n, n, conductor)
        one = CycNumber.one(conductor)
        for i in range(n):
            m.entries[i][i] = one
        return m

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.rows, self.cols, self.conductor,
                      [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.rows, self.cols, self.conductor,
                      [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def scale(self, c) -> "Matrix":
        return Matrix(self.rows, self.cols, self.conductor,
                      [[c * a for a in r] for r in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        assert self.cols == other.rows, "dimension mismatch"
        out = Matrix(self.rows, other.cols, self.conductor)
        oe = out.entries
        for i in range(self.rows):
            arow = self.entries[i]
            orow = oe[i]
            for k in range(self.cols):
                a = arow[k]
                if a.is_zero():
                    continue
                brow = other.entries[k]
                for j in range(other.cols):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + a * b
        return out

    def __pow__(self, n: int) -> "Matrix":
        assert self.rows == self.cols and n >= 0
        out = Matrix.identity(self.rows, self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.entries for e in r)

    def trace(self) -> CycNumber:
        assert self.rows == self.cols
        t = CycNumber.zero(self.conductor)
        for i in range(self.rows):
            t = t + self.entries[i][i]
        return t

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, conductor {self.conductor})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; acts on the tensor basis e_i (x) e_j."""
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


def extend_along_prefixes(words, empty, step) -> list:
    """The value of each word, where () has value `empty` and w + (g,) has step(value of w, g).

    Each word starts from the value of its longest prefix among the words
    before it (at worst the empty word) and steps through the letters after
    that prefix.  On a prefix-closed list in which every word follows its
    prefixes, such as the normal monomials of a catalog presentation, that
    is one step per word; any other list costs at most one step per letter.
    """
    built = {(): empty}
    out = []
    for word in words:
        word = tuple(word)
        k = len(word)
        while word[:k] not in built:
            k -= 1
        value = built[word[:k]]
        for letter in word[k:]:
            value = step(value, letter)
        built[word] = value
        out.append(value)
    return out


def accumulate(d: dict, key, v: CycNumber) -> None:
    """d[key] += v on a sparse dict, dropping the key when the sum cancels."""
    s = d.get(key)
    s = v if s is None else s + v
    if s.is_zero():
        d.pop(key, None)
    else:
        d[key] = s


def compose_columns(a: list, b: list) -> list:
    """a . b for linear maps given as lists of sparse columns {row: nonzero value}."""
    out = []
    for col in b:
        acc: dict = {}
        for m, c in col.items():
            for x, cx in a[m].items():
                accumulate(acc, x, c * cx)
        out.append(acc)
    return out


def _sparse(vec) -> dict:
    """A dense list or a {column: value} dict as a dict of its nonzero entries."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {c: x for c, x in items if not x.is_zero()}


class EchelonBasis:
    """Incrementally built reduced-row-echelon basis of a subspace.

    Each reduced row is a sparse dict {column: nonzero CycNumber}: 1 at its
    pivot column, and no entry at any other pivot column.  Vectors go in as
    dense lists or as such dicts.
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}  # pivot column -> reduced row
        # (num, den) of a pivot value -> its inverse: an elimination meets few
        # distinct pivots, and hashing the pair is cheaper than a CycNumber hash
        self._inverses: dict = {}

    def reduce(self, vec) -> dict:
        """vec minus its part along the basis, as a sparse dict."""
        v = _sparse(vec)
        # a reduced row vanishes on the other pivots, so each v[c] is final
        for c in [c for c in v if c in self.pivots]:
            f = -v[c]
            for k, b in self.pivots[c].items():
                accumulate(v, k, f * b)
        return v

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        c = min(v)
        lead = v[c]
        key = (lead.num, lead.den)
        inv = self._inverses.get(key)
        if inv is None:
            inv = self._inverses[key] = lead.inverse()
        v = {k: inv * a for k, a in v.items()}
        # back-substitute into existing rows
        for row in self.pivots.values():
            x = row.get(c)
            if x is not None:
                f = -x
                for k, b in v.items():
                    accumulate(row, k, f * b)
        self.pivots[c] = v
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis_rows(self) -> list[dict]:
        """Copies of the reduced rows in pivot order: `add` updates the stored rows in place."""
        return [dict(self.pivots[c]) for c in sorted(self.pivots)]


def _echelon(vectors) -> EchelonBasis:
    eb = EchelonBasis()
    for v in vectors:
        eb.add(v)
    return eb


def rank(m: Matrix) -> int:
    return _echelon(m.entries).dim


def nullspace(m: Matrix) -> "Subspace":
    return Subspace.from_vectors(m.cols, m.conductor, m.entries).perp()


def solve_augmented(rows, nvars: int):
    """One exact solution of a sparse system, or None if it is inconsistent.

    Each row is a dict over the columns 0..nvars, column nvars holding the
    right-hand side.  Free variables are set to zero; the result is a dict
    {variable: value} of the nonzero values.
    """
    # short rows first keep fill-in low
    eb = _echelon(sorted(rows, key=len))
    if nvars in eb.pivots:
        return None  # pivot in augmented column
    return {pc: row[nvars] for pc, row in eb.pivots.items() if nvars in row}


def solve(a: Matrix, b: list):
    """One exact solution x of a x = b, or None if inconsistent."""
    assert len(b) == a.rows
    rows = []
    for row, bv in zip(a.entries, b):
        r = _sparse(row)
        if not bv.is_zero():
            r[a.cols] = bv
        rows.append(r)
    sol = solve_augmented(rows, a.cols)
    if sol is None:
        return None
    zero = CycNumber.zero(a.conductor)
    return [sol.get(j, zero) for j in range(a.cols)]


class Subspace:
    """Subspace of k^n with a canonical reduced-echelon basis.

    Vectors go in as dense lists or sparse dicts and come out as sparse dicts.
    """

    __slots__ = ("ambient_dim", "conductor", "_eb")

    def __init__(self, ambient_dim: int, conductor: int, eb: EchelonBasis):
        self.ambient_dim = ambient_dim
        self.conductor = conductor
        self._eb = eb

    @staticmethod
    def from_vectors(ambient_dim: int, conductor: int, vectors) -> "Subspace":
        return Subspace(ambient_dim, conductor, _echelon(vectors))

    @property
    def dim(self) -> int:
        return self._eb.dim

    def basis(self) -> list[dict]:
        return self._eb.basis_rows()

    def contains(self, vec) -> bool:
        return self._eb.contains(vec)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._eb.pivots == other._eb.pivots

    def perp(self) -> "Subspace":
        """Vectors v with sum_i u_i v_i = 0 for every u in the subspace.

        One kernel vector per free column f: 1 at f, minus row[f] at each
        pivot whose reduced row has an entry at f.
        """
        pivots = self._eb.pivots
        one = CycNumber.one(self.conductor)
        kernel = []
        for f in range(self.ambient_dim):
            if f not in pivots:
                v = {f: one}
                for pc, row in pivots.items():
                    if f in row:
                        v[pc] = -row[f]
                kernel.append(v)
        return Subspace.from_vectors(self.ambient_dim, self.conductor, kernel)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def bilinear_closure(space: Subspace, product) -> Subspace:
    """Smallest subspace containing `space` closed under the bilinear map.

    `product(u, v)` takes two coefficient vectors and returns one.  Terminates
    because dimensions are bounded by the ambient space.
    """
    eb = _echelon(space.basis())
    while True:
        base = eb.basis_rows()
        grew = False
        for u in base:
            for v in base:
                if eb.add(product(u, v)):
                    grew = True
        if not grew:
            # final round saw the whole basis, so the span is closed
            return Subspace(space.ambient_dim, space.conductor, eb)
