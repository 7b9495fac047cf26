"""Dense exact matrices and subspaces over a cyclotomic field.

Everything is Gauss-Jordan over CycNumber with reduction after every step.
Dimensions here are desk scale (<= 64 ambient, a few hundred for symmetrizer
ranks), so dense rows with zero-skipping are fine.
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

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __setitem__(self, ij, v):
        i, j = ij
        self.entries[i][j] = v

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return [r[j] for r in self.entries]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, self.conductor,
                      [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

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

    def apply(self, vec: list) -> list:
        """Matrix times column vector."""
        assert len(vec) == self.cols
        out = [CycNumber.zero(self.conductor)] * self.rows
        for k, v in enumerate(vec):
            if v.is_zero():
                continue
            for i in range(self.rows):
                a = self.entries[i][k]
                if not a.is_zero():
                    out[i] = out[i] + a * v
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

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entries[i][j]
                if i == j:
                    if not e.is_one():
                        return False
                elif not e.is_zero():
                    return False
        return True

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


class EchelonBasis:
    """Incrementally built reduced-row-echelon basis of a subspace."""

    def __init__(self, ambient: int, conductor: int):
        self.ambient = ambient
        self.conductor = conductor
        self.pivots: dict[int, list] = {}  # pivot column -> reduced row

    def reduce(self, vec: list) -> list:
        v = list(vec)
        for c in sorted(self.pivots):
            x = v[c]
            if not x.is_zero():
                row = self.pivots[c]
                v = [a - x * b for a, b in zip(v, row)]
        return v

    def add(self, vec: list) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        for c in range(self.ambient):
            if not v[c].is_zero():
                inv = v[c].inverse()
                v = [inv * a for a in v]
                # back-substitute into existing rows
                for pc, row in self.pivots.items():
                    x = row[c]
                    if not x.is_zero():
                        self.pivots[pc] = [a - x * b for a, b in zip(row, v)]
                self.pivots[c] = v
                return True
        return False

    def contains(self, vec: list) -> bool:
        return all(x.is_zero() for x in self.reduce(vec))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis_rows(self) -> list[list]:
        return [self.pivots[c] for c in sorted(self.pivots)]


def rref_rank_nullspace(m: Matrix):
    """(rref, rank, nullspace) via exact Gauss-Jordan."""
    eb = EchelonBasis(m.cols, m.conductor)
    for r in m.entries:
        eb.add(r)
    rank = eb.dim
    rows = eb.basis_rows()
    rref_rows = rows + [[CycNumber.zero(m.conductor)] * m.cols
                        for _ in range(m.rows - len(rows))]
    rref = Matrix(m.rows, m.cols, m.conductor, rref_rows)
    ns = _nullspace_from_echelon(eb, m.cols, m.conductor)
    return rref, rank, ns


def _nullspace_from_echelon(eb: EchelonBasis, ncols: int, conductor: int) -> "Subspace":
    pivot_cols = sorted(eb.pivots)
    free_cols = [c for c in range(ncols) if c not in eb.pivots]
    zero = CycNumber.zero(conductor)
    one = CycNumber.one(conductor)
    basis = []
    for f in free_cols:
        v = [zero] * ncols
        v[f] = one
        for pc in pivot_cols:
            v[pc] = -eb.pivots[pc][f]
        basis.append(v)
    return Subspace.from_vectors(ncols, conductor, basis)


def nullspace(m: Matrix) -> "Subspace":
    return rref_rank_nullspace(m)[2]


def rank(m: Matrix) -> int:
    return rref_rank_nullspace(m)[1]


def solve(a: Matrix, b: list):
    """One exact solution x of a x = b, or None if inconsistent."""
    assert len(b) == a.rows
    aug = Matrix(a.rows, a.cols + 1, a.conductor,
                 [row + [bv] for row, bv in zip(a.entries, b)])
    eb = EchelonBasis(aug.cols, aug.conductor)
    for r in aug.entries:
        eb.add(r)
    if a.cols in eb.pivots:
        return None  # pivot in augmented column
    zero = CycNumber.zero(a.conductor)
    x = [zero] * a.cols
    for pc, row in eb.pivots.items():
        x[pc] = row[a.cols]
    return x


class Subspace:
    """Subspace of k^n with a canonical reduced-echelon basis."""

    __slots__ = ("ambient_dim", "conductor", "_eb")

    def __init__(self, ambient_dim: int, conductor: int, eb: EchelonBasis):
        self.ambient_dim = ambient_dim
        self.conductor = conductor
        self._eb = eb

    @staticmethod
    def from_vectors(ambient_dim: int, conductor: int, vectors) -> "Subspace":
        eb = EchelonBasis(ambient_dim, conductor)
        for v in vectors:
            eb.add(v)
        return Subspace(ambient_dim, conductor, eb)

    @staticmethod
    def full(ambient_dim: int, conductor: int) -> "Subspace":
        return Subspace.from_vectors(
            ambient_dim, conductor, Matrix.identity(ambient_dim, conductor).entries
        )

    @property
    def dim(self) -> int:
        return self._eb.dim

    def basis(self) -> list[list]:
        return self._eb.basis_rows()

    def basis_matrix(self) -> Matrix:
        rows = self.basis()
        return Matrix(len(rows), self.ambient_dim, self.conductor, rows)

    def contains(self, vec: list) -> bool:
        return self._eb.contains(vec)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        sb, ob = self.basis(), other.basis()
        return all(all(a == b for a, b in zip(ra, rb)) for ra, rb in zip(sb, ob))

    def sum(self, other: "Subspace") -> "Subspace":
        assert self.ambient_dim == other.ambient_dim, "ambient mismatch"
        return Subspace.from_vectors(self.ambient_dim, self.conductor,
                                     self.basis() + other.basis())

    def intersect(self, other: "Subspace") -> "Subspace":
        # (U^perp + V^perp)^perp under the standard pairing
        assert self.ambient_dim == other.ambient_dim, "ambient mismatch"
        up = self.perp()
        vp = other.perp()
        return up.sum(vp).perp()

    def perp(self, pairing: Matrix | None = None) -> "Subspace":
        """Vectors v with u.B.v = 0 for all u in the subspace (B defaults to identity)."""
        rows = self.basis()
        if not rows:
            return Subspace.full(self.ambient_dim, self.conductor)
        m = Matrix(len(rows), self.ambient_dim, self.conductor, rows)
        if pairing is not None:
            m = m * pairing
        return nullspace(m)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def bilinear_closure(space: Subspace, product) -> Subspace:
    """Smallest subspace containing `space` closed under the bilinear map.

    `product(u, v)` takes two coefficient vectors and returns one.  Terminates
    because dimensions are bounded by the ambient space.
    """
    eb = EchelonBasis(space.ambient_dim, space.conductor)
    for v in space.basis():
        eb.add(v)
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
