"""Exact matrices, subspaces and elimination over a cyclotomic field.

A vector is sparse, {index: nonzero value}.  Every linear map (the antipode,
a Hopf map, a braiding, the action of an algebra element on a module or of a
group element in an irrep) is kept as sparse columns, column j the image of
the j-th basis vector; maps compose with `compose_columns`, and
`combine_columns` gives the columns of a linear combination sum c_k A_k.
`identity_columns` and `trace` complete that form, and `outer` gives the
sparse tensor {(i, j): value} of a sum of u (x) v.  Every subspace runs
through one incremental Gauss-Jordan core, `EchelonBasis`, which keeps each
reduced row sparse, so a row update touches only nonzero entries.  A
`Subspace` is such a basis and hands its vectors out as sparse dicts; its
`perp` is read off the free columns of the reduced rows.  No linear system
is solved here: a bosonization's Delta and S come from the images of y and
of L (`ydnichols.bosonize`), with no inverse to solve for.  A rank needs no
reduced form: it runs through `independent`, a row-echelon elimination that
normalises no pivot and back-substitutes into no row.  `accumulate` is the
one "add into a sparse dict, drop the key if it cancels" step that every
sparse loop in the package shares, and `add_scaled` adds a multiple of a
sparse column with no product by a factor that is the canonical
CycNumber.one(N).

`Matrix` is dense and is only the input of `rank` and `nullspace`
(`jacobson_radical`'s Gram matrix) and the quantum symmetrizer columns that
`ydnichols.symmetrizer` builds, v^n rows (about 2000 at most under the
default memory guard) by the columns that `nichols_dims` ranks, which only
perfbench's tracer reads.  It stays dense because the tracer reads the
`rows`, `cols` and `entries` of those, and it keeps `__mul__`, which no code
here calls, because the tracer wraps that method by name.  The hand-off to
the elimination skips the Matrix's shared zero fill untested.  There is no
dense `solve` and no `kron`: the tests keep their own dense oracles.
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

    def __mul__(self, other: "Matrix") -> "Matrix":
        # unused here; perfbench's tracer wraps it by name (see the module docstring)
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

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, conductor {self.conductor})"


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


def add_scaled(acc: dict, col: dict, c: CycNumber, one: CycNumber) -> None:
    """acc += c col on sparse dicts, col holding no zero; one is CycNumber.one(N).

    A factor that `is one` costs no product, and an empty acc takes a copy of
    col when c is one.
    """
    if c is one:
        if not acc:
            acc.update(col)
            return
        for k, x in col.items():
            accumulate(acc, k, x)
    else:
        for k, x in col.items():
            accumulate(acc, k, c if x is one else c * x)


def outer(*terms) -> dict:
    """Sum of u (x) v over the (u, v) terms, sparse vectors, as a sparse tensor {(i, j): value}."""
    out: dict = {}
    for u, v in terms:
        for i, a in u.items():
            for j, b in v.items():
                accumulate(out, (i, j), a * b)
    return out


def compose_columns(a: list, b: list) -> list:
    """a . b for linear maps given as lists of sparse columns {row: nonzero value}."""
    out = []
    one = None
    for col in b:
        acc: dict = {}
        for m, c in col.items():
            if one is None:
                one = CycNumber.one(c.conductor)
            add_scaled(acc, a[m], c, one)
        out.append(acc)
    return out


def combine_columns(maps: list, vec: dict) -> list:
    """The columns of sum c_k maps[k] over vec = {k: c}, each map a list of sparse columns.

    A basis vector {k: CycNumber.one(N)} gives maps[k] itself, a read-only
    alias: hopf.multiplicative_over only compares it and hands it to
    compose_columns.
    """
    if len(vec) == 1:
        (k, c), = vec.items()
        if c is CycNumber.one(c.conductor):
            return maps[k]
    out = [{} for _ in maps[0]]
    one = None
    for k, c in vec.items():
        if one is None:
            one = CycNumber.one(c.conductor)
        for acc, col in zip(out, maps[k]):
            add_scaled(acc, col, c, one)
    return out


def identity_columns(n: int, conductor: int) -> list:
    """The identity map on k^n as sparse columns."""
    one = CycNumber.one(conductor)
    return [{j: one} for j in range(n)]


def trace(cols: list, zero: CycNumber) -> CycNumber:
    """The trace of a square map given as sparse columns; zero is the field's 0."""
    return sum((col[j] for j, col in enumerate(cols) if j in col), zero)


def _sparse(vec) -> dict:
    """A dense list or a {column: value} dict as a dict of its nonzero entries;
    a cell that is the shared CycNumber.zero(N), a Matrix's fill, goes untested."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    zero = CycNumber.zero(vec[0].conductor) if isinstance(vec, list) and vec else None
    return {c: x for c, x in items if x is not zero and not x.is_zero()}


def _eliminate(v: dict, c: int, row: dict, one: CycNumber, inv: CycNumber | None = None) -> None:
    """v -= v[c] inv row, for a row whose entry at c has the inverse inv (None
    for a 1 there); one is CycNumber.one(N).  v[c] is popped, not computed."""
    f = -v.pop(c)
    if inv is not None:
        f = f * inv
    for k, b in row.items():
        if k != c:
            accumulate(v, k, f if b is one else f * b)


class EchelonBasis:
    """Incrementally built reduced-row-echelon basis of a subspace.

    Each reduced row is a sparse dict {column: nonzero CycNumber}: 1 at its
    pivot column, and no entry at any other pivot column.  Vectors go in as
    dense lists or as such dicts.
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}  # pivot column -> reduced row

    def reduce(self, vec) -> dict:
        """vec minus its part along the basis, as a sparse dict."""
        v = _sparse(vec)
        # a reduced row vanishes on the other pivots, so each v[c] is final;
        # the row's 1 at c cancels v[c], which is popped instead
        for c in [c for c in v if c in self.pivots]:
            row = self.pivots[c]
            _eliminate(v, c, row, row[c])
        return v

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        c = min(v)
        lead = v[c]
        one = CycNumber.one(lead.conductor)
        if lead is not one:
            inv = lead.inverse()
            v = {k: inv * a for k, a in v.items()}
            v[c] = one
        # back-substitute into existing rows
        for row in self.pivots.values():
            if c in row:
                _eliminate(row, c, v, one)
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


def independent(vectors) -> list[int]:
    """The indices of the vectors outside the span of those before them; as
    many as the rank.

    Row-echelon form, with none of `EchelonBasis`'s normalising: a kept row
    keeps its leading value and never clears the rows before it.  A vector
    is reduced only until its least index is no kept row's pivot, which
    already proves it independent, and it is kept as it stands.  A pivot's
    inverse is taken only when a later vector is reduced against that pivot.
    """
    rows: dict = {}  # pivot -> kept row, whose least index it is
    one = None
    out = []
    for i, vec in enumerate(vectors):
        v = _sparse(vec)
        while v:
            c = min(v)
            row = rows.get(c)
            if row is None:
                rows[c] = v
                out.append(i)
                break
            lead = row[c]
            if one is None:
                one = CycNumber.one(lead.conductor)
            _eliminate(v, c, row, one, None if lead is one else lead.inverse())
    return out


def rank(m: Matrix) -> int:
    return len(independent(m.entries))


def nullspace(m: Matrix) -> "Subspace":
    return Subspace.from_vectors(m.cols, m.conductor, m.entries).perp()


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
