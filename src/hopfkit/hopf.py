"""Finite-dimensional Hopf algebras as exact structure tensors.

A HopfAlgebraData holds multiplication (a dense table of sparse coefficient
dicts), comultiplication (comult[i] is Delta(e_i) as a sparse tensor
{(j, k): nonzero value}), the unit (a sparse vector), the counit (a dense
functional) and the antipode, all over one cyclotomic conductor.  A vector
of H is a sparse dict {index: nonzero value}, like every vector in the
package: products come from mult_dict, coproducts from delta_dict, the
counit from counit_of, and is_grouplike, inverse and order take such a
dict.  Every linear map on the basis (the antipode, the left
multiplications of the associativity check, a Hopf map into another
algebra) is a list of sparse columns {row: nonzero value},
column j the image of e_j, and maps compose with linalg.compose_columns; so
Tr(S^2), ord S and ord S^2 come from composed columns.  Constructors only
build the tensors and never verify them; each command runs verify_hopf()
once on every structure it reports on, so the verifiers here are the
soundness backstop for every generator-and-relations construction in the
catalog.  Every "f(xy) = f(x)f(y)" check in the package (associativity,
Delta and eps, module actions, characters, Hopf maps) runs through the one
pair loop in multiplicative(), and basis images are read straight off the
tables: a basis vector {i: CycNumber.one(N)} has h.mult[i] as its left
multiplication, and the kernels (mult_dict, delta_dict, tensor_mult,
linalg.compose_columns) take no product with a factor that is the canonical 1.

That loop runs over the pairs (e_i, a) with a in generators(h), a certified
set of basis elements generating h as a unital associative algebra (Light's
test, Clifford-Preston I, 1.2).  generators() establishes associativity once
per algebra, so verify_algebra() has nothing left to check when it succeeds;
when it cannot certify a smaller set it returns every index, and each check
is then the all-pairs check it replaces.  The coalgebra and antipode laws
are checked on generators(h) too, and the bialgebra law on the sparser of h
and dual(h), as multiplicative() describes; a failed premise or a witness
falls back to the check on every basis element, so reports are unchanged.
Where dual(h) is the sparser side, a proper generators(dual(h)) already
certifies the coalgebra laws, and verify_coalgebra checks nothing more.
"""

from __future__ import annotations

import operator
import weakref
from functools import wraps

from .cyclotomic import CycNumber
from .linalg import (EchelonBasis, accumulate, add_scaled, combine_columns, compose_columns,
                     identity_columns, outer, solve_augmented, trace)

MAX_FAILURES = 5


class VerifyReport:
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: list[str] | None = None):
        self.ok = ok
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if not isinstance(other, VerifyReport):
            return NotImplemented
        return self.ok == other.ok and self.failures == other.failures

    def __bool__(self):
        return self.ok

    def merge(self, other: "VerifyReport") -> "VerifyReport":
        return VerifyReport(self.ok and other.ok, self.failures + other.failures)


class HopfAlgebraData:
    """Structure tensors on a fixed basis, plus the derived objects computed from them.

    Functions decorated with ``memoised`` (the generators, the powers of the
    Jacobson radical, the coradical) and ``dual`` keep their result in ``_derived``, so
    the structure tensors must not change after the first analysis call.  Constructors may still
    fill them in before that, as ``bosonize`` does with the antipode.
    """

    __slots__ = ("dim", "conductor", "labels", "mult", "unit", "comult", "counit", "antipode",
                 "_derived", "__weakref__")

    def __init__(self, dim, conductor, labels, mult, unit, comult, counit, antipode):
        self.dim = dim
        self.conductor = conductor
        self.labels = list(labels)
        # mult[i][j]: e_i e_j as a dict index -> CycNumber, zero entries omitted
        self.mult = mult
        self.unit = unit  # dict index -> CycNumber, zero entries omitted
        # comult[i]: Delta(e_i) as a dict (j, k) -> CycNumber, zero entries omitted
        self.comult = comult
        self.counit = list(counit)  # dense coefficient vector
        # antipode[j]: S(e_j) as a dict index -> CycNumber, zero entries omitted
        self.antipode = antipode
        self._derived = {}  # function name -> result, filled by memoised and dual

    # -- small helpers ---------------------------------------------------

    def zero(self) -> CycNumber:
        return CycNumber.zero(self.conductor)

    def one(self) -> CycNumber:
        return CycNumber.one(self.conductor)

    def basis_dict(self, i: int) -> dict:
        return {i: self.one()}

    def mult_dict(self, u: dict, v: dict) -> dict:
        out: dict[int, CycNumber] = {}
        one = self.one()
        for i, a in u.items():
            row = self.mult[i]
            for j, b in v.items():
                ab = b if a is one else a if b is one else a * b
                if ab.is_zero():
                    continue
                add_scaled(out, row[j], ab, one)
        return out

    def delta_dict(self, u: dict) -> dict:
        out: dict[tuple[int, int], CycNumber] = {}
        one = self.one()
        for i, a in u.items():
            add_scaled(out, self.comult[i], a, one)
        return out

    def tensor_mult(self, t1: dict, t2: dict) -> dict:
        """Componentwise product on H (x) H for sparse tensor dicts."""
        out: dict[tuple[int, int], CycNumber] = {}
        one = self.one()
        for (a, b), c1 in t1.items():
            rowa = self.mult[a]
            rowb = self.mult[b]
            for (c, d), c2 in t2.items():
                cc = c2 if c1 is one else c1 if c2 is one else c1 * c2
                if cc.is_zero():
                    continue
                right = rowb[d]
                for x, cx in rowa[c].items():
                    f = cx if cc is one else cc if cx is one else cc * cx
                    for y, cy in right.items():
                        accumulate(out, (x, y), cy if f is one else f if cy is one else f * cy)
        return out

    def counit_of(self, u: dict) -> CycNumber:
        e = self.zero()
        one = self.one()
        for i, a in u.items():
            c = self.counit[i]
            e = e + (c if a is one else c * a)
        return e

    def antipode_dict(self, u: dict) -> dict:
        return compose_columns(self.antipode, [u])[0]

    def __repr__(self):
        return f"HopfAlgebraData(dim {self.dim}, conductor {self.conductor})"


def is_grouplike(h: HopfAlgebraData, u: dict) -> bool:
    """eps(u) = 1 and Delta u = u (x) u, for a sparse vector u of h."""
    if not h.counit_of(u).is_one():
        return False
    return h.delta_dict(u) == outer((u, u))


def inverse(h: HopfAlgebraData, u: dict):
    """The two-sided inverse of a sparse vector u of h, by linear solve, or None.

    Solves u x = 1 on the sparse rows of left multiplication by u: row i
    holds (u e_j)_i at column j and the unit's i-th coefficient at dim.
    """
    rows = [{} for _ in range(h.dim)]
    for j in range(h.dim):
        for i, c in h.mult_dict(u, h.basis_dict(j)).items():
            rows[i][j] = c
    for i, c in h.unit.items():
        rows[i][h.dim] = c
    x = solve_augmented(rows, h.dim)
    if x is None or h.mult_dict(x, u) != h.unit:
        return None
    return x


def order(h: HopfAlgebraData, u: dict, bound: int = 10_000):
    """Multiplicative order of a sparse vector u of h, or None past the bound."""
    return least_power(u, lambda x: x == h.unit, bound, h.mult_dict)


def least_power(x, is_one, bound: int = 10_000, mul=operator.mul):
    """Least n >= 1 with is_one(x^n), or None past the bound; x^(n+1) = mul(x^n, x)."""
    acc = x
    for n in range(1, bound + 1):
        if is_one(acc):
            return n
        acc = mul(acc, x)
    return None


def memoised(fn):
    """Keep fn(h) on h, so it is computed once per algebra."""
    key = fn.__name__

    @wraps(fn)
    def cached(h):
        derived = h._derived
        if key not in derived:
            derived[key] = fn(h)
        return derived[key]

    return cached


# -- verifiers -----------------------------------------------------------


def multiplicative(h: HopfAlgebraData, image, mul, one) -> list:
    """Witnesses that the linear map `image` out of h is not unital and multiplicative.

    image takes a sparse coefficient dict of h, mul multiplies two images and
    one is the image 1 must have; mul must be associative with one as a right
    identity (matrices, scalars, H (x) H for an associative H).  The pairs
    checked are (i, a), a in generators(h).  That suffices: when generators(h)
    is a proper subset A, h is associative with unit 1 and spanned by the
    right products 1 a_1 ... a_r, and S = {y : image(xy) = image(x) image(y)
    for all x} contains 1 and A and is closed under right multiplication by
    A, since image(x (y a)) = image((x y) a) = image(x) image(y) image(a)
    = image(x) image(y a); so S is all of h.  Otherwise every pair is checked.

    Once Delta and eps pass it, (Delta (x) id) Delta, (id (x) Delta) Delta,
    (eps (x) id) Delta, (id (x) eps) Delta and id are unital algebra maps, and
    two that agree on A agree on h, so verify_coalgebra checks A alone;
    verify_antipode closes its law under products likewise.  The bialgebra
    law, Delta and eps unital and multiplicative, is one tensor identity, and
    transposed it is the same law for dual(h), the Delta and eps conditions
    swapped; so bialgebra_witnesses runs it on dual(h), over
    generators(dual(h)), when sum len(comult[i]) > sum len(mult[i][j]).
    """
    return multiplicative_over(h, generators(h), image, mul, one)


def multiplicative_over(h: HopfAlgebraData, gens, image, mul, one) -> list:
    """multiplicative's check over the pairs (i, a), a in gens, with no reduction argument.

    Each basis image is taken once.  An image that reads a table through
    linalg.combine_columns, as _left_columns and repsolver's module actions
    do, hands back the table's own row for a basis vector; here it is only
    compared and passed to mul.
    Returns at most MAX_FAILURES witnesses in order: None when image(1) !=
    one, then each pair (i, a) with image(e_i e_a) != mul(image(e_i),
    image(e_a)).
    """
    failures = []
    if image(h.unit) != one:
        failures.append(None)
    basis = [image(h.basis_dict(i)) for i in range(h.dim)]
    for i, x in enumerate(basis):
        for a in gens:
            if image(h.mult[i][a]) != mul(x, basis[a]):
                failures.append((i, a))
                if len(failures) >= MAX_FAILURES:
                    return failures
    return failures


def witness_failures(h: HopfAlgebraData, witnesses, unit_failure, pair_failure) -> list:
    """multiplicative's witnesses as messages: unit_failure, or pair_failure "(x_i, x_j)"."""
    return [unit_failure if ij is None else f"{pair_failure} ({h.labels[ij[0]]}, {h.labels[ij[1]]})"
            for ij in witnesses]


def verify_algebra(h: HopfAlgebraData) -> VerifyReport:
    if len(generators(h)) < h.dim:
        # certified only after both unit laws and Light's test passed
        return VerifyReport(True)
    failures = []
    for j in range(h.dim):
        ej = h.basis_dict(j)
        if h.mult_dict(h.unit, ej) != ej:
            failures.append(f"left unit law fails at {h.labels[j]}")
        if h.mult_dict(ej, h.unit) != ej:
            failures.append(f"right unit law fails at {h.labels[j]}")
        if len(failures) >= MAX_FAILURES:
            return VerifyReport(False, failures)

    witnesses = multiplicative(h, _left_columns(h), compose_columns,
                               identity_columns(h.dim, h.conductor))
    # the unit witness is the left unit law, already reported above
    failures += witness_failures(h, [ij for ij in witnesses if ij is not None], None,
                                 "associativity fails at")
    return VerifyReport(not failures, failures[:MAX_FAILURES])


def _left_columns(h: HopfAlgebraData):
    """v -> the columns v e_k of left multiplication by v.

    As a map into composed columns it is multiplicative exactly when
    (e_i e_j) e_k = e_i (e_j e_k), and its unit witness is the left unit law.
    A basis vector {m: CycNumber.one(N)} maps to h.mult[m] itself (see
    linalg.combine_columns).
    """
    return lambda v: combine_columns(h.mult, v)


@memoised
def bialgebra_witnesses(h: HopfAlgebraData) -> tuple:
    """multiplicative's witnesses (Delta, eps) on h, once per algebra; not to be changed.

    When dual(h) is the sparser side (see multiplicative), h's own are
    computed only if dual(h) has one.
    """
    if _dual_is_sparser(h) and not any(_witnesses_here(dual(h))):
        return [], []
    return _witnesses_here(h)


def _dual_is_sparser(h: HopfAlgebraData) -> bool:
    """Whether bialgebra_witnesses checks h through dual(h), and so computes generators(dual(h))."""
    return sum(map(len, h.comult)) > sum(len(d) for row in h.mult for d in row)


def _witnesses_here(h: HopfAlgebraData) -> tuple:
    return (multiplicative(h, h.delta_dict, h.tensor_mult, outer((h.unit, h.unit))),
            multiplicative(h, h.counit_of, operator.mul, h.one()))


def _on_generators(h: HopfAlgebraData, failures_at, premise) -> VerifyReport:
    """failures_at(h, generators(h)) when they are proper, have no failure, and
    Delta, eps have no witness and premise() holds; else failures_at(h, every index)."""
    gens = generators(h)
    if (len(gens) < h.dim and not failures_at(h, gens) and not any(bialgebra_witnesses(h))
            and premise()):
        return VerifyReport(True)
    failures = failures_at(h, range(h.dim))
    return VerifyReport(not failures, failures)


def verify_coalgebra(h: HopfAlgebraData) -> VerifyReport:
    """Coassociativity and the counit laws, which are dual(h)'s associativity and unit laws.

    Where bialgebra_witnesses goes through dual(h), a proper generators(dual(h))
    certifies exactly these laws, so the loop is skipped; a failing h has
    no proper set there and gets the full report.
    """
    if _dual_is_sparser(h) and len(generators(dual(h))) < h.dim:
        return VerifyReport(True)
    return _on_generators(h, _coalgebra_failures, lambda: True)


def _coalgebra_failures(h: HopfAlgebraData, indices) -> list:
    failures = []
    one = h.one()
    for i in indices:
        # (Delta (x) id) Delta vs (id (x) Delta) Delta, and the counit laws
        lhs, rhs, left, right = {}, {}, {}, {}
        for (j, k), c in h.comult[i].items():
            for (a, b), c2 in h.comult[j].items():
                accumulate(lhs, (a, b, k), c2 if c is one else c if c2 is one else c * c2)
            for (a, b), c2 in h.comult[k].items():
                accumulate(rhs, (j, a, b), c2 if c is one else c if c2 is one else c * c2)
            ej, ek = h.counit[j], h.counit[k]
            accumulate(left, k, ej if c is one else c if ej is one else c * ej)
            accumulate(right, j, ek if c is one else c if ek is one else c * ek)
        if lhs != rhs:
            failures.append(f"coassociativity fails at {h.labels[i]}")
        if left != h.basis_dict(i) or right != h.basis_dict(i):
            failures.append(f"counit law fails at {h.labels[i]}")
        if len(failures) >= MAX_FAILURES:
            break
    return failures


def verify_bialgebra(h: HopfAlgebraData) -> VerifyReport:
    delta, eps = bialgebra_witnesses(h)
    failures = witness_failures(h, delta, "Delta(1) != 1 (x) 1", "Delta not multiplicative at")
    failures += witness_failures(h, eps, "eps(1) != 1", "eps not multiplicative at")
    return VerifyReport(not failures, failures[:MAX_FAILURES])


def verify_antipode(h: HopfAlgebraData) -> VerifyReport:
    """S(x_1) x_2 = eps(x) 1 = x_1 S(x_2), on generators(h) alone once S is certified a
    unital anti-algebra map, as a map into h^op through multiplicative.

    With Delta, eps multiplicative and S(xy) = S(y) S(x), the x satisfying the
    law form a subspace holding 1 and closed under products: S((xy)_1) (xy)_2
    = S(y_1) S(x_1) x_2 y_2 = eps(x) eps(y) 1, and likewise on the right.
    """
    return _on_generators(h, _antipode_failures, lambda: not multiplicative(
        h, h.antipode_dict, lambda x, y: h.mult_dict(y, x), h.unit))


def _antipode_failures(h: HopfAlgebraData, indices) -> list:
    failures = []
    for i in indices:
        lhs: dict[int, CycNumber] = {}
        rhs: dict[int, CycNumber] = {}
        for (j, k), c in h.comult[i].items():
            sj = h.antipode_dict({j: c})
            for x, cx in h.mult_dict(sj, h.basis_dict(k)).items():
                accumulate(lhs, x, cx)
            sk = h.antipode_dict({k: c})
            for x, cx in h.mult_dict(h.basis_dict(j), sk).items():
                accumulate(rhs, x, cx)
        target = {k: v * h.counit[i] for k, v in h.unit.items() if not (v * h.counit[i]).is_zero()}
        if lhs != target:
            failures.append(f"antipode law m(S (x) id)Delta fails at {h.labels[i]}")
        if rhs != target:
            failures.append(f"antipode law m(id (x) S)Delta fails at {h.labels[i]}")
        if len(failures) >= MAX_FAILURES:
            break
    return failures


def verify_hopf(h: HopfAlgebraData) -> VerifyReport:
    rep = verify_algebra(h)
    rep = rep.merge(verify_coalgebra(h))
    if rep.ok:
        rep = rep.merge(verify_bialgebra(h))
        rep = rep.merge(verify_antipode(h))
    return rep


# -- constructions --------------------------------------------------------


def dual(h: HopfAlgebraData) -> HopfAlgebraData:
    """Dual Hopf algebra on the dual basis: all structure tensors transposed.

    Computed once per algebra and kept on h.  The transposition is an
    involution on the nose, so h is recorded as the dual of the result and
    dual(dual(h)) is h.  That back-reference is weak: h and its dual form no
    reference cycle, so h is freed as soon as the last reference to it goes,
    and the dual of the result is computed afresh only if h is gone.
    """
    known = h._derived.get("dual")
    if isinstance(known, weakref.ref):
        known = known()
    if known is not None:
        return known
    mult = [[{} for _ in range(h.dim)] for _ in range(h.dim)]
    for i in range(h.dim):
        for (j, k), c in h.comult[i].items():
            mult[j][k][i] = c
    comult = [{} for _ in range(h.dim)]
    for i in range(h.dim):
        for j in range(h.dim):
            for k, c in h.mult[i][j].items():
                comult[k][(i, j)] = c
    labels = [lb[:-1] if lb.endswith("*") else lb + "*" for lb in h.labels]
    antipode = [{} for _ in range(h.dim)]
    for j, col in enumerate(h.antipode):
        for i, c in col.items():
            antipode[i][j] = c
    out = HopfAlgebraData(
        dim=h.dim,
        conductor=h.conductor,
        labels=labels,
        mult=mult,
        unit={i: c for i, c in enumerate(h.counit) if not c.is_zero()},
        comult=comult,
        counit=[h.unit.get(i, h.zero()) for i in range(h.dim)],
        antipode=antipode,
    )
    h._derived["dual"] = out
    out._derived["dual"] = weakref.ref(h)
    return out


@memoised
def generators(h: HopfAlgebraData) -> list:
    """Basis indices A certified to generate h as a unital associative algebra, or every index.

    W is the exact echelon span of the right products 1 a_1 ... a_r (a_t in
    A), kept closed under right multiplication by A; e_i joins A, in basis
    order, when it is not in W, until W reaches dim h.  Every e_i is then in
    W, since a picked e_a is 1 e_a by the left unit law.  A is returned only
    when it is at most half the basis (past that the checks below cost about
    what they save), both unit laws hold, and Light's test (e_i a) e_k =
    e_i (a e_k) holds for all i, k and a in A.  Then M = {y : (xy)z = x(yz)
    for all x, z} contains 1 and A and is closed under right multiplication
    by A, because (x(ya))z = ((xy)a)z = (xy)(az) = x(y(az)) = x((ya)z); so M
    contains W = h and h is associative.  In every other case the result is
    every index.
    """
    everything = list(range(h.dim))
    span = EchelonBasis()
    words = []  # right products from 1, one per dimension of W
    gens = []
    pending = []  # (word, a) whose product word a is still to join W

    def grow(v):
        if span.add(v):
            words.append(v)
            pending.extend((v, a) for a in gens)

    grow(h.unit)
    for i in everything:
        if span.dim == h.dim:
            break
        if span.contains(h.basis_dict(i)):
            continue
        gens.append(i)
        if 2 * len(gens) > h.dim:
            return everything
        pending.extend((w, i) for w in words)
        while pending:
            w, a = pending.pop()
            grow(h.mult_dict(w, h.basis_dict(a)))
    if any(h.mult_dict(h.basis_dict(j), h.unit) != h.basis_dict(j) for j in everything):
        return everything
    # Light's test, with the left unit law as its unit witness
    if multiplicative_over(h, gens, _left_columns(h), compose_columns,
                           identity_columns(h.dim, h.conductor)):
        return everything
    return gens


def known_generators(h: HopfAlgebraData) -> list:
    """generators(h) if it has been computed for h already, else every index.

    Either generates h, and a proper subset is certified as generators(h)
    describes.  verify_algebra computes generators(h) for every structure a
    command reports on.  An algebra derived from it, such as dual(h), is not
    verified and this never pays for Light's test on it, but dual(h) holds
    certified generators once verify_coalgebra or verify_bialgebra has
    checked h on that side.
    """
    return h._derived.get("generators") or list(range(h.dim))


def rebase(h: HopfAlgebraData, old: list, scale: list, labels: list) -> HopfAlgebraData:
    """h on the basis f_j = scale[j] e_old[j], for a permutation old and nonzero scalars.

    A change of basis: the result is a Hopf algebra exactly when h is.
    """
    new = [0] * h.dim
    for j, i in enumerate(old):
        new[i] = j
    one = h.one()
    if all(s is one for s in scale):
        # a permutation alone keeps every coefficient object and takes no product
        def move(v):
            return {new[k]: c for k, c in v.items()}

        return HopfAlgebraData(
            h.dim, h.conductor, labels, [[move(h.mult[i][k]) for k in old] for i in old],
            move(h.unit), [{(new[a], new[b]): c for (a, b), c in h.comult[i].items()} for i in old],
            [h.counit[i] for i in old], [move(h.antipode[i]) for i in old])
    inv = [s.inverse() for s in scale]

    def vec(v, s):
        # s * sum_k c_k e_k on the f basis; a product of nonzero field elements is nonzero
        return {new[k]: s * c * inv[new[k]] for k, c in v.items()}

    mult = [[vec(h.mult[i][k], scale[j] * scale[l]) for l, k in enumerate(old)]
            for j, i in enumerate(old)]
    comult = [{(new[a], new[b]): scale[j] * c * inv[new[a]] * inv[new[b]]
               for (a, b), c in h.comult[i].items()} for j, i in enumerate(old)]
    counit = [scale[j] * h.counit[i] for j, i in enumerate(old)]
    anti = [vec(h.antipode[i], scale[j]) for j, i in enumerate(old)]
    return HopfAlgebraData(h.dim, h.conductor, labels, mult, vec(h.unit, h.one()), comult,
                           counit, anti)


# -- semisimplicity and antipode order ------------------------------------


@memoised
def s_squared(h: HopfAlgebraData) -> list:
    """S o S as sparse columns, composed once per algebra; not to be changed."""
    return compose_columns(h.antipode, h.antipode)


def tr_s_squared(h: HopfAlgebraData) -> CycNumber:
    return trace(s_squared(h), h.zero())


def is_semisimple(h: HopfAlgebraData) -> bool:
    # Larson-Radford in characteristic zero
    return not tr_s_squared(h).is_zero()


def antipode_order(h: HopfAlgebraData, bound: int | None = None):
    """Least n >= 1 with S^n = id, or None past the bound (default 16 dim)."""
    return _least_identity_power(h, h.antipode, bound)


def s_squared_order(h: HopfAlgebraData, bound: int | None = None):
    """Least n >= 1 with S^(2n) = id, or None past the bound (default 16 dim)."""
    return _least_identity_power(h, s_squared(h), bound)


def _least_identity_power(h: HopfAlgebraData, cols: list, bound):
    identity = identity_columns(h.dim, h.conductor)
    return least_power(cols, lambda s: s == identity, 16 * h.dim if bound is None else bound,
                       compose_columns)
