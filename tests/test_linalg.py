import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_matrix, kron
from hopfkit.cyclotomic import CycNumber, euler_phi, root_of_unity
from hopfkit.linalg import (
    EchelonBasis,
    Matrix,
    Subspace,
    accumulate,
    bilinear_closure,
    extend_along_prefixes,
    identity_columns,
    independent,
    nullspace,
    rank,
    solve_augmented,
    trace,
)


def mat(conductor, grid):
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    return Matrix(rows, cols, conductor,
                  [[CycNumber.from_rational(conductor, x) for x in r] for r in grid])


def rand_matrix(rng, n, m, conductor=1):
    return mat(conductor, [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)])


def transpose(m):
    return Matrix(m.cols, m.rows, m.conductor,
                  [[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)])


def solve(a, b):
    """One solution x of a x = b as a dense list, or None: solve_augmented on a's sparse rows."""
    rows = []
    for row, bv in zip(a.entries, b):
        r = {j: x for j, x in enumerate(row) if not x.is_zero()}
        if not bv.is_zero():
            r[a.cols] = bv
        rows.append(r)
    sol = solve_augmented(rows, a.cols)
    zero = CycNumber.zero(a.conductor)
    return None if sol is None else [sol.get(j, zero) for j in range(a.cols)]


def apply(m, vec):
    """m times a column vector given as a dense list or a sparse dict."""
    out = [CycNumber.zero(m.conductor)] * m.rows
    for k, x in (vec.items() if isinstance(vec, dict) else enumerate(vec)):
        for i in range(m.rows):
            out[i] = out[i] + m.entries[i][k] * x
    return out


def pairing(u: dict, v: dict, conductor: int):
    """The standard pairing sum_i u_i v_i of two sparse vectors."""
    return sum((x * v[i] for i, x in u.items() if i in v), CycNumber.zero(conductor))


def dense_perp(s: Subspace) -> Subspace:
    """The kernel of the dense matrix of s's basis, as perp computed it before it
    read the reduced rows directly: densify, eliminate again, read the free columns."""
    n, zero, one = s.ambient_dim, CycNumber.zero(s.conductor), CycNumber.one(s.conductor)
    rows = [[v.get(k, zero) for k in range(n)] for v in s.basis()]
    eb = EchelonBasis()
    for row in Matrix(len(rows), n, s.conductor, rows).entries:
        eb.add(row)
    kernel = []
    for f in range(n):
        if f not in eb.pivots:
            kernel.append([one if k == f else -eb.pivots[k].get(f, zero) if k in eb.pivots
                           else zero for k in range(n)])
    return Subspace.from_vectors(n, s.conductor, kernel)


def test_extend_along_prefixes_starts_each_word_at_its_longest_built_prefix():
    steps = []

    def step(value, letter):
        steps.append((value, letter))
        return value + letter

    # not prefix-closed ("a" is never built) and not in order of length
    words = ["abc", "ab", "b", "abcd", "", "bca"]
    assert extend_along_prefixes(words, "", step) == words
    assert steps == [("", "a"), ("a", "b"), ("ab", "c"),  # abc from the empty word
                     ("", "a"), ("a", "b"),               # ab: abc is longer, a unbuilt
                     ("", "b"),
                     ("abc", "d"),                        # abcd: one step from abc
                     ("b", "c"), ("bc", "a")]


def test_rref_identity():
    m = identity_matrix(3, 1)
    assert rank(m) == 3 and nullspace(m).dim == 0


def test_rref_rank_one():
    m = mat(1, [[1, 1], [1, 1]])
    ns = nullspace(m)
    assert rank(m) == 1 and ns.dim == 1
    v = ns.basis()[0]
    assert v[0] == -v[1] and not v[0].is_zero()


def test_gram_of_c2_group_algebra():
    # regular-representation trace form of k[C2] is [[2,0],[0,2]]
    g = mat(1, [[2, 0], [0, 2]])
    assert rank(g) == 2


def test_rank_transpose_random():
    rng = random.Random(4)
    for _ in range(25):
        n, m = rng.randint(1, 12), rng.randint(1, 12)
        a = rand_matrix(rng, n, m)
        assert rank(a) == rank(transpose(a))


def test_nullspace_exact():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_matrix(rng, 6, 8)
        ns = nullspace(a)
        for v in ns.basis():
            assert all(x.is_zero() for x in apply(a, v))
        assert rank(a) + ns.dim == 8


def test_solve_identity_and_inconsistent():
    i3 = identity_matrix(3, 1)
    b = [CycNumber.from_rational(1, k) for k in (5, -1, 2)]
    assert solve(i3, b) == b
    a = mat(1, [[1], [1]])
    bb = [CycNumber.from_rational(1, 0), CycNumber.from_rational(1, 1)]
    assert solve(a, bb) is None


def test_solve_round_trip():
    rng = random.Random(6)
    done = 0
    while done < 5:
        a = rand_matrix(rng, 5, 5)
        if rank(a) < 5:
            continue
        done += 1
        b = [CycNumber.from_rational(1, rng.randint(-4, 4)) for _ in range(5)]
        x = solve(a, b)
        assert apply(a, x) == b


def test_kron():
    assert kron(identity_matrix(2, 1), identity_matrix(3, 1)).entries == \
        identity_matrix(6, 1).entries
    rng = random.Random(7)
    a, b, c, d = (rand_matrix(rng, 2, 2) for _ in range(4))
    assert (kron(a, b) * kron(c, d)).entries == kron(a * c, b * d).entries
    s = mat(1, [[3]])
    m = rand_matrix(rng, 2, 2)
    three = CycNumber.from_rational(1, 3)
    assert kron(s, m).entries == [[three * x for x in row] for row in m.entries]


def test_identity_columns_and_trace():
    one, two = CycNumber.one(12), CycNumber.from_rational(12, 2)
    assert identity_columns(3, 12) == [{0: one}, {1: one}, {2: one}]
    assert trace(identity_columns(3, 12), CycNumber.zero(12)) == CycNumber.from_rational(12, 3)
    z = root_of_unity(12, 1)
    assert trace([{1: one}, {0: z, 1: two}, {}], CycNumber.zero(12)) == two
    assert trace([], CycNumber.zero(12)).is_zero()


def test_subspace_ops():
    z = root_of_unity(12, 1)
    one = CycNumber.one(12)
    zero = CycNumber.zero(12)
    u = Subspace.from_vectors(3, 12, [[one, z, zero]])
    assert u.basis() == [{0: one, 1: z}]
    assert u.perp() == Subspace.from_vectors(3, 12, [{0: -z, 1: one}, {2: one}])
    assert Subspace.from_vectors(3, 12, identity_matrix(3, 12).entries).perp().dim == 0
    assert Subspace.from_vectors(3, 12, []).perp().dim == 3


def test_subspace_canonical():
    rng = random.Random(9)
    for _ in range(10):
        vecs = rand_matrix(rng, 3, 5).entries
        combos = [
            [a + b for a, b in zip(vecs[0], vecs[1])],
            vecs[1],
            [a + b for a, b in zip(vecs[1], vecs[2])],
            vecs[2],
            vecs[0],
        ]
        s1 = Subspace.from_vectors(5, 1, vecs)
        s2 = Subspace.from_vectors(5, 1, combos)
        assert s1 == s2
        assert s1.basis() == s2.basis()


def test_bilinear_closure_group_span():
    # closure of {1, g} in k[C4] under the group product is k[<g>] = everything
    one = CycNumber.one(1)

    def product(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                accumulate(out, (i + j) % 4, a * b)
        return out

    e0 = {0: one}
    e1 = {1: one}
    s = bilinear_closure(Subspace.from_vectors(4, 1, [e0, e1]), product)
    assert s.dim == 4
    trivial = bilinear_closure(Subspace.from_vectors(4, 1, [e0]), product)
    assert trivial.dim == 1


def test_basis_hands_out_copies():
    one, two = CycNumber.one(1), CycNumber.from_rational(1, 2)
    s = Subspace.from_vectors(3, 1, [{0: one, 1: two}, {1: one, 2: one}])
    before = [dict(v) for v in s.basis()]
    s.basis()[0][2] = one
    s.basis()[1].clear()
    assert s.basis() == before and s.dim == 2

    def product(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                accumulate(out, (i + j) % 3, a * b)
        return out

    closed = bilinear_closure(s, product)
    assert closed.dim == 3
    assert s.basis() == before and s.dim == 2


# -- property tests of the elimination core over Q(zeta_N) -------------------


@st.composite
def sparse_matrices(draw, max_side=6):
    """A small matrix over Q(zeta_N), N in {1, 4, 5}, with mostly zero entries."""
    n = draw(st.sampled_from([1, 4, 5]))
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    coeff = st.integers(-2, 2)
    entry = st.one_of(st.just(None), st.just(None),
                      st.lists(coeff, min_size=euler_phi(n), max_size=euler_phi(n)))
    grid = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    zero = CycNumber.zero(n)
    return Matrix(rows, cols, n,
                  [[zero if c is None else CycNumber(n, c) for c in r] for r in grid])


_PROPERTY = settings(max_examples=60, deadline=None)


@_PROPERTY
@given(sparse_matrices())
def test_property_rank_is_transpose_invariant(m):
    assert rank(m) == rank(transpose(m))


@_PROPERTY
@given(sparse_matrices())
def test_property_rank_nullity(m):
    ns = nullspace(m)
    assert rank(m) + ns.dim == m.cols
    for v in ns.basis():
        assert all(x.is_zero() for x in apply(m, v))


@_PROPERTY
@given(sparse_matrices(), st.data())
def test_property_solve_consistent_system(a, data):
    x = data.draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols))
    x = [CycNumber.from_rational(a.conductor, c) for c in x]
    b = apply(a, x)
    y = solve(a, b)
    assert y is not None and apply(a, y) == b


@_PROPERTY
@given(sparse_matrices())
def test_property_dict_rows_match_dense_rows(m):
    dense = EchelonBasis()
    sparse = EchelonBasis()
    for row in m.entries:
        dense.add(row)
        sparse.add({j: x for j, x in enumerate(row) if not x.is_zero()})
    assert dense.basis_rows() == sparse.basis_rows()


@_PROPERTY
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_property_row_order_gives_equal_subspace(m, rnd):
    rows = list(m.entries)
    rnd.shuffle(rows)
    assert Subspace.from_vectors(m.cols, m.conductor, m.entries) == \
        Subspace.from_vectors(m.cols, m.conductor, rows)


@_PROPERTY
@given(sparse_matrices())
def test_property_perp_of_perp_is_the_subspace(m):
    s = Subspace.from_vectors(m.cols, m.conductor, m.entries)
    assert s.perp().perp() == s


@_PROPERTY
@given(sparse_matrices())
def test_property_perp_pairs_to_zero_with_the_subspace(m):
    s = Subspace.from_vectors(m.cols, m.conductor, m.entries)
    perp = s.perp()
    assert s.dim + perp.dim == m.cols
    assert all(pairing(u, v, m.conductor).is_zero() for u in s.basis() for v in perp.basis())


@_PROPERTY
@given(sparse_matrices())
def test_property_perp_matches_the_dense_route(m):
    s = Subspace.from_vectors(m.cols, m.conductor, m.entries)
    assert s.perp() == dense_perp(s)
    assert s.perp().basis() == dense_perp(s).basis()


@st.composite
def thin_products(draw):
    """Rows of B C over Q(zeta_N), N in {4, 5, 12, 20}, for sparse random B
    (rows x k) and C (k x cols) with k at most 3: often rank deficient.
    Each row is a dense list or a sparse dict."""
    n = draw(st.sampled_from([4, 5, 12, 20]))
    rows, inner, cols = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 8))
    coeff = st.integers(-2, 2)
    entry = st.one_of(st.just(None), st.just(None),
                      st.lists(coeff, min_size=euler_phi(n), max_size=euler_phi(n)))
    zero = CycNumber.zero(n)

    def factor(r, c):
        return Matrix(r, c, n, [[zero if x is None else CycNumber(n, x)
                                 for x in (draw(entry) for _ in range(c))] for _ in range(r)])

    product = factor(rows, inner) * factor(inner, cols)
    as_dict = draw(st.booleans())
    return n, cols, [{j: x for j, x in enumerate(row) if not x.is_zero()} if as_dict else row
                     for row in product.entries]


@_PROPERTY
@given(thin_products())
def test_property_independent_agrees_with_the_reduced_echelon_core(case):
    n, cols, rows = case
    eb = EchelonBasis()
    keep = independent(rows)
    assert keep == [i for i, row in enumerate(rows) if eb.add(row)]
    assert len(keep) == eb.dim
    assert Subspace.from_vectors(cols, n, [rows[i] for i in keep]) == \
        Subspace.from_vectors(cols, n, rows)
