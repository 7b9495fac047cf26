import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.cyclotomic import CycNumber, euler_phi, root_of_unity
from hopfkit.linalg import (
    EchelonBasis,
    Matrix,
    Subspace,
    bilinear_closure,
    extend_along_prefixes,
    kron,
    nullspace,
    rank,
    solve,
    word_product,
)


def mat(conductor, grid):
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    return Matrix(rows, cols, conductor,
                  [[CycNumber.from_rational(conductor, x) for x in r] for r in grid])


def rand_matrix(rng, n, m, conductor=1):
    return mat(conductor, [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)])


def test_word_product_multiplies_left_to_right_from_the_identity():
    mats = {"a": mat(1, [[1, 1], [0, 1]]), "b": mat(1, [[1, 0], [1, 1]])}
    assert word_product([], mats, 2, 1) == Matrix.identity(2, 1)
    assert word_product(["a", "b", "a"], mats, 2, 1) == mats["a"] * mats["b"] * mats["a"]
    assert word_product(["a", "b"], mats, 2, 1) != word_product(["b", "a"], mats, 2, 1)


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
    m = Matrix.identity(3, 1)
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
        assert rank(a) == rank(a.transpose())


def test_nullspace_exact():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_matrix(rng, 6, 8)
        ns = nullspace(a)
        for v in ns.basis():
            assert all(x.is_zero() for x in a.apply(v))
        assert rank(a) + ns.dim == 8


def test_solve_identity_and_inconsistent():
    i3 = Matrix.identity(3, 1)
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
        assert a.apply(x) == b


def test_kron():
    assert kron(Matrix.identity(2, 1), Matrix.identity(3, 1)) == Matrix.identity(6, 1)
    rng = random.Random(7)
    a, b, c, d = (rand_matrix(rng, 2, 2) for _ in range(4))
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)
    s = mat(1, [[3]])
    m = rand_matrix(rng, 2, 2)
    assert kron(s, m) == m.scale(CycNumber.from_rational(1, 3))


def test_subspace_ops():
    z = root_of_unity(12, 1)
    one = CycNumber.one(12)
    zero = CycNumber.zero(12)
    u = Subspace.from_vectors(3, 12, [[one, z, zero]])
    assert u.intersect(u) == u
    full = Subspace.full(3, 12)
    assert full.perp().dim == 0
    rng = random.Random(8)
    for _ in range(10):
        a = Subspace.from_vectors(6, 1, rand_matrix(rng, rng.randint(0, 4), 6).entries)
        b = Subspace.from_vectors(6, 1, rand_matrix(rng, rng.randint(0, 4), 6).entries)
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


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
    zero = CycNumber.zero(1)

    def product(u, v):
        out = [zero] * 4
        for i, a in enumerate(u):
            if a.is_zero():
                continue
            for j, b in enumerate(v):
                if not b.is_zero():
                    k = (i + j) % 4
                    out[k] = out[k] + a * b
        return out

    e0 = [one, zero, zero, zero]
    e1 = [zero, one, zero, zero]
    s = bilinear_closure(Subspace.from_vectors(4, 1, [e0, e1]), product)
    assert s.dim == 4
    trivial = bilinear_closure(Subspace.from_vectors(4, 1, [e0]), product)
    assert trivial.dim == 1


def test_perp_under_pairing():
    # orthogonal complement with respect to an explicit bilinear form
    b = mat(1, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    u = Subspace.from_vectors(3, 1, mat(1, [[1, 0, 0]]).entries)
    perp = u.perp(pairing=b)
    assert perp.dim == 2
    v = mat(1, [[0, 1, 0]]).entries[0]
    w = mat(1, [[0, 0, 1]]).entries[0]
    assert perp.contains(v) and perp.contains(w)


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
    assert rank(m) == rank(m.transpose())


@_PROPERTY
@given(sparse_matrices())
def test_property_rank_nullity(m):
    ns = nullspace(m)
    assert rank(m) + ns.dim == m.cols
    for v in ns.basis():
        assert all(x.is_zero() for x in m.apply(v))


@_PROPERTY
@given(sparse_matrices(), st.data())
def test_property_solve_consistent_system(a, data):
    x = data.draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols))
    x = [CycNumber.from_rational(a.conductor, c) for c in x]
    b = a.apply(x)
    y = solve(a, b)
    assert y is not None and a.apply(y) == b


@_PROPERTY
@given(sparse_matrices())
def test_property_dict_rows_match_dense_rows(m):
    dense = EchelonBasis(m.cols, m.conductor)
    sparse = EchelonBasis(m.cols, m.conductor)
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
