import itertools
import json

import pytest

from conftest import (build, frozen, identity_matrix, kron, power, qline, same_tensors,
                      word_product)
from hopfkit import catalog, cli, ydnichols
from hopfkit.cyclotomic import CycNumber, root_of_unity
from hopfkit.groups import cyclic_group
from hopfkit.hopf import HopfAlgebraData, dual, tr_s_squared, verify_hopf
from hopfkit.linalg import EchelonBasis, Matrix, Subspace, accumulate
from hopfkit.presentation import group_algebra_hopf
from hopfkit.ydnichols import (
    YDDatum,
    YDModule,
    bosonize,
    braid_equation_check,
    braiding,
    cyclic_datum,
    diagonal_type,
    named_datum,
    nichols_dims,
    symmetrizer,
    validate_yd_datum,
    verify_yd,
    yd_module_gamma4p,
)
from presentation_oracle import taft_oracle


def q_int(n: int, q: CycNumber) -> CycNumber:
    """(n)_q = 1 + q + ... + q^(n-1), computed as a sum (no division)."""
    out = CycNumber.zero(q.conductor)
    acc = CycNumber.one(q.conductor)
    for _ in range(n):
        out = out + acc
        acc = acc * q
    return out


def test_q_integers():
    minus1 = CycNumber.from_rational(1, -1)
    assert q_int(2, minus1).is_zero()
    two = CycNumber.from_rational(1, 2)
    assert q_int(3, CycNumber.one(1)) == 3
    assert q_int(3, two) == 7


def q_factorial(n: int, q: CycNumber) -> CycNumber:
    out = CycNumber.one(q.conductor)
    for k in range(1, n + 1):
        out = out * q_int(k, q)
    return out


def q_binomial(n: int, i: int, q: CycNumber) -> CycNumber:
    """Gaussian binomial by the q-Pascal recurrence (safe at roots of unity)."""
    if i < 0 or i > n:
        return CycNumber.zero(q.conductor)
    row = [CycNumber.one(q.conductor)]
    for _ in range(n):
        new = [CycNumber.one(q.conductor)]
        qpow = CycNumber.one(q.conductor)
        for s in range(1, len(row) + 1):
            qpow = qpow * q
            left = row[s - 1]
            right = row[s] if s < len(row) else CycNumber.zero(q.conductor)
            new.append(left + qpow * right)
        row = new
    return row[i]


def test_q_binomial_against_product_formula():
    for n_root in (3, 4, 5):
        q = root_of_unity(n_root, 1)
        for n in range(6):
            for i in range(n + 1):
                assert q_binomial(n, i, q) * q_factorial(i, q) * q_factorial(n - i, q) == \
                    q_factorial(n, q)


def test_q_binomial_edges():
    q = root_of_unity(3, 1)
    for n in range(5):
        assert q_binomial(n, 0, q).is_one()
        assert q_binomial(n, n, q).is_one()
    assert q_binomial(2, 1, CycNumber.from_rational(1, -1)).is_zero()


def test_yd_modules_gamma20():
    for spec, rep, dim in [
        (("y", 1), ("psi", 1), 4),
        (("y", 1), ("psi", 0), 4),
        (("x", 1), ("chi", 1), 5),
        (("x", 2), ("chi", 3), 5),
        (("trivial",), ("alpha", 0), 1),
        (("trivial",), ("beta", 1), 4),
    ]:
        m = yd_module_gamma4p(5, spec, rep)
        assert m.dim == dim
        assert m.element_matrices() == [word_product(m.group.word(g), m.action, m.dim, m.conductor)
                                      for g in m.group.elements]
        ok, why = verify_yd(m)
        assert ok, (m.label, why)
        c = braiding(m)
        assert braid_equation_check(c, m.dim)


def test_literal_remark_action_fails_yd():
    # the printed x-action x.v_j = w^k v_(jl+1): the verified one's images moved up by one
    m = yd_module_gamma4p(5, ("x", 1), ("chi", 1))
    x_mat = [{(r + 1) % m.dim: c for r, c in col.items()} for col in m.action["x"]]
    m = YDModule(m.group, m.conductor, m.dim, {**m.action, "x": x_mat}, m.grading, m.label)
    ok, _ = verify_yd(m)
    assert not ok


def test_diagonal_braiding_formula():
    m = yd_module_gamma4p(5, ("y", 1), ("psi", 1))
    qm = diagonal_type(m)
    assert qm is not None
    z5 = root_of_unity(20, 4)
    for r in range(4):
        for t in range(4):
            assert qm[r][t] == z5 ** pow(2, (r + 4 - t) % 4, 5)


def test_trivial_class_is_flip():
    m = yd_module_gamma4p(5, ("trivial",), ("beta", 1))
    qm = diagonal_type(m)
    assert qm is not None
    assert all(q.is_one() for row in qm for q in row)


def test_braiding_invertible():
    from hopfkit.linalg import rank

    m = yd_module_gamma4p(5, ("x", 1), ("chi", 2))
    c = braiding(m)
    assert rank(dense(c, m.dim)) == m.dim ** 2


def test_named_data_validate():
    for name in ("fun-dic", "a4p-chi2", "a4p-chi3", "c2"):
        d = named_datum(name, 3)
        ok, why = validate_yd_datum(d)
        assert ok, (name, why)


def test_flipped_fun_dic_datum_fails():
    d = named_datum("fun-dic", 3)
    flipped = [CycNumber.one(d.L.conductor)] * d.L.dim
    ok, _ = validate_yd_datum(YDDatum(d.L, d.g, flipped, d.q))
    assert not ok


def test_exactly_two_data_on_a4p():
    """Enumerate all (group-like, character) pairs over the quad family."""
    h, cd = build("a4p", p=3)
    group = cd.extra["group"]
    minus_one = CycNumber.from_rational(h.conductor, -1)
    valid = []
    for g in cd.grouplikes:
        for a_val, s_val in itertools.product((1, -1), repeat=2):
            chi = [CycNumber.from_rational(h.conductor, (a_val ** i) * (s_val ** (2 * k + e)))
                   for (i, k, e) in group.elements]
            d = YDDatum(h, g, chi, minus_one)
            ok, _ = validate_yd_datum(d)
            if ok:
                valid.append((frozen(g), a_val, s_val))
    assert len(valid) == 2


def test_no_quantum_line_datum_on_b4p():
    h, cd = build("b4p", p=3)
    group = cd.extra["group"]
    minus_one = CycNumber.from_rational(h.conductor, -1)
    count = 0
    for g in cd.grouplikes:
        for t_val, r_val in itertools.product((1, -1), repeat=2):
            chi = []
            for (k, e) in group.elements:
                chi.append(CycNumber.from_rational(h.conductor, (r_val ** k) * (t_val ** e)))
            ok, _ = validate_yd_datum(YDDatum(h, g, chi, minus_one))
            count += ok
    assert count == 0


def test_bosonize_c2_is_sweedler():
    assert same_tensors(bosonize(named_datum("c2", 3)), taft_oracle(2))


def test_verify_hopf_refuses_a_lifting_with_chi_squared_not_eps():
    # k[C_12], chi(h) = sqrt(-1), g = h^2: the datum is valid and its biproduct a Hopf
    # algebra, but y^2 = 1 - g^2 is central while h y^2 = chi(h)^2 y^2 h = -y^2 h
    d = cyclic_datum(12, 3, 2)
    assert validate_yd_datum(d) == (True, None)
    assert verify_hopf(bosonize(d)).ok
    assert "associativity fails at (g, y^1#1)" in verify_hopf(bosonize(d, 1)).failures


def test_a_lifting_with_chi_squared_eps_passes_verify_hopf():
    # k[C_12], chi(h) = -1, g = h: chi^2 = eps and g^2 = h^2 is central, so y^2 = 1 - g^2 lifts
    d = cyclic_datum(12, 6, 1)
    lifted = bosonize(d, 1)
    assert verify_hopf(lifted).ok
    assert not same_tensors(lifted, bosonize(d))


@pytest.mark.parametrize("datum", ydnichols.DATUM_NAMES)
def test_bosonized_dim_is_the_dimension_of_the_bosonization(datum):
    assert ydnichols.bosonized_dim(datum, 3) == bosonize(named_datum(datum, 3)).dim
    with pytest.raises(ValueError, match="unknown datum"):
        ydnichols.bosonized_dim("nope", 3)


@pytest.mark.parametrize("p", [3, 5])
def test_a4p_data_share_a4ps_algebra_and_grouplikes(p):
    from hopfkit import catalog

    h, cd = catalog.a4p(p)
    for name, g in (("a4p-chi2", cd.grouplikes[3]), ("a4p-chi3", cd.grouplikes[2])):
        d = named_datum(name, p)
        assert same_tensors(d.L, h) and d.L.labels == h.labels and d.g == g


def test_bosonize_a4p():
    b = bosonize(named_datum("a4p-chi2", 3))
    assert b.dim == 24
    assert tr_s_squared(b).is_zero()


def test_bosonize_refuses_a_wrong_closed_form_antipode():
    # S(1#g) built from a corrupted column of S_L: verify_hopf must catch it
    d = named_datum("c2", 3)
    L = d.L
    anti = [{r: c + c for r, c in col.items()} if j == 1 else col
            for j, col in enumerate(L.antipode)]
    bad = HopfAlgebraData(L.dim, L.conductor, L.labels, L.mult, L.unit, L.comult, L.counit, anti)
    assert any("antipode law" in f for f in verify_hopf(bosonize(YDDatum(bad, d.g, d.chi, d.q))).failures)


def closed_form_delta_and_antipode(d: YDDatum, h: HopfAlgebraData):
    """Delta and S of h = bosonize(d, lam) on the basis y^m # l, by the closed forms
    Delta(y^m # l) = sum_s binom_q(m, s) y^s # g^(m-s) l_1 (x) y^(m-s) # l_2 (products in L)
    and S(y^m # l) = (1 # S_L(l)) (-q^-1 y # g^-1)^m (products in h), g^-1 = g^(ord g - 1)."""
    L, q = d.L, d.q
    n = h.dim // L.dim
    g_pows = [L.unit, d.g]
    while g_pows[-1] != L.unit:
        g_pows.append(L.mult_dict(g_pows[-1], d.g))
    comult = []
    for m in range(n):
        for i in range(L.dim):
            delta = {}
            for (j, k), c in L.comult[i].items():
                for s in range(m + 1):
                    for a, ca in L.mult_dict(g_pows[m - s], {j: q_binomial(m, s, q) * c}).items():
                        accumulate(delta, (s * L.dim + a, (m - s) * L.dim + k), ca)
            comult.append(delta)
    sy = {L.dim + a: -q.inverse() * c for a, c in g_pows[-2].items()}
    antipode = [h.mult_dict(col, power(sy, m, h.unit, h.mult_dict))
                for m in range(n) for col in L.antipode]
    return comult, antipode


def _function_algebra_c2_datum():
    """k^(C_2) with g = sgn and chi the evaluation at the generator: its unit is e_1* + e_s*."""
    L = dual(group_algebra_hopf(cyclic_group(2)))
    one = L.one()
    return YDDatum(L, {0: one, 1: -one}, [L.zero(), one], -one)


_CLOSED_FORM_DATA = {
    "taft4-q3": lambda: (cyclic_datum(4, 3, 1), 0),
    "taft5-q2": lambda: (cyclic_datum(5, 2, 1), 0),
    "taft7-q3": lambda: (cyclic_datum(7, 3, 1), 0),
    "a-m11-p3": lambda: (cyclic_datum(6, 3, 1), -1),
    "h8p-alpha1-p3": lambda: (catalog._fun_dic_datum(3)[0], -1),
    "function-algebra-c2": lambda: (_function_algebra_c2_datum(), 0),
}


@pytest.mark.parametrize("case", sorted(_CLOSED_FORM_DATA))
def test_bosonize_matches_the_closed_forms(case):
    # the generator images give what the q-binomial closed forms give, off the goldens' data
    d, lam = _CLOSED_FORM_DATA[case]()
    assert validate_yd_datum(d) == (True, None)
    h = bosonize(d, lam)
    assert verify_hopf(h).ok
    comult, antipode = closed_form_delta_and_antipode(d, h)
    assert h.comult == comult
    assert h.antipode == antipode


def test_quantum_line_ranks():
    rep = nichols_dims(qline(CycNumber.from_rational(2, -1)), 1)
    assert rep.ranks == [1, 1, 0] and rep.total_dim == 2
    for n in (2, 3, 4, 6):
        rep = nichols_dims(qline(root_of_unity(n, 1)), 1)
        assert rep.truncated and rep.total_dim == n
    rep = nichols_dims(qline(CycNumber.one(1)), 1, cutoff=8)
    assert not rep.truncated
    assert rep.ranks == [1] * 9


def _insertion_sort_word(perm):
    word = []
    arr = list(perm)
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            word.append(j - 1)
            j -= 1
    return word


def dense(c: dict, v: int) -> Matrix:
    """The v^2 x v^2 matrix, on the basis e_r (x) e_t, of a braiding given by sparse columns."""
    conductor = next(val for col in c.values() for val in col.values()).conductor
    m = Matrix(v * v, v * v, conductor)
    for (r, t), col in c.items():
        for (s, u), val in col.items():
            m.entries[s * v + u][r * v + t] = val
    return m


def braid_operators(m: Matrix, v: int, n: int):
    """c_i = id^(i-1) (x) c (x) id^(n-i-1) on the n-th tensor power, for c's dense matrix m."""
    ops = []
    for i in range(1, n):
        left = identity_matrix(v ** (i - 1), m.conductor)
        right = identity_matrix(v ** (n - i - 1), m.conductor)
        ops.append(kron(kron(left, m), right))
    return ops


def braid_equation_dense(c: dict, v: int) -> bool:
    c1, c2 = braid_operators(dense(c, v), v, 3)
    return (c1 * c2 * c1).entries == (c2 * c1 * c2).entries


def symmetrizer_direct(c: dict, v: int, n: int) -> Matrix:
    """Slow oracle: sum T_w over explicit insertion-sort reduced words."""
    m = dense(c, v)
    ops = braid_operators(m, v, n)
    total = Matrix(v ** n, v ** n, m.conductor)
    for perm in itertools.permutations(range(n)):
        t = identity_matrix(v ** n, m.conductor)
        for i in _insertion_sort_word(perm):
            t = t * ops[i]
        for row, trow in zip(total.entries, t.entries):
            row[:] = [a + b for a, b in zip(row, trow)]
    return total


def jordan_braiding(eps: int) -> dict:
    """c(u (x) w) = g.w (x) u with g = [[eps, 1], [0, eps]]: the Jordan plane
    (eps = 1) and the super Jordan plane (eps = -1).  Not monomial."""
    g = [[eps, 1], [0, eps]]
    return {(r, t): {(s, r): CycNumber.from_rational(1, g[s][t]) for s in range(2) if g[s][t]}
            for r in range(2) for t in range(2)}


def bad_diagonal_braiding() -> dict:
    """c(e_r (x) e_t) = (2r + t + 1) e_r (x) e_t.  Its distinct diagonal entries
    break the braid equation."""
    return {divmod(i, 2): {divmod(i, 2): CycNumber.from_rational(1, i + 1)} for i in range(4)}


def test_symmetrizer_matches_direct_enumeration():
    # independence of the shuffle route, checked at degree 3 on a diagonal
    # braiding (y-class) and a monomial, non-diagonal one (x-class)
    for cls, rep in [(("y", 1), ("psi", 1)), (("x", 1), ("chi", 1))]:
        m = yd_module_gamma4p(5, cls, rep)
        c = braiding(m)
        for n in (2, 3):
            assert symmetrizer(c, m.dim, n).entries == symmetrizer_direct(c, m.dim, n).entries, \
                (m.label, n)


@pytest.mark.parametrize("eps", [1, -1], ids=["Jordan", "super Jordan"])
def test_symmetrizer_of_a_non_monomial_braiding(eps):
    c = jordan_braiding(eps)
    assert braid_equation_check(c, 2)
    for n in range(5):
        assert symmetrizer(c, 2, n).entries == symmetrizer_direct(c, 2, n).entries, n
    assert nichols_dims(c, 2, cutoff=4).ranks == [1, 2, 3, 4, 5]


def test_carried_columns_grow_to_the_same_symmetrizer():
    c = jordan_braiding(-1)
    columns = {(): {(): CycNumber.one(1)}}
    for n in range(5):
        assert symmetrizer(c, 2, n, columns).entries == symmetrizer(c, 2, n).entries, n
        assert len(next(iter(columns))) == n


def test_each_symmetrizer_degree_is_built_once(monkeypatch):
    # degree m grows only the rank_(m-1) carried columns, each into v columns
    # at m - 1 applications of c, on top of degree m - 1, so cutoff 5 at
    # v = 4 costs sum_m rank_(m-1) 4 (m - 1) = 1712; growing every column
    # would cost sum_m 4^m (m - 1) = 5008, and rebuilding every degree from
    # scratch 6080
    c = braiding(yd_module_gamma4p(5, ("y", 1), ("psi", 1)))
    calls = 0
    apply = ydnichols._apply_braiding

    def counting(*args):
        nonlocal calls
        calls += 1
        return apply(*args)

    monkeypatch.setattr(ydnichols, "_apply_braiding", counting)
    assert braid_equation_check(c, 4)
    check = calls
    ranks = nichols_dims(c, 4, cutoff=5).ranks
    assert ranks == [1, 4, 12, 32, 76, 164]
    assert calls - 2 * check == sum(ranks[m - 1] * 4 * (m - 1) for m in range(1, 6)) == 1712


def carried_columns(c: dict, v: int, cutoff: int) -> list:
    """Per degree n = 1..cutoff, the columns of the direct S_n at the words
    wx (w in W_(n-1), x < v) that nichols_dims ranks, in its order; W_n is
    taken from them greedily, by the reduced-echelon core."""
    basis, out = [()], []
    for n in range(1, cutoff + 1):
        direct = symmetrizer_direct(c, v, n)
        words = [w + (x,) for w in basis for x in range(v)]
        places = [sum(x * v ** (n - 1 - i) for i, x in enumerate(w)) for w in words]
        cols = [[row[j] for row in direct.entries] for j in places]
        eb = EchelonBasis()
        basis = [w for w, col in zip(words, cols) if eb.add(col)]
        out.append(cols)
    return out


@pytest.mark.parametrize("c, v", [
    (braiding(yd_module_gamma4p(5, ("y", 1), ("psi", 1))), 4),
    (braiding(yd_module_gamma4p(5, ("x", 1), ("chi", 3))), 5),
    (jordan_braiding(1), 2)], ids=["y-class", "x-class", "Jordan"])
def test_only_the_carried_columns_are_built(c, v, monkeypatch):
    # each degree builds v columns per word of W_(n-1), not all v^n, each
    # with v^n rows at its word's base-v place, and they are the direct S_n's
    seen = []
    rank = ydnichols.matrix_rank

    def recording(s, columns):
        seen.append(s)
        return rank(s, columns)

    monkeypatch.setattr(ydnichols, "matrix_rank", recording)
    ranks = nichols_dims(c, v, cutoff=4).ranks
    assert [(s.rows, s.cols) for s in seen] == [(v ** n, ranks[n - 1] * v) for n in range(1, 5)]
    assert ranks[3] * v < v ** 4
    for s, cols in zip(seen, carried_columns(c, v, 3)):
        assert [list(col) for col in zip(*s.entries)] == cols


# every simple Yetter-Drinfeld module over Gamma_20, as (class, representation)
_GAMMA20_MODULES = ([(("trivial",), ("alpha", i)) for i in range(4)] + [(("trivial",), ("beta", 1))]
                    + [(("y", k), ("psi", s)) for k in range(1, 5) for s in range(5)]
                    + [(("x", m), ("chi", k)) for m in range(1, 4) for k in range(4)])


def _echelon_rank(s: Matrix) -> int:
    """The rank of a matrix by the reduced-echelon core, not linalg.rank."""
    return Subspace.from_vectors(s.cols, s.conductor, s.entries).dim


@pytest.mark.parametrize("cls, rep", _GAMMA20_MODULES,
                         ids=[f"{c[0]}{c[1:]}-{r[0]}{r[1]}" for c, r in _GAMMA20_MODULES])
def test_ranks_on_the_carried_column_basis_match_the_direct_symmetrizer(cls, rep):
    # nichols_dims ranks only the columns over a basis of im S_(n-1); the
    # oracle ranks every row of the symmetrizer built from explicit words
    m = yd_module_gamma4p(5, cls, rep)
    c = braiding(m)
    ranks = nichols_dims(c, m.dim, cutoff=3).ranks
    assert ranks[1:] == [_echelon_rank(symmetrizer_direct(c, m.dim, n))
                         for n in range(1, len(ranks))], m.label


def test_y_class_ranks_at_degree_4_match_the_whole_symmetrizer():
    for k in range(1, 5):
        for s in range(5):
            c = braiding(yd_module_gamma4p(5, ("y", k), ("psi", s)))
            assert nichols_dims(c, 4, cutoff=4).ranks[4] == _echelon_rank(symmetrizer(c, 4, 4)), \
                (k, s)
    c = braiding(yd_module_gamma4p(5, ("y", 2), ("psi", 3)))
    assert nichols_dims(c, 4, cutoff=4).ranks[4] == _echelon_rank(symmetrizer_direct(c, 4, 4)) \
        == 76


def test_a_quantum_line_of_large_order_inverts_no_pivot(monkeypatch, capsys):
    # every S_n of a one-dimensional braiding is 1 x 1: a nonzero entry is its rank
    calls = 0
    inverse = CycNumber.inverse

    def counting(self):
        nonlocal calls
        calls += 1
        return inverse(self)

    monkeypatch.setattr(CycNumber, "inverse", counting)
    assert cli.main(["nichols", "--qline", "20000"]) == 0
    assert json.loads(capsys.readouterr().out)["ranks"] == [1] * 9
    assert calls == 0


def test_a_yd_module_lives_in_its_own_field():
    # the sign of x over Q, on a group whose irreps need Q(zeta_20)
    grp = yd_module_gamma4p(5, ("y", 1), ("psi", 1)).group
    one, minus = CycNumber.one(1), CycNumber.from_rational(1, -1)
    m = YDModule(grp, 1, 1, {"x": [{0: minus}], "y": [{0: one}]}, [grp.identity], "sign")
    mats = m.element_matrices()
    assert {a.conductor for mat in mats for col in mat for a in col.values()} == {1}
    assert verify_yd(m) == (True, None)
    assert nichols_dims(braiding(m), 1, cutoff=3).ranks == [1, 1, 1, 1]


def test_quantum_line_at_q_one_to_a_high_cutoff():
    # one growth step per degree keeps this quadratic in the cutoff
    rep = nichols_dims(qline(CycNumber.one(1)), 1, cutoff=400)
    assert rep.ranks == [1] * 401 and not rep.truncated


def _perturbed(c: dict) -> dict:
    """c with its first nonzero entry, in the dense matrix's row-major order, doubled."""
    out = {col: dict(entries) for col, entries in c.items()}
    row, col = min((row, col) for col, entries in c.items() for row in entries)
    out[col][row] = c[col][row] + c[col][row]
    return out


def test_braid_equation_check_agrees_with_dense_products():
    cases = [(bad_diagonal_braiding(), 2)]
    for c, v in [(jordan_braiding(1), 2), (jordan_braiding(-1), 2),
                 (braiding(yd_module_gamma4p(5, ("x", 1), ("chi", 1))), 5)]:
        cases += [(c, v), (_perturbed(c), v)]
    verdicts = [braid_equation_check(c, v) for c, v in cases]
    assert verdicts == [braid_equation_dense(c, v) for c, v in cases]
    assert verdicts == [False] + [True, False] * 3


def test_nichols_rank_one_dim_grows_polynomially():
    m = yd_module_gamma4p(5, ("y", 1), ("psi", 0))
    c = braiding(m)
    rep = nichols_dims(c, 4, cutoff=2)
    # q_ii = 1 everywhere, so no truncation can appear
    assert not rep.truncated
    assert rep.ranks[0] == 1 and rep.ranks[1] == 4


def test_bad_braiding_rejected():
    # a diagonal with distinct entries cannot satisfy the braid equation
    with pytest.raises(ValueError):
        nichols_dims(bad_diagonal_braiding(), 2, cutoff=2)


def test_memory_guard():
    m = yd_module_gamma4p(5, ("x", 1), ("chi", 1))
    c = braiding(m)
    rep = nichols_dims(c, 5, cutoff=4, guard_mb=1)
    assert rep.guard_hit


def test_rank_two_exterior_braiding():
    # diagonal type with q_ii = -1, q_12 q_21 = 1: the symmetrizer ranks are
    # those of the exterior algebra on two generators
    minus = CycNumber.from_rational(2, -1)
    one = CycNumber.one(2)
    c = {(0, 0): {(0, 0): minus},    # e1 (x) e1
         (0, 1): {(1, 0): one},      # e1 (x) e2 -> e2 (x) e1
         (1, 0): {(0, 1): one},
         (1, 1): {(1, 1): minus}}
    rep = nichols_dims(c, 2, cutoff=4)
    assert rep.ranks == [1, 2, 1, 0]
    assert rep.truncated and rep.total_dim == 4
