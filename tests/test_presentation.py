from fractions import Fraction
from math import gcd

import pytest

from hopfkit import catalog

from conftest import build, same_tensors
from hopfkit.cyclotomic import CycNumber, root_of_unity
from hopfkit.linalg import accumulate, outer
from hopfkit.presentation import Presentation, RewriteError

# h8p and the Taft algebras by generators, rewriting rules and generator images:
# the reference that catalog's bosonizations are checked against


def h8p_presentation(p=3, alpha=1):
    """z, a, x with z^2 = alpha (a - 1), basis z^e a^i x^j (z-major)."""
    conductor = 4 * p
    one = CycNumber.one(conductor)
    Z, A, X = 0, 1, 2
    monomials = [(Z,) * e + (A,) * i + (X,) * j
                 for e in (0, 1) for i in (0, 1) for j in range(2 * p)]
    zz = [] if alpha == 0 else [(one, (A,)), (-one, ())]
    rules = [
        ((A, A), [(one, ())]),
        ((X,) * (2 * p), [(one, ())]),
        ((A, Z), [(one, (Z, A))]),
        ((X, Z), [(-one, (Z, X))]),
        ((X, A), [(one, (A, X))]),
        ((Z, Z), zz),
    ]
    return Presentation(["z", "a", "x"], conductor, monomials, rules)


def h8p_oracle(p=3, alpha=1):
    """h8p realized from its presentation: Delta, eps and S given on z, a and x."""
    pres = h8p_presentation(p, alpha)
    conductor = pres.conductor
    one = CycNumber.one(conductor)
    half = CycNumber.from_rational(conductor, Fraction(1, 2))
    im = root_of_unity(conductor, p)  # sqrt(-1)
    Z, A, X = 0, 1, 2
    idx = pres.index

    def at(*word):
        return {idx[word]: one}

    def e_x(bit, j):
        # e_bit x^j, e_0 and e_1 the idempotents (1 +- a) / 2
        j %= 2 * p
        return {idx[(X,) * j]: half, idx[(A,) + (X,) * j]: half if bit == 0 else -half}

    def g_power(sign):
        # (e_0 + sign sqrt(-1) e_1) x^p: g for sign = 1, g^3 = g^-1 for sign = -1
        return {idx[(X,) * p]: half + sign * im * half, idx[(A,) + (X,) * p]: half - sign * im * half}

    gen_delta = {
        A: outer((at(A), at(A))),
        X: outer((at(X), e_x(0, 1)), (at(*(A,) + (X,) * (2 * p - 1)), e_x(1, 1))),
        Z: outer((g_power(1), at(Z)), (at(Z), at())),
    }
    gen_eps = {A: one, X: one, Z: CycNumber.zero(conductor)}
    s_x = e_x(0, -1)
    for k, v in e_x(1, 1).items():
        accumulate(s_x, k, -v)
    # S(z) = -g^-1 z = z g^3, as z anticommutes with x^p
    s_z = {}
    for k, c in g_power(-1).items():
        for kk, cc in pres.normal_form_word((Z,) + pres.normal_monomials[k]).items():
            accumulate(s_z, kk, c * cc)
    return pres.realize(gen_delta, gen_eps, {A: at(A), X: s_x, Z: s_z})


def taft_oracle(n, k=1):
    """T_q, q = zeta_n^k: g x = q x g, x^n = 0, g^n = 1, Delta x = x (x) 1 + g (x) x."""
    q = root_of_unity(n, k)
    one = CycNumber.one(n)
    X, G = 0, 1
    monomials = [(X,) * j + (G,) * i for j in range(n) for i in range(n)]
    rules = [((G, X), [(q, (X, G))]), ((X,) * n, []), ((G,) * n, [(one, ())])]
    pres = Presentation(["x", "g"], n, monomials, rules)

    def at(*word):
        return {pres.index[word]: one}

    gen_delta = {G: outer((at(G), at(G))), X: outer((at(X), at()), (at(G), at(X)))}
    s_x = {i: -c for i, c in pres.normal_form_word((G,) * (n - 1) + (X,)).items()}
    gen_s = {G: pres.normal_form_word((G,) * (n - 1)), X: s_x}
    return pres.realize(gen_delta, {G: one, X: CycNumber.zero(n)}, gen_s)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("alpha", [0, 1])
def test_h8p_is_its_presentation(p, alpha):
    h, _ = catalog.h8p(p, alpha)
    oracle = h8p_oracle(p, alpha)
    assert same_tensors(h, oracle) and h.labels == oracle.labels


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 6) for k in range(1, n) if gcd(k, n) == 1])
def test_taft_is_its_presentation(n, k):
    h, _ = catalog.taft(n, k)
    oracle = taft_oracle(n, k)
    assert same_tensors(h, oracle) and h.labels == oracle.labels


def test_zz_rewrites_to_a_minus_one():
    pres = h8p_presentation()
    nf = pres.normal_form_word((0, 0))  # z z
    idx_a = pres.index[(1,)]
    idx_1 = pres.index[()]
    assert nf == {idx_a: CycNumber.one(12), idx_1: CycNumber.from_rational(12, -1)}


def test_xz_swaps_with_sign():
    pres = h8p_presentation()
    nf = pres.normal_form_word((2, 0))  # x z -> -(z x)
    idx_zx = pres.index[(0, 2)]
    assert nf == {idx_zx: CycNumber.from_rational(12, -1)}


def test_am10_sign_swap():
    p = 3
    conductor = 2 * p
    one = CycNumber.one(conductor)
    G, X = 0, 1
    monomials = [(G,) * i + (X,) * e for i in range(2 * p) for e in (0, 1)]
    rules = [((X, G), [(-one, (G, X))]),
             ((X, X), []),
             ((G,) * (2 * p), [(one, ())])]
    pres = Presentation(["g", "x"], conductor, monomials, rules)
    nf = pres.normal_form_word((X, G))  # x g -> -(g x)
    assert nf == {pres.index[(G, X)]: -one}


def test_normal_form_idempotent():
    pres = h8p_presentation()
    for word in [(2, 2, 0, 1), (0, 0, 0), (2,) * 7 + (0, 1)]:
        nf = pres.normal_form_word(word)
        again = {}
        for idx, c in nf.items():
            for idx2, c2 in pres.normal_form_word(pres.normal_monomials[idx]).items():
                again[idx2] = again.get(idx2, CycNumber.zero(12)) + c * c2
        assert {k: v for k, v in again.items() if not v.is_zero()} == nf


def test_realize_dimensions():
    h, _ = build("taft", n=2)
    assert h.dim == 4
    h, _ = build("h8p", p=3, alpha=1)
    assert h.dim == 24
    h, _ = build("fun-dic", p=3)
    assert h.dim == 12


def test_fun_dic_commutative():
    h, _ = build("fun-dic", p=3)
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            assert h.mult[i][j] == h.mult[j][i]


def test_unit_is_a_basis_monomial():
    pres = h8p_presentation()
    assert pres.index[()] == 0
    assert pres.normal_form_word(()) == {0: CycNumber.one(12)}


def test_bad_rules_raise():
    one = CycNumber.one(1)
    # x -> x g loops forever
    pres = Presentation(["x", "g"], 1, [(), (0,)], [((0,), [(one, (0, 1))])])
    with pytest.raises(RewriteError):
        pres.normal_form_word((0,))


def test_undeclared_normal_monomial_raises():
    pres = Presentation(["x"], 1, [()], [])
    with pytest.raises(RewriteError):
        pres.normal_form_word((0,))
