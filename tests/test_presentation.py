from math import gcd

import pytest

from hopfkit import catalog

from conftest import build, same_tensors
from hopfkit.cyclotomic import CycNumber
from presentation_oracle import (Presentation, RewriteError, fun_dic_oracle, h8p_oracle,
                                 h8p_presentation, pointed4p_oracle, taft_oracle)


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


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("variant, lam_k", [("a-m10", 1), ("a-m11", 1), ("a-m10-dual", 1),
                                            ("a-m10-dual", -1)],
                         ids=["a-m10", "a-m11", "a-m10-dual", "a-m10-dual-inverse"])
def test_pointed4p_is_its_presentation(variant, lam_k, p):
    lam_k %= 2 * p  # the selectors of zeta_2p and of its inverse
    h, _ = catalog.pointed4p(variant, p, lam_k)
    oracle = pointed4p_oracle(variant, p, lam_k)
    assert same_tensors(h, oracle) and h.labels == oracle.labels


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fun_dic_is_its_presentation(p):
    h, _ = catalog.fun_dic(p)
    oracle = fun_dic_oracle(p)
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
