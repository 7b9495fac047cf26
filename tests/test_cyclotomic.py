import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.cyclotomic import (
    CycNumber,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    root_of_unity,
)


def test_cyclotomic_polynomial_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)          # t - 1
    assert cyclotomic_polynomial(2) == (1, 1)           # t + 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)        # t^2 + 1
    assert cyclotomic_polynomial(3) == (1, 1, 1)


def test_cyclotomic_polynomial_12():
    # recursive-division oracle: divide t^12 - 1 by all proper Phi_d by hand
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # t^4 - t^2 + 1


def test_degree_matches_phi():
    for n in [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 20, 24, 60]:
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_root_of_unity_basics():
    assert root_of_unity(4, 2) == CycNumber.from_rational(4, -1)
    for n in [1, 2, 3, 4, 7, 12]:
        assert root_of_unity(n, 0) == CycNumber.one(n)
    z3 = root_of_unity(3, 1)
    z32 = root_of_unity(3, 2)
    assert z3 + z32 == CycNumber.from_rational(3, -1)


def test_root_power_identity():
    for n in [1, 2, 3, 4, 8, 12, 20]:
        z = root_of_unity(n, 1)
        assert z ** n == CycNumber.one(n)
        # Phi_n(zeta_n) = 0
        poly = cyclotomic_polynomial(n)
        acc = CycNumber.zero(n)
        for k, c in enumerate(poly):
            acc = acc + root_of_unity(n, k) * c
        assert acc.is_zero()


def test_field_ops():
    z = root_of_unity(4, 1)
    assert z * z == -1
    assert root_of_unity(5, 3).inverse() == root_of_unity(5, 2)
    x = CycNumber.one(5) + root_of_unity(5, 1)
    assert x * x.inverse() == CycNumber.one(5)


def test_one_times_x_is_x_itself():
    # structure tables extended by 1 * coefficient keep sharing one object per value
    one = CycNumber.one(12)
    for x in (CycNumber.from_rational(12, Fraction(-3, 2)), root_of_unity(12, 5)):
        assert one * x is x


def test_inverse_random():
    rng = random.Random(12345)
    for n in [1, 2, 3, 4, 8, 12, 20, 60]:
        phi = euler_phi(n)
        count = 0
        while count < 100:
            x = CycNumber(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(phi)])
            if x.is_zero():
                continue
            count += 1
            assert x * x.inverse() == CycNumber.one(n)


def _fraction_inverse(x: CycNumber) -> list:
    """Oracle: x^-1's coefficients by extended Euclid against Phi_N over Fraction polynomials."""

    def trim(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p

    def divmod_(a, b):
        a = trim(list(a))
        q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
        while len(a) >= len(b):
            c = a[-1] / b[-1]
            d = len(a) - len(b)
            q[d] = c
            for j, bj in enumerate(b):
                a[d + j] -= c * bj
            a = trim(a)
        return q, a

    def sub_mul(t0, q, t1):
        out = list(t0) + [Fraction(0)] * (len(q) + len(t1))
        for i, qi in enumerate(q):
            for j, tj in enumerate(t1):
                out[i + j] -= qi * tj
        return trim(out)

    r0 = [Fraction(c) for c in cyclotomic_polynomial(x.conductor)]
    r1 = trim(list(x.coeffs))
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, rem = divmod_(r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, sub_mul(t0, q, t1)
    assert len(r0) == 1
    phi = euler_phi(x.conductor)
    return [c / r0[0] for c in t0] + [Fraction(0)] * (phi - len(t0))


def _sum_of_roots(n: int, terms) -> CycNumber:
    """sum c * zeta_n^k over the (c, k) terms."""
    return sum((root_of_unity(n, k) * c for c, k in terms), CycNumber.zero(n))


@pytest.mark.parametrize("n, terms", [
    (5, [(1, 0), (1, 1)]),
    (20, [(1, k) for k in (1, 2, 3, 5, 7, 11)]),
    (36, [(3, 2), (2, 1), (Fraction(5, 7), 0)]),
    (1000, [(1, 0), (1, 1)]),
    (1000, [(3, 2), (2, 1), (Fraction(5, 7), 0)]),
    (1000, [(Fraction(2, 3), 17), (Fraction(1, 6), 0)]),
    (2000, [(1, 1), (-1, 3)]),
    (2000, [(3, 2), (2, 1), (Fraction(5, 7), 0)]),
], ids=lambda v: f"{v}"[:40])
def test_integer_inverse_matches_fraction_euclid(n, terms):
    # leading coefficients that are not units force scaled pseudo-division
    # steps, and a denominator != 1 enters the final den * t / (s r)
    x = _sum_of_roots(n, terms)
    assert not x.is_rational()
    inv = x.inverse()
    assert list(inv.coeffs) == _fraction_inverse(x)
    assert x * inv is CycNumber.one(n)


def test_integer_inverse_matches_fraction_euclid_at_random():
    rng = random.Random(2023)
    for n in (7, 12, 15, 28, 60):
        phi = euler_phi(n)
        for _ in range(30):
            x = CycNumber(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(phi)])
            if x.is_rational():
                continue
            assert list(x.inverse().coeffs) == _fraction_inverse(x)
            assert x * x.inverse() is CycNumber.one(n)


def test_conductor_mismatch_raises():
    with pytest.raises(ValueError):
        root_of_unity(3, 1) + root_of_unity(4, 1)


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero(4).inverse()


def test_embed_basics():
    z4 = root_of_unity(4, 1)
    assert embed(z4, 12) == root_of_unity(12, 3)
    for m in [1, 2, 6, 12]:
        assert embed(CycNumber.one(1), m) == CycNumber.one(m)
    v = root_of_unity(3, 1) + root_of_unity(3, 2)
    assert embed(v, 12) == CycNumber.from_rational(12, -1)


def test_embed_is_field_hom():
    rng = random.Random(999)
    for n, m in [(2, 4), (3, 12), (4, 12), (4, 20), (12, 60), (20, 60)]:
        phi = euler_phi(n)
        for _ in range(100):
            a = CycNumber(n, [Fraction(rng.randint(-2, 2)) for _ in range(phi)])
            b = CycNumber(n, [Fraction(rng.randint(-2, 2)) for _ in range(phi)])
            assert embed(a * b, m) == embed(a, m) * embed(b, m)
            assert embed(a + b, m) == embed(a, m) + embed(b, m)


def test_canonical_idempotent():
    z = root_of_unity(12, 7)
    again = CycNumber(12, z.coeffs)
    assert again == z and again.coeffs == z.coeffs


def test_json_round_trip():
    x = root_of_unity(20, 7) * Fraction(3, 7) - 2
    assert cyc_from_json(cyc_to_json(x)) == x


# -- property tests of the kernel against a plain polynomial oracle ----------


KERNEL_CONDUCTORS = (1, 2, 4, 12, 20, 28)


@lru_cache(maxsize=None)
def _oracle_modulus(n: int) -> tuple[int, ...]:
    """Phi_n, low degree first, by exact division of t^n - 1 by each Phi_d, d | n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = _oracle_modulus(d)
        quot = [0] * (len(num) - len(den) + 1)
        for i in range(len(quot) - 1, -1, -1):
            quot[i] = c = num[i + len(den) - 1]
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
        assert not any(num)
        num = quot
    return tuple(num)


def _oracle_mul(a: list, b: list, n: int) -> list:
    """a*b mod Phi_n on Fraction coefficient lists."""
    mod = _oracle_modulus(n)
    phi = len(mod) - 1
    prod = [Fraction(0)] * (2 * phi - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(len(prod) - 1, phi - 1, -1):
        c = prod[d]
        for j, mj in enumerate(mod):
            prod[d - phi + j] -= c * mj
    return prod[:phi]


_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def _coeff_lists(draw, n):
    """Fraction coefficients of a zero, rational, sparse or full element."""
    phi = euler_phi(n)
    shape = draw(st.sampled_from(("zero", "rational", "sparse", "full")))
    if shape == "zero":
        return [Fraction(0)] * phi
    if shape == "rational":
        return [draw(_rationals)] + [Fraction(0)] * (phi - 1)
    if shape == "sparse":
        out = [Fraction(0)] * phi
        for k in draw(st.lists(st.integers(0, phi - 1), min_size=1, max_size=2)):
            out[k] = draw(_rationals)
        return out
    return draw(st.lists(_rationals, min_size=phi, max_size=phi))


@st.composite
def _operand_pairs(draw):
    n = draw(st.sampled_from(KERNEL_CONDUCTORS))
    return n, draw(_coeff_lists(n)), draw(_coeff_lists(n))


def _assert_canonical(x: CycNumber, expected: list) -> None:
    assert list(x.coeffs) == expected
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert x.den == 1 or any(x.num)
    assert hash(x) == hash((x.conductor, tuple(expected)))
    assert CycNumber(x.conductor, x.coeffs) == x


_KERNEL = settings(max_examples=150, deadline=None)


@_KERNEL
@given(_operand_pairs())
def test_property_ring_ops_match_oracle(case):
    n, xs, ys = case
    x, y = CycNumber(n, xs), CycNumber(n, ys)
    _assert_canonical(x, xs)
    _assert_canonical(x * y, _oracle_mul(xs, ys, n))
    _assert_canonical(x + y, [a + b for a, b in zip(xs, ys)])
    _assert_canonical(x - y, [a - b for a, b in zip(xs, ys)])
    _assert_canonical(-x, [-a for a in xs])
    _assert_canonical(x * ys[0], [a * ys[0] for a in xs])


@_KERNEL
@given(_operand_pairs())
def test_property_inverse_matches_oracle(case):
    n, xs, _ = case
    x = CycNumber(n, xs)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    _assert_canonical(inv, list(inv.coeffs))
    assert _oracle_mul(xs, list(inv.coeffs), n) == [Fraction(1)] + [Fraction(0)] * (len(xs) - 1)
    assert x * inv == 1 and x * inv == CycNumber.one(n)


@_KERNEL
@given(_operand_pairs())
def test_property_equality_is_equality_of_coefficients(case):
    n, xs, ys = case
    x, y = CycNumber(n, xs), CycNumber(n, ys)
    assert (x == y) == (xs == ys)
    same = (x + y) - y
    assert same == x and hash(same) == hash(x)
    assert CycNumber(n, [str(c) for c in xs]) == x
    assert (x == xs[0]) == all(c == 0 for c in xs[1:])


# -- the JSON codec -----------------------------------------------------------


@st.composite
def _json_elements(draw):
    n = draw(st.sampled_from((1, 3, 4, 12, 20)))
    return n, draw(_coeff_lists(n))


@_KERNEL
@given(_json_elements())
def test_property_cyc_to_json_prints_each_coefficient_as_fraction_does(case):
    n, xs = case
    x = CycNumber(n, xs)
    printed = [f"{c.numerator}/{c.denominator}" for c in x.coeffs]
    assert cyc_to_json(x) == {"conductor": n, "coeffs": printed}
    assert cyc_from_json(cyc_to_json(x)) == x


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_coefficient_is_a_value_error(bad):
    with pytest.raises(ValueError):
        cyc_from_json({"conductor": 3, "coeffs": [bad, "0/1"]})
