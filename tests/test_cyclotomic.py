import gc
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit import cli, cyclotomic
from hopfkit.cyclotomic import (
    _INTERN,
    _MEMO,
    _TABLE_BOUND,
    CycNumber,
    _add,
    _mul,
    _neg,
    _sub,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
)


def test_cyclotomic_polynomial_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)          # t - 1
    assert cyclotomic_polynomial(2) == (1, 1)           # t + 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)        # t^2 + 1
    assert cyclotomic_polynomial(3) == (1, 1, 1)


def _dense_reduction_rows(n):
    """t^d mod Phi_n for d = phi .. 2 phi - 2 as dense coefficient lists, each row
    the previous one times t with its top coefficient folded back."""
    phi = euler_phi(n)
    base = [-c for c in cyclotomic_polynomial(n)[:phi]]
    rows = [base]
    for _ in range(phi - 2):
        cur = rows[-1]
        rows.append([s + cur[-1] * b for s, b in zip([0] + cur[:-1], base)])
    return rows


@pytest.mark.parametrize("n", list(range(1, 121)) + [256, 1000, 2310])
def test_reduction_rows_match_the_dense_recurrence(n):
    from hopfkit.cyclotomic import _reduction_rows

    assert _reduction_rows(n) == tuple(tuple((k, c) for k, c in enumerate(row) if c)
                                       for row in _dense_reduction_rows(n))


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


# -- the interned values and the field-op memo ----------------------------------


def _keyed(v):
    """The object the memo keys the operand v by: its interned twin."""
    if v is None:
        return None
    if v.is_one():
        return CycNumber.one(v.conductor)
    return _INTERN.get((v.conductor, v.num, v.den), v)


def _memo_holds(op, a, b, result) -> bool:
    """The memo's entry for op(a, b) exists and holds a's and b's twins and result."""
    a, b = _keyed(a), _keyed(b)
    entry = _MEMO.get((op, id(a), id(b)))
    return entry is not None and entry[0] is a and entry[1] is b and entry[2] is result


@_KERNEL
@given(_operand_pairs())
def test_property_a_repeated_product_is_the_shared_value(case):
    n, xs, ys = case
    _INTERN.clear()  # so that no table is cleared in the few ops below
    _MEMO.clear()
    x, y = CycNumber(n, xs), CycNumber(n, ys)
    first = x * y
    if not (x.is_one() or y.is_one()):
        # a repeat on the same objects is a memo hit: no entry is added
        size = len(_MEMO)
        assert x * y is first and len(_MEMO) == size and _memo_holds(_mul, x, y, first)
    again = CycNumber(n, xs) * CycNumber(n, ys)  # equal operands, new objects
    expected = _oracle_mul(xs, ys, n)
    _assert_canonical(first, expected)
    _assert_canonical(again, expected)
    if not (x.is_one() or y.is_one()):
        # products by 1 return the other factor itself and skip the memo;
        # any other product is the one interned value
        assert again is first


@pytest.mark.parametrize("n", [2, 12, 20])
def test_a_product_equal_to_one_is_the_canonical_one(n):
    z = root_of_unity(n, 1) * Fraction(-2, 3)
    for _ in range(2):  # computed, then read from the cache
        assert z * z.inverse() is CycNumber.one(n)
        assert CycNumber.from_rational(n, -1) * CycNumber.from_rational(n, -1) is CycNumber.one(n)


def test_a_mixed_conductor_product_raises_and_caches_nothing():
    a, b = root_of_unity(3, 1), root_of_unity(4, 1)
    memo, interned = dict(_MEMO), dict(_INTERN)
    with pytest.raises(ValueError, match="conductor mismatch"):
        a * b
    assert _MEMO == memo and _INTERN == interned


def test_the_product_cache_is_bounded():
    assert type(_TABLE_BOUND) is int and _TABLE_BOUND > 0
    z = root_of_unity(3, 1)
    sizes = set()
    for k in range(1, 2 * _TABLE_BOUND + 2):
        assert z * k == CycNumber(3, [0, k])
        sizes.add((len(_MEMO), len(_INTERN)))
    # each table filled up to its bound and was cleared, never growing past it;
    # a product interns two values, k and k z, so the table may stop one short
    assert max(m for m, _ in sizes) == _TABLE_BOUND
    assert _TABLE_BOUND - 1 <= max(i for _, i in sizes) <= _TABLE_BOUND



@_KERNEL
@given(_operand_pairs(), st.sampled_from((1, 2, 3, 7, 12)))
def test_property_sums_differences_and_negations_match_the_oracle(case, scale):
    n, xs, ys = case
    ys = [c / scale for c in ys]  # denominators unlike xs'
    x, y = CycNumber(n, xs), CycNumber(n, ys)
    for _ in range(2):  # computed, then read from the cache
        _assert_canonical(x + y, [a + b for a, b in zip(xs, ys)])
        _assert_canonical(x - y, [a - b for a, b in zip(xs, ys)])
        _assert_canonical(y - x, [b - a for a, b in zip(xs, ys)])
        _assert_canonical(-y, [-b for b in ys])
        _assert_canonical(x - x, [Fraction(0)] * len(xs))
        _assert_canonical(-x + x, [Fraction(0)] * len(xs))


@_KERNEL
@given(_operand_pairs())
def test_property_a_repeated_sum_difference_or_negation_is_the_shared_value(case):
    n, xs, ys = case
    _INTERN.clear()  # so that no table is cleared in the few ops below
    _MEMO.clear()
    for op, key_op, cached in ((operator.add, _add, any(xs) and any(ys)),
                               (operator.sub, _sub, any(ys)), (lambda a, b: -a, _neg, True)):
        x, y = CycNumber(n, xs), CycNumber(n, ys)
        first = op(x, y)
        if cached:
            # x + 0, 0 + x and x - 0 return an operand itself and skip the memo;
            # any other repeat on the same objects is a memo hit
            size = len(_MEMO)
            assert op(x, y) is first and len(_MEMO) == size
            assert _memo_holds(key_op, x, None if key_op is _neg else y, first)
        again = op(CycNumber(n, xs), CycNumber(n, ys))  # equal operands, new objects
        assert again == first
        if cached:
            assert again is first


@pytest.mark.parametrize("n", [2, 12, 20])
def test_a_sum_equal_to_one_is_the_canonical_one(n):
    z = root_of_unity(n, 1) * Fraction(-2, 3)
    one = CycNumber.one(n)
    for _ in range(2):  # computed, then read from the cache
        assert z + (one - z) is one
        assert (z + one) - z is one
        assert -CycNumber.from_rational(n, -1) is one


def test_a_mixed_conductor_sum_raises_and_caches_nothing():
    a, b = root_of_unity(3, 1), root_of_unity(4, 1)
    memo, interned = dict(_MEMO), dict(_INTERN)
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="conductor mismatch"):
            op(a, b)
    assert _MEMO == memo and _INTERN == interned


def test_sums_and_products_share_one_bounded_cache():
    z, five = root_of_unity(3, 1), CycNumber.from_rational(3, 5)
    _MEMO.clear()
    product = z * five
    assert list(_MEMO) == [(_mul, id(z), id(five))]
    for k in range(1, _TABLE_BOUND):
        assert z + k == CycNumber(3, [k, 1])
    assert len(_MEMO) == _TABLE_BOUND and _memo_holds(_mul, z, five, product)
    # one more sum clears the memo whole, the product with it: it is computed again
    assert z + _TABLE_BOUND == CycNumber(3, [_TABLE_BOUND, 1])
    assert len(_MEMO) == 1 and (_mul, id(z), id(five)) not in _MEMO
    assert z * five == CycNumber(3, [0, 5]) and len(_MEMO) == 2


def test_an_inverse_is_memoised():
    z = root_of_unity(20, 3) + Fraction(1, 2)
    inv = z.inverse()
    size = len(_MEMO)
    assert z.inverse() is inv and len(_MEMO) == size
    assert _memo_holds(cyclotomic._inverse, z, None, inv)
    assert z * inv is CycNumber.one(20)


@_KERNEL
@given(_operand_pairs(), st.integers(min_value=1, max_value=4))
def test_property_ops_stay_exact_when_the_tables_clear_mid_computation(case, bound):
    n, xs, ys = case
    one = CycNumber.one(n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclotomic, "_TABLE_BOUND", bound)
        x, y = CycNumber(n, xs), CycNumber(n, ys)
        for _ in range(2):  # the second pass meets tables cleared by the first
            _assert_canonical(x * y, _oracle_mul(xs, ys, n))
            _assert_canonical(x + y, [a + b for a, b in zip(xs, ys)])
            _assert_canonical(x - y, [a - b for a, b in zip(xs, ys)])
            if any(xs):
                inv = x.inverse()
                assert _oracle_mul(xs, list(inv.coeffs), n) == [1] + [0] * (len(xs) - 1)
                assert x * inv == one and inv * x == one
                if not x.is_one():  # a 1 from the public constructor is not the canonical one
                    assert x * inv is one and inv * x is one
            assert one * one is one and -(-one) is one and one + (one - one) is one
            assert len(_MEMO) <= bound and len(_INTERN) <= bound
        before = x * y
        _MEMO.clear()
        _INTERN.clear()
        after = CycNumber(n, xs) * CycNumber(n, ys)  # the same value, built anew
        assert after == before and before == after and hash(after) == hash(before)
        assert len({before, after}) == 1
        assert CycNumber.one(n) is one


def test_a_reused_id_never_reads_a_stale_entry():
    n = 12
    x, y = CycNumber(n, [1, 2, 0, 3]), CycNumber(n, [0, 1, 1, 0])
    product = x * y
    key = (_mul, id(x), id(y))
    del x, y
    gc.collect()
    # the entry holds its operands, so their ids are not handed out again
    # while it is a key
    held = _MEMO[key]
    assert (id(held[0]), id(held[1])) == key[1:] and held[2] is product
    del held
    assert all(id(a) == ka and id(b) == kb for (_, ka, kb), (a, b, _) in _MEMO.items())
    # once the memo lets them go, new operands may take the freed ids
    _MEMO.clear()
    gc.collect()
    for k in range(1, 50):
        a, b = CycNumber(n, [k, 0, 1, 0]), CycNumber(n, [0, k, 0, 1])
        assert list((a * b).coeffs) == _oracle_mul(list(a.coeffs), list(b.coeffs), n)
        assert list((a + b).coeffs) == [Fraction(k), Fraction(k), Fraction(1), Fraction(1)]
        assert list((-a).coeffs) == [Fraction(-k), 0, Fraction(-1), 0]


def test_a_certificate_is_unchanged_when_the_tables_clear_every_few_ops(capsys):
    argv = ["certify", "taft", "--n", "3"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclotomic, "_TABLE_BOUND", 3)
        _MEMO.clear()  # so no op of the first run is a hit
        _INTERN.clear()
        assert cli.main(argv) == 0
        assert len(_MEMO) <= 3 and len(_INTERN) <= 3
    assert capsys.readouterr().out == expected


def test_the_tables_stay_bounded_through_a_certificate(capsys):
    assert cli.main(["certify", "h8p", "--p", "5"]) == 0
    capsys.readouterr()
    assert 0 < len(_MEMO) <= _TABLE_BOUND and 0 < len(_INTERN) <= _TABLE_BOUND


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
