"""Multiplication by one: the canonical 1 of each conductor, and the kernels that skip it.

The kernels skip a product when a factor `is CycNumber.one(N)`, and read a
basis vector's image straight off a table.  Each must give what the plain
products of conftest give, for coefficients that are the canonical 1, a
separate object equal to 1 (which takes the general path), -1, zero and
multiples of roots of unity.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (build, plain_antipode, plain_compose, plain_counit, plain_delta, plain_mult,
                      plain_tensor_mult)
from hopfkit import hopf
from hopfkit.cyclotomic import CycNumber, cyc_from_json, cyc_to_json, euler_phi, root_of_unity
from hopfkit.hopf import dual
from hopfkit.linalg import EchelonBasis, accumulate, combine_columns, compose_columns
from hopfkit.repsolver import RepModule

_ALGEBRAS = {"taft": {"n": 3}, "b8": {}, "h8p": {"p": 3}}
_CASES = [(name, side) for name in _ALGEBRAS for side in ("h", "dual")]


def _algebra(name, side):
    """The algebra and its modules: the catalog's simples on h, and the left regular module."""
    h, cd = build(name, **_ALGEBRAS[name])
    h = h if side == "h" else dual(h)
    regular = RepModule("regular", h.dim, [h.mult[i] for i in range(h.dim)])
    return h, (cd.simples if side == "h" else []) + [regular]


def other_one(n):
    """A CycNumber equal to 1 that is not the canonical CycNumber.one(n)."""
    return CycNumber(n, [1] + [0] * (euler_phi(n) - 1))


def coefficients(n):
    return st.one_of(
        st.sampled_from([CycNumber.one(n), other_one(n), CycNumber.from_rational(n, -1),
                         CycNumber.zero(n)]),
        st.builds(lambda c, k: CycNumber.from_rational(n, c) * root_of_unity(n, k),
                  st.sampled_from([1, -1, 2, Fraction(-1, 2)]), st.integers(0, n - 1)))


def plain_combination(m, vec):
    """The action of sum c e_k over vec = {k: c}, summed entry by entry."""
    out = [{} for _ in range(m.dim)]
    for k, c in vec.items():
        for acc, col in zip(out, m.action[k]):
            for r, a in col.items():
                accumulate(acc, r, c * a)
    return out


class PlainEchelon:
    """Gauss-Jordan on sparse rows with every product multiplied out: EchelonBasis's reference."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        v = {k: x for k, x in vec.items() if not x.is_zero()}
        for c, row in self.rows.items():
            if c in v:
                f = v[c]
                for k, b in row.items():
                    accumulate(v, k, -(f * b))
        return v

    def add(self, vec):
        v = self.reduce(vec)
        if not v:
            return False
        c = min(v)
        inv = v[c].inverse()
        v = {k: inv * x for k, x in v.items()}
        for row in self.rows.values():
            if c in row:
                f = row[c]
                for k, b in v.items():
                    accumulate(row, k, -(f * b))
        self.rows[c] = v
        return True


@st.composite
def kernel_cases(draw):
    name, side = draw(st.sampled_from(_CASES))
    h, modules = _algebra(name, side)
    coeff = coefficients(h.conductor)
    index = st.integers(0, h.dim - 1)
    vector = st.dictionaries(index, coeff, max_size=3)
    tensor = st.dictionaries(st.tuples(index, index), coeff, max_size=3)
    m = draw(st.sampled_from(modules))
    cols = draw(st.lists(vector, min_size=1, max_size=3))
    return (h, m, draw(vector), draw(vector), draw(tensor), draw(tensor), cols,
            draw(st.dictionaries(index, coeff, max_size=2)))


@settings(max_examples=80, deadline=None)
@given(kernel_cases())
def test_property_kernels_match_the_plain_products(case):
    h, m, u, v, t1, t2, cols, vec = case
    assert h.mult_dict(u, v) == plain_mult(h, u, v)
    assert h.counit_of(u) == plain_counit(h, u)
    assert h.delta_dict(u) == plain_delta(h, u)
    assert h.tensor_mult(t1, t2) == plain_tensor_mult(h, t1, t2)
    du, dv = h.delta_dict(u), h.delta_dict(v)
    assert h.tensor_mult(du, dv) == plain_tensor_mult(h, du, dv)
    assert h.antipode_dict(u) == plain_antipode(h, u)
    assert compose_columns(h.antipode, cols) == plain_compose(h.antipode, cols)
    table = h.mult[min(u, default=0)]
    assert compose_columns(table, cols) == plain_compose(table, cols)
    assert combine_columns(m.action, vec) == plain_combination(m, vec)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_property_echelon_basis_matches_plain_gauss_jordan(data):
    n = data.draw(st.sampled_from([3, 8, 12]))
    vector = st.dictionaries(st.integers(0, 5), coefficients(n), max_size=4)
    eb, plain = EchelonBasis(), PlainEchelon()
    for vec in data.draw(st.lists(vector, max_size=6)):
        assert eb.add(vec) == plain.add(vec)
    assert eb.pivots == plain.rows
    assert all(row[c] is CycNumber.one(n) for c, row in eb.pivots.items())
    probe = data.draw(vector)
    assert eb.reduce(probe) == plain.reduce(probe)


def test_basis_vectors_give_the_table_rows_themselves():
    # a canonical 1 reads the table; an equal 1 that is another object computes the same columns
    for name, side in _CASES:
        h, modules = _algebra(name, side)
        image = hopf._left_columns(h)
        for i in range(h.dim):
            assert image({i: other_one(h.conductor)}) == h.mult[i]
            for m in modules:
                assert combine_columns(m.action, h.basis_dict(i)) is m.action[i]
                assert combine_columns(m.action, {i: other_one(h.conductor)}) == m.action[i]


def test_basis_images_are_read_off_the_table_with_no_product(monkeypatch):
    h, _ = build("h8p", p=3)
    calls = []
    mul = CycNumber.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(CycNumber, "__mul__", counting_mul)
    monkeypatch.setattr(CycNumber, "__rmul__", counting_mul)
    image = hopf._left_columns(h)
    for i in range(h.dim):
        assert image(h.basis_dict(i)) is h.mult[i]
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_values_equal_to_one_are_the_canonical_one(data):
    n = data.draw(st.sampled_from([1, 2, 3, 4, 8, 12, 20]))
    one, other = CycNumber.one(n), other_one(n)
    z = data.draw(coefficients(n).filter(lambda c: not c.is_zero()))
    assert z * z.inverse() is one
    assert one * z is z
    assert other is not one and other == one and hash(other) == hash(one)
    assert {other: 0} == {one: 0}
    assert -(-one) is one and (one + one) - one is one
    assert root_of_unity(n, 0) is one and root_of_unity(n, n) is one
    assert CycNumber.from_rational(n, 1) is one
    assert cyc_from_json(cyc_to_json(other)) is one
