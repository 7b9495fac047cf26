import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit import catalog

from conftest import build
from hopfkit import hopf
from hopfkit.hopf import (
    Element,
    HopfAlgebraData,
    antipode_order,
    dual,
    generators,
    is_semisimple,
    s_squared_order,
    tensor_product,
    tr_s_squared,
    verify_algebra,
    verify_antipode,
    verify_bialgebra,
    verify_coalgebra,
    verify_hopf,
)
from hopfkit.cyclotomic import CycNumber, root_of_unity
from hopfkit.linalg import Matrix
from hopfkit.repsolver import RepModule, verify_module


def test_group_algebra_c2_passes():
    h, _ = build("c_n", n=2)
    assert verify_hopf(h).ok


def test_sweedler_algebra_passes():
    h, _ = build("taft", n=2)
    assert verify_hopf(h).ok


def test_mutated_sweedler_fails_coassociativity():
    h, _ = build("taft", n=2)
    # drop the g (x) x term from Delta(x); x sits at basis index 2
    broken = [tr if i != 2 else [t for t in tr if t[:2] != (1, 2)]
              for i, tr in enumerate(h.comult)]
    h2 = type(h)(h.dim, h.conductor, h.labels, h.mult, h.unit, broken, h.counit, h.antipode)
    rep = verify_coalgebra(h2)
    assert not rep.ok
    assert any("x" in f for f in rep.failures)


def test_identity_antipode_fails_on_sweedler():
    h, _ = build("taft", n=2)
    h2 = type(h)(h.dim, h.conductor, h.labels, h.mult, h.unit, h.comult, h.counit,
                 [{i: h.one()} for i in range(h.dim)])
    assert verify_algebra(h2).ok
    assert not verify_antipode(h2).ok


def test_dual_is_involution_on_the_nose():
    for maker in (lambda: build("taft", n=2), lambda: build("fun-dic", p=3),
                  lambda: build("dihedral", n=3)):
        h, _ = maker()
        assert dual(dual(h)) is h
        # the transposition itself, on a copy that does not know its dual
        d = dual(h)
        fresh = type(h)(d.dim, d.conductor, d.labels, d.mult, d.unit, d.comult, d.counit,
                        d.antipode)
        assert dual(fresh).same_tensors(h)


def test_dual_back_reference_is_weak():
    """h and dual(h) form no reference cycle, so h is freed without the cyclic collector."""
    import gc
    import weakref

    enabled = gc.isenabled()
    gc.disable()
    try:
        h = catalog.build_family("taft", {"n": 2})[0]  # uncached: this test frees it
        d = dual(h)
        assert dual(d) is h
        h_ref = weakref.ref(h)
        del h
        assert h_ref() is None
        # d outlives h: its dual is computed afresh, then kept
        h2 = dual(d)
        assert h2.same_tensors(catalog.build_family("taft", {"n": 2})[0])
        assert dual(d) is h2 and dual(h2) is d
        d_ref = weakref.ref(d)
        del d
        assert d_ref() is None  # h2 holds its own dual weakly too
    finally:
        if enabled:
            gc.enable()


def test_dual_of_group_algebra_is_commutative():
    h, _ = build("dicyclic", n=3)
    d = dual(h)
    assert verify_hopf(d).ok
    assert d.dim == 12
    for i in range(d.dim):
        for j in range(i + 1, d.dim):
            assert d.mult[i][j] == d.mult[j][i]


def test_dual_of_taft_passes_and_has_skew_primitive():
    from hopfkit.invariants import skew_primitive_space

    h, _ = build("taft", n=3)
    d = dual(h)
    assert verify_hopf(d).ok
    # characters of T_q are the group-likes of the dual; find a nontrivial pair
    chars = [Element(d, [m.action[i].entries[0][0] for i in range(h.dim)])
             for m in build("taft", n=3)[1].simples]
    assert all(c.is_grouplike() for c in chars)
    found = any(
        skew_primitive_space(d, a, b).dim > 1
        for a in chars for b in chars
    )
    assert found


def test_tensor_product_dims_and_group_case():
    t, _ = build("taft", n=2)
    c3, _ = build("c_n", n=3)
    h = tensor_product(t, c3)
    assert h.dim == 12
    assert verify_hopf(h).ok
    # tensor of group algebras = group algebra of the product
    c2, _ = build("c_n", n=2)
    prod = tensor_product(c2, c3)
    direct, _ = catalog.group_algebra(("product", (2, 3)))
    assert prod.dim == direct.dim == 6
    assert verify_hopf(prod).ok
    assert sorted(tuple(sorted(d.items())) for row in prod.mult for d in row) == \
           sorted(tuple(sorted(d.items())) for row in direct.mult for d in row)


def test_h_tensor_base_field_is_h():
    h, _ = build("taft", n=2)
    k, _ = build("c_n", n=1)
    hk = tensor_product(h, k)
    assert hk.same_tensors(h)


def test_element_ops_in_h8p():
    h, cd = build("h8p", p=3, alpha=1)
    unit = Element.unit(h)
    a = Element.basis(h, 2 * 3)          # a = index 2p in the z-degree-0 block
    z = Element.basis(h, h.dim // 2)     # first z-monomial
    assert (unit * a).coeffs == a.coeffs
    assert (z * z).coeffs == (a - unit).coeffs
    g = cd.grouplikes[1]
    assert (g ** 4).coeffs == unit.coeffs
    assert (g ** 2).coeffs == a.coeffs
    assert g.inverse() is not None
    assert (g.inverse() * g).coeffs == unit.coeffs


def test_element_inverse_absent():
    h, _ = build("taft", n=2)
    x = Element.basis(h, 2)
    assert x.inverse() is None


def test_tr_s_squared_values():
    c6, _ = build("c_n", n=6)
    assert tr_s_squared(c6) == 6
    h4, _ = build("taft", n=2)
    assert tr_s_squared(h4).is_zero()
    assert not is_semisimple(h4)
    assert is_semisimple(c6)


def test_antipode_orders():
    c6, _ = build("c_n", n=6)
    assert antipode_order(c6) == 2
    klein, _ = build("product", ns="2,2")
    assert antipode_order(klein) == 1
    am10, _ = build("a-m10", p=3)
    assert antipode_order(am10) == 4
    assert s_squared_order(am10) == 2
    h8, _ = build("h8p", p=3, alpha=1)
    # no printed value exists for this one; just record that it is finite
    assert antipode_order(h8) in (4, 8)


def test_nichols_zoeller_divisibility():
    for h, cd in [build("taft", n=2), build("fun-dic", p=3), build("h8p", p=3, alpha=1),
                  build("a4p", p=3), build("a-m11", p=3)]:
        assert h.dim % len(cd.grouplikes) == 0


def test_json_round_trip_bit_exact():
    import json

    from hopfkit import io as hio

    h, cd = build("taft", n=3)
    blob = json.dumps(hio.hopf_to_json(h), sort_keys=True)
    h2 = hio.hopf_from_json(json.loads(blob))
    assert h2.same_tensors(h)
    blob2 = json.dumps(hio.hopf_to_json(h2), sort_keys=True)
    assert blob == blob2


def test_tr_s_squared_is_group_order():
    for name, kw, order in [("c_n", {"n": 6}, 6), ("dihedral", {"n": 3}, 6),
                            ("dicyclic", {"n": 3}, 12), ("q8", {}, 8),
                            ("gamma4p", {"p": 5}, 20), ("product", {"ns": "2,2"}, 4)]:
        h, _ = build(name, **kw)
        assert tr_s_squared(h) == order


# -- the pair-set verifiers against all-pairs / all-triples reference loops ----


def algebra_ok_direct(h):
    """Unit laws and (e_i e_j) e_k = e_i (e_j e_k) over every basis triple."""
    unit = h.unit_dict()
    for j in range(h.dim):
        ej = h.basis_dict(j)
        if h.mult_dict(unit, ej) != ej or h.mult_dict(ej, unit) != ej:
            return False
    return all(h.mult_dict(h.mult[i][j], h.basis_dict(k)) ==
               h.mult_dict(h.basis_dict(i), h.mult[j][k])
               for i in range(h.dim) for j in range(h.dim) for k in range(h.dim))


def bialgebra_ok_direct(h):
    """Delta and eps unital and multiplicative over every basis pair."""
    unit = h.unit_dict()
    one_one = {(i, j): a * b for i, a in unit.items() for j, b in unit.items()}
    if h.delta_dict(unit) != one_one or not h.counit_of(unit).is_one():
        return False
    for i in range(h.dim):
        for j in range(h.dim):
            prod = h.mult[i][j]
            if h.counit_of(prod) != h.counit[i] * h.counit[j]:
                return False
            if h.delta_dict(prod) != h.tensor_mult(h.delta_dict(h.basis_dict(i)),
                                                   h.delta_dict(h.basis_dict(j))):
                return False
    return True


def module_ok_direct(h, m):
    """1 acts as identity and e_i . e_j acts as sum_k c_k e_k over every basis pair."""
    def act(vec):
        out = Matrix(m.dim, m.dim, h.conductor)
        for k, c in vec.items():
            out = out + m.action[k].scale(c)
        return out

    if act(h.unit_dict()) != Matrix.identity(m.dim, h.conductor):
        return False
    return all(m.action[i] * m.action[j] == act(h.mult[i][j])
               for i in range(h.dim) for j in range(h.dim))


_SMALL = [("taft", {"n": 3}), ("b8", {}), ("a-m11", {"p": 3})]


def _copy(h):
    return type(h)(h.dim, h.conductor, h.labels, [[dict(d) for d in row] for row in h.mult],
                   h.unit, [list(tr) for tr in h.comult], h.counit, h.antipode)


@st.composite
def perturbations(draw):
    """One catalog algebra (or module) with one structure constant set to a small value."""
    name, params = draw(st.sampled_from(_SMALL))
    h, cd = build(name, **params)
    return _perturbed(draw, h, cd)


def _perturbed(draw, h, cd):
    """(kind, algebra, module or None) with one mult, comult or module-action constant redrawn."""
    n = h.conductor
    value = draw(st.sampled_from([CycNumber.zero(n), CycNumber.one(n),
                                  CycNumber.from_rational(n, -1), CycNumber.from_rational(n, 2),
                                  root_of_unity(n, 1)]))
    index = st.integers(0, h.dim - 1)
    kind = draw(st.sampled_from(["mult", "comult", "module"]))
    if kind == "mult":
        h = _copy(h)
        i, j, k = draw(index), draw(index), draw(index)
        h.mult[i][j].pop(k, None)
        if not value.is_zero():
            h.mult[i][j][k] = value
        return kind, h, None
    if kind == "comult":
        h = _copy(h)
        i, j, k = draw(index), draw(index), draw(index)
        kept = [t for t in h.comult[i] if t[:2] != (j, k)]
        h.comult[i] = kept + ([] if value.is_zero() else [(j, k, value)])
        return kind, h, None
    m = draw(st.sampled_from(cd.simples))
    i = draw(index)
    r, c = draw(st.integers(0, m.dim - 1)), draw(st.integers(0, m.dim - 1))
    action = list(m.action)
    action[i] = Matrix(m.dim, m.dim, n, m.action[i].entries)
    action[i].entries[r][c] = value
    return kind, h, RepModule(m.label, m.dim, action)


@settings(max_examples=80, deadline=None)
@given(perturbations())
def test_property_verifiers_agree_with_direct_loops(case):
    kind, h, m = case
    if kind == "module":
        assert verify_module(h, m)[0] == module_ok_direct(h, m)
    else:
        assert verify_algebra(h).ok == algebra_ok_direct(h)
        assert verify_bialgebra(h).ok == bialgebra_ok_direct(h)


def test_direct_loops_pass_the_unperturbed_algebras():
    for name, params in _SMALL:
        h, cd = build(name, **params)
        assert algebra_ok_direct(h) and bialgebra_ok_direct(h)
        assert all(module_ok_direct(h, m) for m in cd.simples)


def test_zero_maps_fail_only_the_unit_check():
    # the zero map is multiplicative, so only the unit witness can catch it
    h, _ = build("taft", n=3)
    zero = RepModule("zero", 1, [Matrix(1, 1, h.conductor)] * h.dim)
    assert verify_module(h, zero) == (False, "unit does not act as identity")
    h2 = type(h)(h.dim, h.conductor, h.labels, h.mult, h.unit, h.comult,
                 [h.zero()] * h.dim, h.antipode)
    assert verify_bialgebra(h2).failures == ["eps(1) != 1"]


# -- generators(h) and the pair loops reduced to it ---------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_h8p_is_generated_by_x_a_z(p):
    h, _ = build("h8p", p=p)
    assert generators(h) == [1, 2 * p, 4 * p]
    assert [h.labels[i] for i in generators(h)] == ["x", "a", "z"]


def test_function_algebra_of_a_group_falls_back_to_every_index():
    # k^G: 1 and |G| - 1 idempotents would do, more than half the basis
    h, _ = build("dual-group", group="dihedral", n=4)
    assert generators(h) == list(range(h.dim))
    assert verify_algebra(h).ok


def _with_product(h, i, j, value):
    """A copy of h with e_i e_j = value, a sparse coefficient dict."""
    h = _copy(h)
    h.mult[i][j] = value
    return h


def test_left_unit_and_light_test_alone_do_not_certify():
    # 1 = u, e u = 0: the left unit law and Light's test on A = {e} hold,
    # yet (e u) e = 0 != e = e (u e); only the right unit law check sees it
    one, zero = CycNumber.one(1), CycNumber.zero(1)
    h = HopfAlgebraData(2, 1, ["u", "e"], [[{0: one}, {1: one}], [{}, {1: one}]], [one, zero],
                        [[], []], [one, zero], [{0: one}, {1: one}])
    assert generators(h) == [0, 1]
    assert not algebra_ok_direct(h)
    assert verify_algebra(h).failures[0] == "right unit law fails at e"


@pytest.mark.parametrize("side", ["left", "right"])
def test_broken_unit_law_falls_back_to_every_index(side):
    h, _ = build("taft", n=3)
    assert len(generators(h)) == 2
    x = h.labels.index("x")
    assert h.unit_dict() == {0: h.one()}
    broken = _with_product(h, *((0, x) if side == "left" else (x, 0)), {x: h.one() + h.one()})
    assert generators(broken) == list(range(h.dim))
    assert verify_algebra(broken).failures[0] == f"{side} unit law fails at x"


def test_broken_associativity_falls_back_to_every_index():
    h, _ = build("taft", n=3)
    g, x = h.labels.index("g"), h.labels.index("x")
    # x g = q g x becomes 2 q g x: the basis still closes, associativity does not
    doubled = {k: c + c for k, c in h.mult[x][g].items()}
    broken = _with_product(h, x, g, doubled)
    assert generators(broken) == list(range(h.dim))
    assert not algebra_ok_direct(broken)
    rep = verify_algebra(broken)
    assert not rep.ok and rep.failures[0].startswith("associativity fails at")


def _scaled_generator_module(h, module, exponent):
    """module with one generator's matrix scaled by 2, extended along the basis words.

    exponent(k) is that generator's exponent in the normal monomial of e_k.
    Every pair (e_k, a) with a another generator still holds; only pairs with
    a = the scaled generator can see the broken relation.
    """
    two = CycNumber.from_rational(h.conductor, 2)
    return RepModule("scaled", module.dim,
                     [m.scale(two ** exponent(k)) for k, m in enumerate(module.action)])


@pytest.mark.parametrize("generator", ["x", "z"])
def test_module_broken_at_one_generator_fails(generator):
    # basis z^e a^i x^j at index 4p e + 2p i + j; x^(2p) = 1 and z^2 = a - 1 break
    p = 3
    h, cd = build("h8p", p=p)
    exponent = (lambda k: k % (2 * p)) if generator == "x" else (lambda k: k // (4 * p))
    m = _scaled_generator_module(h, cd.extra["u_all"][0], exponent)
    assert not module_ok_direct(h, m)
    assert verify_module(h, m)[0] is False


@st.composite
def h8p_perturbations(draw):
    """h8p at p = 3 (3 generators of 24) or one of its simples, one constant redrawn."""
    h, cd = build("h8p", p=3)
    return _perturbed(draw, h, cd)


@settings(max_examples=30, deadline=None)
@given(h8p_perturbations())
def test_property_generator_reduced_verifiers_agree_on_h8p(case):
    kind, h, m = case
    if kind == "module":
        assert verify_module(h, m)[0] == module_ok_direct(h, m)
    else:
        assert verify_algebra(h).ok == algebra_ok_direct(h)
        assert verify_bialgebra(h).ok == bialgebra_ok_direct(h)


def test_verify_hopf_evaluates_order_dim_times_generators_pairs(monkeypatch):
    # a host-independent work bound: one compose_columns of two maps on the
    # whole basis per associativity pair (antipode_dict composes S with one
    # column, and is not counted) and one tensor_mult per Delta pair; all pairs
    # would be dim^2 = 1600 each
    h = _copy(build("h8p", p=5)[0])  # nothing derived remembered yet
    counts = {"compose_columns": 0, "tensor_mult": 0}
    compose, tensor = hopf.compose_columns, HopfAlgebraData.tensor_mult

    def counting_compose(a, b):
        counts["compose_columns"] += len(b) == h.dim
        return compose(a, b)

    def counting_tensor(self, t1, t2):
        counts["tensor_mult"] += 1
        return tensor(self, t1, t2)

    monkeypatch.setattr(hopf, "compose_columns", counting_compose)
    monkeypatch.setattr(HopfAlgebraData, "tensor_mult", counting_tensor)
    assert verify_hopf(h).ok
    assert len(generators(h)) == 3
    bound = 2 * h.dim * len(generators(h))
    assert 0 < counts["compose_columns"] <= bound
    assert 0 < counts["tensor_mult"] <= bound
