import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfkit import catalog
from hopfkit import io as hio
from hopfkit.cli import main

from conftest import (build, character, dense, dense_vector, difference, identity_matrix,
                      left_mult_matrix, plain_antipode, plain_counit, plain_delta, plain_mult,
                      plain_tensor_mult, power, same_tensors)
from hopfkit import hopf
from hopfkit.hopf import (
    HopfAlgebraData,
    VerifyReport,
    antipode_order,
    dual,
    generators,
    inverse,
    is_grouplike,
    is_semisimple,
    multiplicative,
    order,
    s_squared_order,
    tensor_product,
    tr_s_squared,
    verify_algebra,
    verify_antipode,
    verify_bialgebra,
    verify_coalgebra,
    verify_hopf,
    witness_failures,
)
from hopfkit.cyclotomic import CycNumber, root_of_unity
from hopfkit.groups import product_of_cyclics
from hopfkit.linalg import Matrix, accumulate
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
    broken = [t if i != 2 else {jk: c for jk, c in t.items() if jk != (1, 2)}
              for i, t in enumerate(h.comult)]
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
        assert same_tensors(dual(fresh), h)


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
        assert same_tensors(h2, catalog.build_family("taft", {"n": 2})[0])
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
    chars = [character(m) for m in build("taft", n=3)[1].simples]
    assert all(is_grouplike(d, c) for c in chars)
    found = any(
        skew_primitive_space(d, a, b).dim > 1
        for a in chars for b in chars
    )
    assert found


def test_rebase_by_the_identity_gives_the_same_tensors():
    h, _ = build("taft", n=3)
    assert same_tensors(hopf.rebase(h, list(range(h.dim)), [h.one()] * h.dim, h.labels), h)


def test_rebase_by_a_scaled_permutation_is_an_isomorphic_hopf_algebra():
    from hopfkit.invariants import invariant_report, verify_hopf_map

    h, _ = build("taft", n=3)
    old = [(5 * j + 2) % h.dim for j in range(h.dim)]
    scale = [CycNumber.from_rational(3, j + 1) * root_of_unity(3, j) for j in range(h.dim)]
    r = hopf.rebase(h, old, scale, [h.labels[i] for i in old])
    assert sorted(old) == list(range(h.dim)) and not same_tensors(r, h)
    assert verify_hopf(r).ok
    # e_old[j] = f_j / scale[j]
    assert verify_hopf_map(h, r, [{old.index(i): scale[old.index(i)].inverse()}
                                  for i in range(h.dim)]) == (True, None)
    assert hio.report_to_json(invariant_report(r)) == hio.report_to_json(invariant_report(h))


def test_tensor_product_dims_and_group_case():
    t, _ = build("taft", n=2)
    c3, _ = build("c_n", n=3)
    h = tensor_product(t, c3)
    assert h.dim == 12
    assert verify_hopf(h).ok
    # tensor of group algebras = group algebra of the product
    c2, _ = build("c_n", n=2)
    prod = tensor_product(c2, c3)
    direct, _ = catalog.group_algebra(product_of_cyclics([2, 3]))
    assert prod.dim == direct.dim == 6
    assert verify_hopf(prod).ok
    assert sorted(tuple(sorted(d.items())) for row in prod.mult for d in row) == \
           sorted(tuple(sorted(d.items())) for row in direct.mult for d in row)


def test_h_tensor_base_field_is_h():
    h, _ = build("taft", n=2)
    k, _ = build("c_n", n=1)
    hk = tensor_product(h, k)
    assert same_tensors(hk, h)


def test_element_ops_in_h8p():
    h, cd = build("h8p", p=3, alpha=1)
    unit = h.unit
    a = h.basis_dict(2 * 3)          # a = index 2p in the z-degree-0 block
    z = h.basis_dict(h.dim // 2)     # first z-monomial
    assert h.mult_dict(unit, a) == a
    assert h.mult_dict(z, z) == difference(a, unit)
    g = cd.grouplikes[1]
    assert power(g, 4, unit, h.mult_dict) == unit
    assert power(g, 2, unit, h.mult_dict) == a
    assert inverse(h, g) is not None
    assert h.mult_dict(inverse(h, g), g) == unit


def test_element_inverse_absent():
    h, _ = build("taft", n=2)
    x = h.basis_dict(2)
    assert inverse(h, x) is None


def dense_solve(a, b, zero):
    """One solution x of a x = b by dense Gauss-Jordan elimination, free variables 0, or None."""
    rows = [list(r) + [v] for r, v in zip(a, b)]
    n = len(rows[0]) - 1
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not row[c].is_zero():
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    if any(not row[n].is_zero() for row in rows[len(pivots):]):
        return None
    x = [zero] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return x


_INVERSE_ALGEBRAS = {"taft": {"n": 3}, "b8": {}, "h8p": {"p": 3}}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_INVERSE_ALGEBRAS)),
       st.dictionaries(st.integers(0, 23), st.integers(-2, 2), max_size=4))
@example("taft", {0: 1, 3: 1})           # 1 + x: invertible
@example("taft", {0: 1, 1: 1, 2: 1})     # 1 + g + g^2: a zero divisor
@example("b8", {1: 1, 2: 2})             # s + 2r
@example("h8p", {12: 1})                 # z, with z^2 = a - 1 and (a - 1)(a + 1) = 0
@example("h8p", {0: 2, 13: -1})          # 2 - zx
def test_property_inverse_matches_a_dense_solve(name, terms):
    h, _ = build(name, **_INVERSE_ALGEBRAS[name])
    u = {i % h.dim: CycNumber.from_rational(h.conductor, c) for i, c in terms.items() if c}
    x = dense_solve(left_mult_matrix(h, u).entries, dense_vector(h, h.unit), h.zero())
    inv = inverse(h, u)
    if x is None:
        assert inv is None
    else:
        # u x = 1 has at most one solution, and a right inverse is two-sided
        assert inv is not None and dense_vector(h, inv) == x
        assert h.mult_dict(inv, u) == h.unit


def dense_is_grouplike(h, u):
    """eps(u) = 1 and Delta u = u (x) u, on the dense vector of u and a dense dim x dim tensor."""
    v = dense_vector(h, u)
    eps = sum((c * x for c, x in zip(h.counit, v)), h.zero())
    delta = [[h.zero()] * h.dim for _ in range(h.dim)]
    for i, x in enumerate(v):
        for (j, k), c in h.comult[i].items():
            delta[j][k] = delta[j][k] + c * x
    return eps.is_one() and all(delta[j][k] == v[j] * v[k]
                                for j in range(h.dim) for k in range(h.dim))


def _grouplikes_on(name, side):
    """The catalog's group-likes, or on the dual side the characters of the simples."""
    h, cd = build(name, **_INVERSE_ALGEBRAS[name])
    if side == "h":
        return h, cd.grouplikes
    return dual(h), [character(m) for m in cd.simples if m.dim == 1]


_ORDER_BOUND = 8


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_INVERSE_ALGEBRAS)), st.sampled_from(["h", "dual"]),
       st.sampled_from(["sparse", "basis", "grouplike"]),
       st.dictionaries(st.integers(0, 23), st.integers(-2, 2), max_size=4),
       st.integers(0, 23), st.integers(0, 11))
def test_property_vector_functions_match_dense_oracles(name, side, kind, terms, i, k):
    """inverse, is_grouplike and order on a sparse u of taft n=3, b8, h8p p=3 or a dual:
    a random sparse vector, a basis vector times a root of unity, or a group-like."""
    h, grouplikes = _grouplikes_on(name, side)
    if kind == "sparse":
        u = {j % h.dim: CycNumber.from_rational(h.conductor, c) for j, c in terms.items() if c}
    elif kind == "basis":
        u = {i % h.dim: root_of_unity(h.conductor, k)}
    else:
        u = grouplikes[i % len(grouplikes)]
    x = dense_solve(left_mult_matrix(h, u).entries, dense_vector(h, h.unit), h.zero())
    inv = inverse(h, u)
    assert (inv is None) == (x is None)
    if inv is not None:
        assert dense_vector(h, inv) == x
    assert is_grouplike(h, u) == dense_is_grouplike(h, u)
    unit = h.unit
    expected = next((n for n in range(1, _ORDER_BOUND + 1)
                     if power(u, n, unit, h.mult_dict) == unit), None)
    assert order(h, u, _ORDER_BOUND) == expected
    if kind == "grouplike":
        assert is_grouplike(h, u) and expected is not None


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


def test_s_squared_is_composed_once_for_its_trace_and_its_order(monkeypatch):
    h = _copy(build("a-m10", p=3)[0])  # nothing derived remembered yet
    squarings = []
    compose = hopf.compose_columns

    def counting_compose(a, b):
        squarings.append(a is h.antipode and b is h.antipode)
        return compose(a, b)

    monkeypatch.setattr(hopf, "compose_columns", counting_compose)
    assert tr_s_squared(h).is_zero()
    assert s_squared_order(h) == 2
    assert tr_s_squared(h).is_zero()
    assert squarings.count(True) == 1


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
    assert same_tensors(h2, h)
    blob2 = json.dumps(hio.hopf_to_json(h2), sort_keys=True)
    assert blob == blob2


def test_tr_s_squared_is_group_order():
    for name, kw, order in [("c_n", {"n": 6}, 6), ("dihedral", {"n": 3}, 6),
                            ("dicyclic", {"n": 3}, 12), ("q8", {}, 8),
                            ("gamma4p", {"p": 5}, 20), ("product", {"ns": "2,2"}, 4)]:
        h, _ = build(name, **kw)
        assert tr_s_squared(h) == order


# -- the pair-set verifiers against all-pairs / all-triples reference loops ----


# The oracles multiply through the plain products of conftest, so a shortcut in
# the package kernels (mult_dict, delta_dict, tensor_mult, compose_columns)
# cannot make the verifier and its oracle go wrong together.


def algebra_ok_direct(h):
    """Unit laws and (e_i e_j) e_k = e_i (e_j e_k) over every basis triple."""
    unit = h.unit
    for j in range(h.dim):
        ej = h.basis_dict(j)
        if plain_mult(h, unit, ej) != ej or plain_mult(h, ej, unit) != ej:
            return False
    return all(plain_mult(h, h.mult[i][j], h.basis_dict(k)) ==
               plain_mult(h, h.basis_dict(i), h.mult[j][k])
               for i in range(h.dim) for j in range(h.dim) for k in range(h.dim))


def bialgebra_ok_direct(h):
    """Delta and eps unital and multiplicative over every basis pair."""
    unit = h.unit
    one_one = {(i, j): a * b for i, a in unit.items() for j, b in unit.items()}
    if plain_delta(h, unit) != one_one or not plain_counit(h, unit).is_one():
        return False
    for i in range(h.dim):
        for j in range(h.dim):
            prod = h.mult[i][j]
            if plain_counit(h, prod) != h.counit[i] * h.counit[j]:
                return False
            if plain_delta(h, prod) != plain_tensor_mult(h, plain_delta(h, h.basis_dict(i)),
                                                         plain_delta(h, h.basis_dict(j))):
                return False
    return True


def bialgebra_report_direct(h):
    """verify_bialgebra's report from the Delta and eps checks run on h itself."""
    unit = h.unit
    one_one = {(i, j): a * b for i, a in unit.items() for j, b in unit.items()}
    failures = witness_failures(h, multiplicative(h, lambda u: plain_delta(h, u),
                                                  lambda t1, t2: plain_tensor_mult(h, t1, t2),
                                                  one_one),
                                "Delta(1) != 1 (x) 1", "Delta not multiplicative at")
    failures += witness_failures(h, multiplicative(h, lambda u: plain_counit(h, u),
                                                   lambda a, b: a * b, h.one()),
                                 "eps(1) != 1", "eps not multiplicative at")
    return VerifyReport(not failures, failures[:hopf.MAX_FAILURES])


def coalgebra_report_direct(h):
    """Coassociativity and the counit laws at every basis element, reported as verify_coalgebra does."""
    failures = []
    for i in range(h.dim):
        lhs, rhs, left, right = {}, {}, {}, {}
        for (j, k), c in h.comult[i].items():
            for (a, b), c2 in h.comult[j].items():
                accumulate(lhs, (a, b, k), c * c2)
            for (a, b), c2 in h.comult[k].items():
                accumulate(rhs, (j, a, b), c * c2)
            accumulate(left, k, c * h.counit[j])
            accumulate(right, j, c * h.counit[k])
        if lhs != rhs:
            failures.append(f"coassociativity fails at {h.labels[i]}")
        if left != h.basis_dict(i) or right != h.basis_dict(i):
            failures.append(f"counit law fails at {h.labels[i]}")
        if len(failures) >= hopf.MAX_FAILURES:
            break
    return VerifyReport(not failures, failures)


def antipode_report_direct(h, indices=None):
    """S(x_1) x_2 = eps(x) 1 = x_1 S(x_2) at every basis element (or at indices),
    reported as verify_antipode does."""
    failures = []
    for i in range(h.dim) if indices is None else indices:
        lhs, rhs = {}, {}
        for (j, k), c in h.comult[i].items():
            for x, cx in plain_mult(h, plain_antipode(h, {j: c}), h.basis_dict(k)).items():
                accumulate(lhs, x, cx)
            for x, cx in plain_mult(h, h.basis_dict(j), plain_antipode(h, {k: c})).items():
                accumulate(rhs, x, cx)
        target = {}
        for k, v in h.unit.items():
            accumulate(target, k, v * h.counit[i])
        if lhs != target:
            failures.append(f"antipode law m(S (x) id)Delta fails at {h.labels[i]}")
        if rhs != target:
            failures.append(f"antipode law m(id (x) S)Delta fails at {h.labels[i]}")
        if len(failures) >= hopf.MAX_FAILURES:
            break
    return VerifyReport(not failures, failures)


def hopf_ok_direct(h):
    return (algebra_ok_direct(h) and coalgebra_report_direct(h).ok and bialgebra_ok_direct(h)
            and antipode_report_direct(h).ok)


def module_ok_direct(h, m):
    """1 acts as identity and e_i . e_j acts as sum_k c_k e_k over every basis
    pair, on dense matrices."""
    mats = [dense(a, h.conductor, m.dim) for a in m.action]

    def act(vec):
        out = Matrix(m.dim, m.dim, h.conductor)
        for k, c in vec.items():
            out = Matrix(m.dim, m.dim, h.conductor,
                         [[o + c * x for o, x in zip(orow, arow)]
                          for orow, arow in zip(out.entries, mats[k].entries)])
        return out.entries

    if act(h.unit) != identity_matrix(m.dim, h.conductor).entries:
        return False
    return all((mats[i] * mats[j]).entries == act(h.mult[i][j])
               for i in range(h.dim) for j in range(h.dim))


_SMALL = [("taft", {"n": 3}), ("b8", {}), ("a-m11", {"p": 3})]


def _copy(h):
    return type(h)(h.dim, h.conductor, h.labels, [[dict(d) for d in row] for row in h.mult],
                   h.unit, [dict(t) for t in h.comult], h.counit, h.antipode)


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
        h.comult[i].pop((j, k), None)
        if not value.is_zero():
            h.comult[i][(j, k)] = value
        return kind, h, None
    m = draw(st.sampled_from(cd.simples))
    i = draw(index)
    r, c = draw(st.integers(0, m.dim - 1)), draw(st.integers(0, m.dim - 1))
    action = list(m.action)
    action[i] = [dict(col) for col in m.action[i]]
    action[i][c].pop(r, None)
    if not value.is_zero():
        action[i][c][r] = value
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
        assert verify_bialgebra(h) == bialgebra_report_direct(h)
        assert verify_coalgebra(h) == coalgebra_report_direct(h)
        assert verify_antipode(h) == antipode_report_direct(h)


def test_direct_loops_pass_the_unperturbed_algebras():
    for name, params in _SMALL:
        h, cd = build(name, **params)
        assert algebra_ok_direct(h) and bialgebra_ok_direct(h) and hopf_ok_direct(h)
        assert all(module_ok_direct(h, m) for m in cd.simples)


def test_zero_maps_fail_only_the_unit_check():
    # the zero map is multiplicative, so only the unit witness can catch it
    h, _ = build("taft", n=3)
    zero = RepModule("zero", 1, [[{}]] * h.dim)
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
    h = HopfAlgebraData(2, 1, ["u", "e"], [[{0: one}, {1: one}], [{}, {1: one}]], {0: one},
                        [{}, {}], [one, zero], [{0: one}, {1: one}])
    assert generators(h) == [0, 1]
    assert not algebra_ok_direct(h)
    assert verify_algebra(h).failures[0] == "right unit law fails at e"


@pytest.mark.parametrize("side", ["left", "right"])
def test_broken_unit_law_falls_back_to_every_index(side):
    h, _ = build("taft", n=3)
    assert len(generators(h)) == 2
    x = h.labels.index("x")
    assert h.unit == {0: h.one()}
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
    """module with one generator's action scaled by 2, extended along the basis words.

    exponent(k) is that generator's exponent in the normal monomial of e_k.
    Every pair (e_k, a) with a another generator still holds; only pairs with
    a = the scaled generator can see the broken relation.
    """
    two = CycNumber.from_rational(h.conductor, 2)
    return RepModule("scaled", module.dim,
                     [[{r: two ** exponent(k) * x for r, x in col.items()} for col in a]
                      for k, a in enumerate(module.action)])


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
        assert verify_bialgebra(h) == bialgebra_report_direct(h)
        assert verify_coalgebra(h) == coalgebra_report_direct(h)
        assert verify_antipode(h) == antipode_report_direct(h)


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


# -- coalgebra and antipode laws on the generators, the bialgebra law on its sparser side


def _scaled(column, factor):
    return {k: factor * c for k, c in column.items()}


def _h8p_broken_at_zx(law):
    """h8p at p = 3 with one law broken at the non-generator basis element zx."""
    h = _copy(build("h8p", p=3)[0])
    zx, two = h.labels.index("zx"), CycNumber.from_rational(h.conductor, 2)
    if law == "coassociativity":
        h.comult[zx].pop(min(h.comult[zx]))
    elif law == "counit":
        h.counit[zx] = two
    else:
        h.antipode = list(h.antipode)
        h.antipode[zx] = _scaled(h.antipode[zx], two)
    return h


@pytest.mark.parametrize("law, verify, oracle", [
    ("coassociativity", verify_coalgebra, coalgebra_report_direct),
    ("counit", verify_coalgebra, coalgebra_report_direct),
    ("antipode", verify_antipode, antipode_report_direct),
], ids=["coassociativity", "counit", "antipode"])
def test_mutation_at_a_non_generator_index_matches_the_oracle(law, verify, oracle):
    h = _h8p_broken_at_zx(law)
    assert generators(h) == [1, 6, 12]  # x, a, z: zx is not among them
    rep = verify(h)
    assert not rep.ok
    assert rep == oracle(h)


def test_antipode_law_on_the_generators_alone_does_not_certify():
    # S(x^2) doubled: the law still holds at g and x (Delta(x) = g (x) x + x (x) 1
    # reads only S(1), S(g) and S(x)), but S(x x) != S(x) S(x)
    h = _copy(build("taft", n=3)[0])
    x2 = h.labels.index("x^2")
    h.antipode = list(h.antipode)
    h.antipode[x2] = _scaled(h.antipode[x2], CycNumber.from_rational(h.conductor, 2))
    assert x2 not in generators(h)
    assert antipode_report_direct(h, generators(h)).ok
    assert multiplicative(h, h.antipode_dict, lambda x, y: h.mult_dict(y, x), h.unit)
    rep = verify_antipode(h)
    assert not rep.ok and any("x^2" in f for f in rep.failures)
    assert rep == antipode_report_direct(h)


_DUAL_FILES = [("taft", {"n": 5}), ("a4p", {"p": 3})]


def _fresh_dual(name, params):
    """dual(h) as a structure file gives it: nothing derived is remembered."""
    return _copy(dual(build(name, **params)[0]))


@pytest.mark.parametrize("name, params", _DUAL_FILES)
def test_dual_file_bialgebra_law_is_checked_on_its_sparser_side(name, params):
    d = _fresh_dual(name, params)
    assert sum(map(len, d.comult)) > sum(len(v) for row in d.mult for v in row)
    assert verify_bialgebra(d).ok
    assert "generators" in dual(d)._derived
    assert "generators" not in d._derived  # no Delta or eps pair was evaluated on d


@pytest.mark.parametrize("name, params", _DUAL_FILES)
def test_dual_side_route_gives_the_witnesses_of_the_h_side_check(name, params):
    d = _fresh_dual(name, params)
    i, j = next((i, j) for i in range(1, d.dim) for j in range(1, d.dim) if d.mult[i][j])
    d.mult[i][j] = {k: c + c for k, c in d.mult[i][j].items()}
    rep = verify_bialgebra(d)
    assert "generators" in dual(d)._derived
    assert not rep.ok
    assert rep == bialgebra_report_direct(d)


@pytest.mark.parametrize("name, params", _DUAL_FILES)
def test_dual_file_coalgebra_laws_are_certified_by_the_generators_of_its_dual(name, params):
    d = _fresh_dual(name, params)
    assert verify_coalgebra(d).ok
    assert len(generators(dual(d))) < d.dim
    assert "generators" not in d._derived  # the loop over generators(d) did not run


@pytest.mark.parametrize("name, params", _DUAL_FILES)
def test_coassociativity_mutant_of_a_dual_file_keeps_its_report(tmp_path, capsys, name, params):
    payload = json.loads(json.dumps(hio.hopf_to_json(dual(build(name, **params)[0]))))
    coefficient = payload["comult"][len(payload["comult"]) // 2][3]
    coefficient["coeffs"] = [str(2 * Fraction(s)) for s in coefficient["coeffs"]]
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(payload))
    mutant = hio.hopf_from_json(payload)
    assert sum(map(len, mutant.comult)) > sum(len(v) for row in mutant.mult for v in row)
    expected = coalgebra_report_direct(mutant).failures
    assert expected and all(f.startswith("coassociativity fails at") for f in expected)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    at = out.index("coalgebra: FAIL")
    assert out[at + 1:at + 1 + len(expected)] == [f"  {f}" for f in expected]
    assert out[at + 1 + len(expected)].startswith("bialgebra: ")


def _payload(dual_side):
    h, _ = build("taft", n=3)
    return hio.hopf_to_json(dual(h) if dual_side else h)


def _coefficient_sites(payload):
    dim = payload["dim"]
    sites = [(payload[key], k) for key in ("unit", "counit") for k in range(dim)]
    sites += [(entry[2], k) for entry in payload["mult"] for k in range(dim)]
    sites += [(entry, 3) for entry in payload["comult"]]
    return sites + [(row, c) for row in payload["antipode"]["entries"] for c in range(dim)]


@st.composite
def structure_file_mutants(draw):
    """taft n = 3 or its dual as a file, with one coefficient, index or list length changed,
    or with zero-coefficient comult entries appended."""
    # a tree: the written payload shares one object per coefficient value
    payload = json.loads(json.dumps(_payload(draw(st.booleans()))))
    kind = draw(st.sampled_from(["coefficient", "index", "length", "padding"]))
    if kind == "padding":
        entry = copy.deepcopy(draw(st.sampled_from(payload["comult"])))
        entry[3]["coeffs"] = ["0/1"] * len(entry[3]["coeffs"])
        payload["comult"] += [entry] * draw(st.integers(1, 60))
    elif kind == "coefficient":
        container, key = draw(st.sampled_from(_coefficient_sites(payload)))
        coeffs = list(container[key]["coeffs"])
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(
            st.sampled_from(["0", "1", "-1", "2", "1/2"]))
        container[key] = dict(container[key], coeffs=coeffs)
    elif kind == "index":
        entry = draw(st.sampled_from(payload["mult"] + payload["comult"]))
        entry[draw(st.integers(0, len(entry) - 2))] = draw(
            st.integers(-1, payload["dim"]) | st.booleans())
    else:
        lists = [payload[key] for key in ("mult", "comult", "unit", "counit", "labels")]
        lists += [payload["antipode"]["entries"]] + [entry[2] for entry in payload["mult"]]
        lists += [container[key]["coeffs"] for container, key in _coefficient_sites(payload)]
        target = draw(st.sampled_from(lists))
        at = draw(st.integers(0, len(target) - 1))
        if draw(st.booleans()):
            del target[at]
        else:
            target.insert(at, copy.deepcopy(target[at]))
    return payload


@settings(max_examples=60, deadline=None)
@given(structure_file_mutants())
def test_property_verify_on_mutated_files_keeps_the_exit_codes_and_the_oracle_verdict(
        tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json.dumps(payload))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["verify", str(path)])  # an exception here would be a traceback
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1
        return
    h = hio.hopf_from_json(payload)
    assert verify_hopf(h).ok == hopf_ok_direct(h) == (code == 0)
