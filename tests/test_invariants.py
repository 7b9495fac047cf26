import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build, dense_trace, difference, left_mult_matrix
from hopfkit.catalog import build_family
from hopfkit.cyclotomic import CycNumber, root_of_unity
from hopfkit.groups import cyclic_group
from hopfkit.hopf import dual, generators, is_grouplike, order
from hopfkit.invariants import (
    _post_verify_radical,
    block_failure,
    chevalley_check,
    coinvariants,
    coradical,
    coradical_filtration,
    dual_module_from_block,
    grouplike_module,
    distinguished_grouplike,
    integrals,
    jacobson_radical,
    skew_primitive_space,
    verify_grouplikes,
)
from hopfkit.linalg import Matrix, Subspace, accumulate, nullspace
from hopfkit.presentation import group_algebra_hopf
from hopfkit.repsolver import verify_module


def test_radical_of_semisimple_is_zero():
    h, _ = build("c_n", n=6)
    assert jacobson_radical(h).dim == 0


@pytest.mark.parametrize("side", ["h", "dual"])
@pytest.mark.parametrize("name, params", [("taft", {"n": 3}), ("b8", {}), ("h8p", {"p": 3})],
                         ids=["taft n=3", "b8", "h8p p=3"])
def test_gram_matrix_is_the_dense_regular_trace_form(monkeypatch, name, params, side):
    """jacobson_radical's Gram matrix, read off Tr(L(e_i e_j)), is Tr(L_i L_j) of dense matrices."""
    from hopfkit import invariants

    grams = []
    monkeypatch.setattr(invariants, "nullspace", lambda m: grams.append(m) or nullspace(m))
    h, _ = build_family(name, params)  # a fresh build: nothing memoised on it yet
    if side == "dual":
        h = dual(h)
    jacobson_radical(h)
    (gram,) = grams
    left = [left_mult_matrix(h, h.basis_dict(i)) for i in range(h.dim)]
    assert gram.entries == [[dense_trace(a * b) for b in left] for a in left]


def test_radical_of_sweedler():
    h, _ = build("taft", n=2)
    rad = jacobson_radical(h)
    assert rad.dim == 2
    # span {x, gx}: basis indices 2, 3 in the x^j g^i order
    span = Subspace.from_vectors(4, h.conductor, [
        [h.zero(), h.zero(), h.one(), h.zero()],
        [h.zero(), h.zero(), h.zero(), h.one()],
    ])
    assert rad == span


def test_radical_of_h8p():
    h, _ = build("h8p", p=3, alpha=1)
    assert jacobson_radical(h).dim == 6


def test_coradical_values():
    h, _ = build("h8p", p=3, alpha=1)
    c = coradical(h)
    assert c.dim == 12
    span = Subspace.from_vectors(
        h.dim, h.conductor,
        [[h.one() if i == k else h.zero() for i in range(h.dim)] for k in range(12)])
    assert c == span
    t, _ = build("taft", n=2)
    ct = coradical(t)
    assert ct.dim == 2
    assert ct.contains(t.unit)
    assert ct.contains(t.basis_dict(1))
    g, _ = build("dicyclic", n=3)
    assert coradical(g).dim == g.dim
    assert len(coradical_filtration(g)) == 1


def test_filtration_ascends_to_dim():
    h, _ = build("h8p", p=3, alpha=1)
    dims = [s.dim for s in coradical_filtration(h)]
    assert dims == [12, 24]
    t, _ = build("taft", n=3)
    dims = [s.dim for s in coradical_filtration(t)]
    assert dims[0] == 3 and dims[-1] == 9
    assert all(a < b for a, b in zip(dims, dims[1:]))


def test_chevalley():
    h, _ = build("h8p", p=3, alpha=1)
    flag, _ = chevalley_check(h)
    assert flag
    t, _ = build("taft", n=3)
    assert chevalley_check(t)[0]
    # the dual of h8p: recorded, and should also come out a definite boolean
    flag_dual, witness = chevalley_check(dual(h))
    assert flag_dual in (True, False)
    assert witness


def test_verify_grouplikes_h8p():
    h, cd = build("h8p", p=3, alpha=1)
    cert = verify_grouplikes(h, cd.grouplikes, cd.dual_blocks)
    assert cert.ok
    assert cert.count == 4
    assert cert.orders == [1, 2, 4, 4]
    assert cert.coradical_dim == 12
    assert cert.block_dims == [2, 2]


def test_verify_grouplikes_fails_on_fake():
    h, cd = build("taft", n=2)
    fake = h.basis_dict(2)  # x is not group-like
    cert = verify_grouplikes(h, cd.grouplikes + [fake], [])
    assert not cert.ok


def test_grouplike_orders_match_element_order():
    # orders read off the closure table on success, and by hopf.order when
    # the closure check fails
    for name, params in [("h8p", {"p": 3, "alpha": 1}), ("taft", {"n": 3}), ("b4p", {"p": 3})]:
        h, cd = build(name, **params)
        expected = sorted(order(h, g, 16 * h.dim) or -1 for g in cd.grouplikes)
        assert verify_grouplikes(h, cd.grouplikes, cd.dual_blocks).orders == expected
        partial = cd.grouplikes[1:]
        cert = verify_grouplikes(h, partial, cd.dual_blocks)
        assert not cert.ok
        assert cert.orders == sorted(order(h, g, 16 * h.dim) or -1 for g in partial)


def test_verify_grouplikes_incomplete_blocks():
    h, cd = build("h8p", p=3, alpha=1)
    cert = verify_grouplikes(h, cd.grouplikes, cd.dual_blocks[:1])
    assert not cert.ok


def test_skew_primitives_taft():
    h, cd = build("taft", n=3)
    one = h.unit
    g = cd.grouplikes[1]
    sp = skew_primitive_space(h, one, g)
    assert sp.dim == 2
    x = h.basis_dict(h.labels.index("x"))
    assert sp.contains(x)
    assert sp.contains(difference(g, one))
    # group algebra pairs are trivial lines only
    k, kcd = build("c_n", n=6)
    for a in kcd.grouplikes[:3]:
        for b in kcd.grouplikes[:3]:
            dim = skew_primitive_space(k, a, b).dim
            assert dim == (0 if a == b else 1)


def test_skew_primitive_orientations():
    h, cd = build("h8p", p=3, alpha=1)
    one = h.unit
    g = cd.grouplikes[1]
    # Delta z = g (x) z + z (x) 1: Delta x = x (x) g' + k' (x) x with (g', k') = (1, g)
    sp = skew_primitive_space(h, one, g)
    assert sp.dim == 2
    # Delta x = x (x) g + 1 (x) x, the mirrored orientation: only the trivial line
    sp_flip = skew_primitive_space(h, g, one)
    assert sp_flip.dim == 1


def test_integrals_dimensions_and_unimodular_group():
    for name, kw in [("c_n", {"n": 6}), ("taft", {"n": 2}), ("h8p", {"p": 3, "alpha": 1})]:
        h, _ = build(name, **kw)
        left, right = integrals(h)
        assert left.dim == 1 and right.dim == 1
    g, _ = build("dihedral", n=3)
    assert distinguished_grouplike(g) == g.unit


def _integrals_from_every_row(h):
    """Left and right integral spaces from the rows of every basis element, not generators."""
    n = h.dim
    left, right = [], []
    for i in range(n):
        for coord in range(n):
            lrow = [h.mult[i][j].get(coord, h.zero()) for j in range(n)]
            rrow = [h.mult[j][i].get(coord, h.zero()) for j in range(n)]
            lrow[coord] -= h.counit[i]
            rrow[coord] -= h.counit[i]
            left.append(lrow)
            right.append(rrow)
    return tuple(nullspace(Matrix(n * n, n, h.conductor, rows)) for rows in (left, right))


def _is_ideal(a, space):
    """space is a two-sided ideal, tested on products by every basis element."""
    for vd in space.basis():
        for i in range(a.dim):
            if not (space.contains(a.mult_dict(a.basis_dict(i), vd))
                    and space.contains(a.mult_dict(vd, a.basis_dict(i)))):
                return False
    return True


@pytest.mark.parametrize("p", [3, 5])
def test_integrals_and_radical_check_on_generators_match_every_row(p):
    h, _ = build_family("h8p", {"p": p})  # fresh: generators are computed on its dual below
    assert len(generators(h)) < h.dim  # the reduction to generators is taken
    for a in (h, dual(h)):
        generators(a)
        assert integrals(a) == _integrals_from_every_row(a)
        rad = jacobson_radical(a)
        assert _is_ideal(a, rad)
        _post_verify_radical(a, rad)
        # the products by generators also refuse each line of the radical that is no ideal
        lines = [Subspace.from_vectors(a.dim, a.conductor, [v]) for v in rad.basis()]
        lines = [line for line in lines if not _is_ideal(a, line)]
        assert lines
        for line in lines:
            with pytest.raises(AssertionError, match="not an ideal"):
                _post_verify_radical(a, line)


def test_distinguished_grouplikes_pointed():
    h, cd = build("a-m10", p=3)
    assert distinguished_grouplike(h) == cd.grouplikes[1]
    h, cd = build("a-m10-dual", p=3)
    assert distinguished_grouplike(h) == cd.grouplikes[3]
    h, cd = build("a-m11", p=3)
    assert distinguished_grouplike(h) == cd.grouplikes[1]


def test_coinvariants_identity_and_counit():
    h, _ = build("taft", n=2)
    ident = [{i: h.one()} for i in range(h.dim)]
    s = coinvariants(h, h, ident)
    assert s.dim == 1
    assert s.contains(h.unit)
    k = group_algebra_hopf(cyclic_group(1), h.conductor)
    eps = [{} if c.is_zero() else {0: c} for c in h.counit]
    s = coinvariants(h, k, eps)
    assert s.dim == h.dim


def test_coinvariants_rejects_non_hopf_map():
    h, _ = build("taft", n=2)
    bad = [{} for _ in range(h.dim)]
    with pytest.raises(ValueError):
        coinvariants(h, h, bad)


def test_bosonization_projection_coinvariants():
    from hopfkit.ydnichols import bosonize, named_datum

    d = named_datum("a4p-chi2", 3)
    b = bosonize(d)
    # pi(y^m # l) = delta_{m,0} l
    pi = [{i: b.one()} if i < d.L.dim else {} for i in range(b.dim)]
    s = coinvariants(b, d.L, pi)
    assert s.dim == 2
    assert s.contains(b.unit)
    y1 = [b.zero()] * b.dim
    y1[d.L.dim] = b.one()  # y # 1
    assert s.contains(y1)
    # y # 1 is a nontrivial (1, g)-skew-primitive in the bosonization
    gb = dict(d.g)  # 1 # g sits at the indices of g in L
    sp = skew_primitive_space(b, b.unit, gb)
    assert sp.dim == 2 and sp.contains(y1)


def test_derived_objects_are_computed_once_per_algebra(monkeypatch):
    from hopfkit import catalog, invariants
    from hopfkit.certify import certify_family

    calls = []
    verify = invariants._post_verify_radical

    def counting(h, rad):
        calls.append(h)
        return verify(h, rad)

    monkeypatch.setattr(invariants, "_post_verify_radical", counting)
    assert certify_family("h8p", {"p": 3}).ok
    assert len(calls) == 2  # J(H) and J(H*), once each

    h, _ = catalog.build_family("taft", {"n": 3})
    assert dual(dual(h)) is h
    assert coradical(h) is coradical(h)


@pytest.mark.parametrize("name, params, wrong_order", [
    ("taft", {"n": 3}, 1),  # not cosemisimple: ord S^2 = 3
    ("a4p", {"p": 3}, 2),  # cosemisimple: S^2 = id
])
def test_cosemisimple_routes_agree_reads_false_on_a_wrong_s_squared_order(
        monkeypatch, name, params, wrong_order):
    from hopfkit import invariants

    h, _ = build(name, **params)
    assert invariants.invariant_report(h)[0]["certificates"]["cosemisimple_routes_agree"]
    monkeypatch.setattr(invariants, "s_squared_order", lambda h: wrong_order)
    certs = invariants.invariant_report(h)[0]["certificates"]
    assert not certs["cosemisimple_routes_agree"]
    assert certs["semisimple_routes_agree"]


# -- dual modules checked on the coalgebra side --------------------------------


def _redrawn(vector, i, value):
    """The sparse vector with coefficient i set to value; a zero value drops the key."""
    out = dict(vector)
    out.pop(i, None)
    if not value.is_zero():
        out[i] = value
    return out


@st.composite
def h8p_dual_candidates(draw):
    """An h8p (p = 3) dual block or group-like candidate with one coefficient redrawn."""
    h, cd = build("h8p", p=3)
    n = h.conductor
    value = draw(st.sampled_from([CycNumber.zero(n), CycNumber.one(n),
                                  CycNumber.from_rational(n, -1), root_of_unity(n, 1)]))
    i = draw(st.integers(0, h.dim - 1))
    if draw(st.booleans()):
        return h, "grouplike", _redrawn(draw(st.sampled_from(cd.grouplikes)), i, value)
    block = list(draw(st.sampled_from(cd.dual_blocks)))
    uv = draw(st.integers(0, len(block) - 1))
    block[uv] = _redrawn(block[uv], i, value)
    return h, "block", block


@settings(max_examples=40, deadline=None)
@given(h8p_dual_candidates())
def test_property_coalgebra_side_agrees_with_dual_module_check(case):
    h, kind, candidate = case
    if kind == "grouplike":
        assert is_grouplike(h, candidate) == \
            verify_module(dual(h), grouplike_module(h, candidate))[0]
    else:
        assert (block_failure(h, candidate) is None) == \
            verify_module(dual(h), dual_module_from_block(h, candidate))[0]


def test_block_failure_names_the_block_and_entry():
    h, cd = build("h8p", p=3)
    blocks = [list(b) for b in cd.dual_blocks]
    two = CycNumber.from_rational(h.conductor, 2)
    blocks[1][1] = {i: two * c for i, c in blocks[1][1].items()}
    cert = verify_grouplikes(h, cd.grouplikes, blocks)
    assert not cert.ok
    assert cert.failures == ["dual Wedderburn stage failed",
                             "block1: Delta(m_uv) != sum_w m_uw (x) m_wv at (u, v) = (0, 0)"]


def test_certify_h8p_runs_no_module_check_over_the_dual(monkeypatch):
    from hopfkit import certify, hopf, invariants, repsolver

    built = []
    seen = {name: [] for name in ("verify_module", "generators", "verify_grouplikes",
                                  "block_failure", "simples_certificate", "is_grouplike")}

    def recording_build(name, params):
        built.append(build_family(name, params))
        return built[-1]

    def recording(name, fn):
        def wrapped(h, *args, **kwargs):
            seen[name].append(h)
            return fn(h, *args, **kwargs)
        return wrapped

    build_family = certify.build_family
    gens = recording("generators", hopf.generators)
    simples = recording("simples_certificate", repsolver.simples_certificate)
    monkeypatch.setattr(certify, "build_family", recording_build)
    monkeypatch.setattr(repsolver, "verify_module",
                        recording("verify_module", repsolver.verify_module))
    monkeypatch.setattr(hopf, "generators", gens)
    monkeypatch.setattr(invariants, "generators", gens)
    grouplikes = recording("verify_grouplikes", invariants.verify_grouplikes)
    monkeypatch.setattr(invariants, "verify_grouplikes", grouplikes)
    monkeypatch.setattr(certify, "verify_grouplikes", grouplikes, raising=False)
    monkeypatch.setattr(invariants, "block_failure",
                        recording("block_failure", invariants.block_failure))
    monkeypatch.setattr(repsolver, "simples_certificate", simples)
    monkeypatch.setattr(invariants, "simples_certificate", simples)
    monkeypatch.setattr(invariants, "is_grouplike",
                        recording("is_grouplike", invariants.is_grouplike))
    assert certify.certify_family("h8p", {"p": 5}).ok
    (h, _), = built
    assert len(seen["verify_grouplikes"]) == 1
    # once for H's simples, once inside verify_grouplikes for the sidecar's dual blocks
    assert [id(a) for a in seen.pop("simples_certificate")] == [id(dual(h)), id(h)]
    for name, algebras in seen.items():
        assert algebras, name
        assert all(a is h for a in algebras), name  # so never dual(h)


def _u0_with_one_action_entry_changed(name, params):
    from hopfkit.catalog import build_family

    h, cd = build_family(name, params)
    u0 = cd.simples[2 * params["p"]]
    accumulate(u0.action[1][0], 0, CycNumber.one(h.conductor))
    return h, cd


def test_certify_h8p_fails_both_wedderburn_and_the_dual_side_on_a_broken_simple(monkeypatch):
    from hopfkit import certify

    monkeypatch.setattr(certify, "build_family", _u0_with_one_action_entry_changed)
    suite = certify.certify_family("h8p", {"p": 3})
    verdicts = {r.claim_id: r.ok for r in suite.rows}
    assert verdicts["verify_hopf"]
    assert not verdicts["wedderburn"]
    assert not verdicts["dual_grouplike_certificate"]
