"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every equality is on-the-nose (rational coefficients, zero tolerance).  Two
sub-clauses of the published tables are mathematically unattainable as
printed; those are kept as strict xfails, with the verified statements tested
separately right next to them.
"""


import json

import pytest

from conftest import build, character, frozen, power, qline, same_tensors
from hopfkit.certify import certify_family
from hopfkit.cli import main
from hopfkit.cyclotomic import CycNumber, root_of_unity
from hopfkit.hopf import (
    dual,
    is_grouplike,
    is_semisimple,
    order,
    s_squared_order,
    antipode_order,
    tr_s_squared,
    verify_hopf,
)
from hopfkit.invariants import (
    coradical,
    distinguished_grouplike,
    jacobson_radical,
    module_matrix_coefficients,
    skew_primitive_space,
    verify_grouplikes,
)
from hopfkit.linalg import Subspace
from hopfkit.repsolver import are_isomorphic, wedderburn_certificate
from hopfkit.ydnichols import (
    YDDatum,
    bosonize,
    braid_equation_check,
    braiding,
    diagonal_type,
    named_datum,
    nichols_dims,
    validate_yd_datum,
    verify_yd,
    yd_module_gamma4p,
)
from presentation_oracle import h8p_oracle, taft_oracle

CATALOG = {
    3: [
        ("c_n", {"n": 6}),
        ("product", {"ns": "2,2"}),
        ("dihedral", {"n": 3}),
        ("dicyclic", {"n": 3}),
        ("q8", {}),
        ("dual-group", {"group": "dicyclic", "n": 3}),
        ("taft", {"n": 2}),
        ("taft", {"n": 3}),
        ("a-m10", {"p": 3}),
        ("a-m10-dual", {"p": 3}),
        ("a-m11", {"p": 3}),
        ("h4xcp", {"p": 3}),
        ("a4p", {"p": 3}),
        ("b4p", {"p": 3}),
        ("b8", {}),
        ("fun-dic", {"p": 3}),
        ("h8p", {"p": 3, "alpha": 0}),
        ("h8p", {"p": 3, "alpha": 1}),
    ],
    5: [
        ("dihedral", {"n": 5}),
        ("dicyclic", {"n": 5}),
        ("gamma4p", {"p": 5}),
        ("dual-group", {"group": "dicyclic", "n": 5}),
        ("a-m10", {"p": 5}),
        ("a-m10-dual", {"p": 5}),
        ("a-m11", {"p": 5}),
        ("h4xcp", {"p": 5}),
        ("a4p", {"p": 5}),
        ("b4p", {"p": 5}),
        ("fun-dic", {"p": 5}),
        ("h8p", {"p": 5, "alpha": 0}),
        ("h8p", {"p": 5, "alpha": 1}),
    ],
}


def _say(line):
    print(line)


def _members(ps=(3, 5)):
    for p in ps:
        for name, params in CATALOG[p]:
            yield name, params


def test_criterion_01_axiom_suite():
    for name, params in _members():
        h, _ = build(name, **params)
        rep = verify_hopf(h)
        assert rep.ok, f"{name} {params}: {rep.failures}"
    _say("criterion 1 (axiom suite, p in {3,5}): PASS")


def test_criterion_02_h8p_at_p3():
    h, cd = build("h8p", p=3, alpha=1)
    assert h.dim == 24
    # verified group-likes form <g> = C_4 with g = (e0 + sqrt(-1) e1) x^3
    cert = verify_grouplikes(h, cd.grouplikes, cd.dual_blocks)
    assert cert.ok and cert.count == 4 and cert.orders == [1, 2, 4, 4]
    g = cd.grouplikes[1]
    im = root_of_unity(12, 3)
    half = CycNumber.from_rational(12, "1/2")
    expected_g = {3: half + im * half, 9: half - im * half}  # x^3 and a x^3
    assert g == expected_g
    powers = {frozen(power(g, k, h.unit, h.mult_dict)) for k in range(4)}
    assert powers == {frozen(c) for c in cd.grouplikes}
    assert cert.coradical_dim == 12
    span = Subspace.from_vectors(
        24, h.conductor,
        [[h.one() if i == k else h.zero() for i in range(24)] for k in range(12)])
    assert coradical(h) == span
    from hopfkit.invariants import chevalley_check

    assert chevalley_check(h)[0]
    assert tr_s_squared(h).is_zero()
    rad = jacobson_radical(h)
    assert rad.dim == 6
    cert_w = wedderburn_certificate(h, cd.simples, rad.dim)
    assert cert_w.ok and cert_w.profile == [1] * 6 + [2] * 3
    assert 6 * 1 + 3 * 4 == 18 == 24 - 6
    u = cd.extra["u_all"]
    for i in range(6):
        assert are_isomorphic(h, u[i], u[(i + 3) % 6])
    _say("criterion 2 (H_8p at p=3): PASS")


@pytest.mark.parametrize("alpha, count, corad", [(0, 12, 12), (1, 6, 18)],
                         ids=["alpha=0", "alpha=1"])
def test_criterion_03_h8p_dual_side(alpha, count, corad):
    h, cd = build("h8p", p=3, alpha=alpha)
    d = dual(h)
    # coradical of the dual via the independent radical route
    assert d.dim - jacobson_radical(h).dim == corad
    assert coradical(d).dim == corad
    chars = [character(m) for m in cd.simples if m.dim == 1]
    assert len(chars) == count
    blocks = [module_matrix_coefficients(d, m) for m in cd.simples if m.dim == 2]
    cert = verify_grouplikes(d, chars, blocks)
    assert cert.ok and cert.count == count
    assert cert.coradical_dim == corad == count + 4 * len(blocks)
    # certify reads the same three rows off H's Wedderburn certificate
    rows = {r.claim_id: r.computed
            for r in certify_family("h8p", {"p": 3, "alpha": alpha}).rows}
    assert (rows["dual_grouplike_count"], rows["dual_coradical_dim"],
            rows["dual_grouplike_certificate"]) == (cert.count, cert.coradical_dim, cert.ok)
    _say(f"criterion 3 (H_8p dual side at p=3, alpha={alpha}): PASS")


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_criterion_02_h8p_certified_at_every_odd_prime_to_13(p):
    """The paper's claims on H_8p are for every odd prime; certify each p <= 13."""
    suite = certify_family("h8p", {"p": p})
    assert suite.ok, suite.render()
    claims = {r.claim_id for r in suite.rows}
    assert {"wedderburn", "U_i_iso_U_i_plus_p", "U_0_not_iso_U_1"} <= claims
    _say(f"criterion 2 (H_8p certified at p={p}): PASS")


def test_criterion_04_pointed_families():
    profiles = {}
    for variant in ("a-m10", "a-m10-dual", "a-m11", "h4xcp"):
        h, cd = build(variant, p=3)
        n = antipode_order(h)
        assert n is not None and 4 % n == 0, variant
        assert s_squared_order(h) != 1, variant
        profiles[variant] = (h, cd)
    h, cd = profiles["a-m11"]
    rad = jacobson_radical(h).dim
    cert = wedderburn_certificate(h, cd.simples, rad)
    assert cert.ok and cert.profile == [1, 1, 2, 2]
    assert 2 + 8 == 12 - rad
    _say("criterion 4 (pointed 4p: S^4 = id, S^2 != id, A(-1,1) profile): PASS")


def test_criterion_04_distinguished_grouplikes_verified():
    # machine-verified values: g, g^p, g  (printed source order: g, g, g^p)
    expected = {"a-m10": 1, "a-m10-dual": 3, "a-m11": 1}
    for variant, idx in expected.items():
        h, cd = build(variant, p=3)
        a = distinguished_grouplike(h)
        assert a == cd.grouplikes[idx], variant
    _say("criterion 4 (distinguished group-likes, verified values g, g^3, g): PASS")


@pytest.mark.xfail(strict=True, reason="the published list transposes the last "
                   "two entries; the right-integral formula forces (g, g^p, g)")
def test_criterion_04_distinguished_grouplikes_as_printed():
    for variant, idx in {"a-m10": 1, "a-m10-dual": 1, "a-m11": 3}.items():
        h, cd = build(variant, p=3)
        a = distinguished_grouplike(h)
        assert a == cd.grouplikes[idx], variant


def test_criterion_05_semisimple_catalog():
    members = [("a4p", {"p": 3}), ("b4p", {"p": 3}), ("fun-dic", {"p": 3}),
               ("dual-group", {"group": "dicyclic", "n": 3}), ("b8", {})]
    for name, params in members:
        h, cd = build(name, **params)
        t = tr_s_squared(h)
        assert t.is_rational() and t.rational_value() == h.dim, name
        assert jacobson_radical(h).dim == 0, name
    for name in ("a4p", "b4p"):
        h, cd = build(name, p=3)
        cert = verify_grouplikes(h, cd.grouplikes, cd.dual_blocks)
        assert cert.ok and cert.count == 4, name
    _say("criterion 5 (semisimple 4p: trace, radical, |G| = 4 certificates): PASS")


def test_criterion_05_grouplike_orders_verified():
    # the quad family with (s+s-)^p = 1 has Klein group-likes; the one with
    # (s+s-)^p = a has a cyclic group of order 4
    h, cd = build("a4p", p=3)
    assert sorted(order(h, g, 20) for g in cd.grouplikes) == [1, 2, 2, 2]
    h, cd = build("b4p", p=3)
    assert sorted(order(h, g, 20) for g in cd.grouplikes) == [1, 2, 4, 4]
    _say("criterion 5 (quad-family group-like orders, verified assignment): PASS")


@pytest.mark.xfail(strict=True, reason="the published coalgebra types are "
                   "swapped between the two quad families; exact comultiplication "
                   "of the s+(p) words decides it")
def test_criterion_05_grouplike_orders_as_printed():
    h, cd = build("a4p", p=3)
    assert any(order(h, g, 20) == 4 for g in cd.grouplikes)
    h2, cd2 = build("b4p", p=3)
    assert all(order(h2, g, 20) <= 2 for g in cd2.grouplikes)


def test_criterion_06_gamma20_simples():
    h, cd = build("gamma4p", p=5)
    cert = wedderburn_certificate(h, cd.simples, 0)
    assert cert.ok
    assert cert.profile == [1, 1, 1, 1, 4]
    assert sum(d * d for d in cert.profile) == 20
    _say("criterion 6 (Gamma_20 simple modules {1,1,1,1,4}): PASS")


def test_criterion_07_yd_braidings_p5():
    mods = []
    for s in range(5):
        mods.append(yd_module_gamma4p(5, ("y", 1), ("psi", s)))
    for m in (1, 2, 3):
        for k in range(4):
            mods.append(yd_module_gamma4p(5, ("x", m), ("chi", k)))
    for j in range(4):
        mods.append(yd_module_gamma4p(5, ("trivial",), ("alpha", j)))
    mods.append(yd_module_gamma4p(5, ("trivial",), ("beta", 1)))
    for mod in mods:
        ok, why = verify_yd(mod)
        assert ok, (mod.label, why)
        assert braid_equation_check(braiding(mod), mod.dim), mod.label
    qm = diagonal_type(yd_module_gamma4p(5, ("y", 1), ("psi", 1)))
    z5 = root_of_unity(20, 4)
    for r in range(4):
        for t in range(4):
            assert qm[r][t] == z5 ** pow(2, (r + 4 - t) % 4, 5)
    _say(f"criterion 7 (p=5 YD modules x{len(mods)}, braidings, diagonal type): PASS")


def test_criterion_08_yd_data():
    for name in ("fun-dic", "a4p-chi2", "a4p-chi3"):
        d = named_datum(name, 3)
        ok, why = validate_yd_datum(d)
        assert ok, (name, why)
    d = named_datum("fun-dic", 3)
    flipped = YDDatum(d.L, d.g, [CycNumber.one(d.L.conductor)] * d.L.dim, d.q)
    ok, _ = validate_yd_datum(flipped)
    assert not ok
    _say("criterion 8 (quantum-line data validate; flipped character fails): PASS")


def test_criterion_09_bosonizations():
    # against the presentations, a construction independent of bosonize
    b = bosonize(named_datum("fun-dic", 3))
    assert same_tensors(b, h8p_oracle(3, alpha=0))
    assert same_tensors(bosonize(named_datum("fun-dic", 3), -1), h8p_oracle(3, alpha=1))
    b2 = bosonize(named_datum("a4p-chi2", 3))
    assert b2.dim == 24
    assert tr_s_squared(b2).is_zero()
    assert coradical(b2).dim == 12
    from hopfkit.invariants import chevalley_check

    assert chevalley_check(b2)[0]
    b3 = bosonize(named_datum("c2", 3))
    assert same_tensors(b3, taft_oracle(2))
    _say("criterion 9 (bosonizations: tensor identities and invariants): PASS")


def test_criterion_10_coinvariants():
    from hopfkit.invariants import coinvariants

    d = named_datum("a4p-chi2", 3)
    b = bosonize(d)
    pi = [{i: b.one()} if i < d.L.dim else {} for i in range(b.dim)]
    s = coinvariants(b, d.L, pi)
    assert s.dim == 2
    y1 = [b.zero()] * b.dim
    y1[d.L.dim] = b.one()
    assert s.contains(y1) and s.contains(b.unit)
    gb = dict(d.g)  # 1 # g sits at the indices of g in L
    sp = skew_primitive_space(b, b.unit, gb)
    assert sp.dim == 2 and sp.contains(y1)
    _say("criterion 10 (coinvariants of the biproduct projection): PASS")


def test_criterion_11_nichols_ranks():
    rep = nichols_dims(qline(CycNumber.from_rational(2, -1)), 1)
    assert rep.total_dim == 2
    for n in (2, 3, 4, 6):
        rep = nichols_dims(qline(root_of_unity(n, 1)), 1)
        assert rep.truncated and rep.total_dim == n
    rep = nichols_dims(qline(CycNumber.one(1)), 1, cutoff=8)
    assert not rep.truncated and rep.ranks == [1] * 9
    _say("criterion 11 (quantum-line Nichols dimensions): PASS")


@pytest.mark.parametrize("argv, ranks", [
    ("nichols --p 5 --class y:1 --rep psi:1 --cutoff 5", [1, 4, 12, 32, 76, 164]),
    ("nichols --p 5 --class x:1 --rep chi:1 --cutoff 4", [1, 5, 20, 75, 265]),
])
def test_criterion_11_nichols_ranks_of_gamma20_modules(capsys, argv, ranks):
    assert main(argv.split()) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ranks"] == ranks
    assert not payload["truncated"] and not payload["guard_hit"]
    _say(f"criterion 11 ({payload['module']} ranks to degree {len(ranks) - 1}): PASS")


def test_criterion_12_cross_consistency():
    for name, params in _members():
        h, cd = build(name, **params)
        assert same_tensors(dual(dual(h)), h), name
        rad = jacobson_radical(h)
        rad_dual = jacobson_radical(dual(h))
        assert coradical(h).dim + rad_dual.dim == h.dim, name
        assert (rad.dim == 0) == is_semisimple(h), name
        assert all(is_grouplike(h, g) for g in cd.grouplikes), name
        assert h.dim % len(cd.grouplikes) == 0, name
    _say("criterion 12 (cross-consistency over the whole catalog): PASS")
