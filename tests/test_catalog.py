import hashlib

import pytest

from hopfkit import catalog, certify
from hopfkit import io as hio

from conftest import build, dense, dense_trace, identity_matrix, power, word_product
from hopfkit.certify import certify_family
from hopfkit.groups import gamma4p_group, product_of_cyclics, quaternion_group
from hopfkit.invariants import invariant_report, verify_grouplikes, verify_hopf_map
from hopfkit.ydnichols import DATUM_NAMES, bosonize, cyclic_datum, named_datum
from hopfkit.hopf import (antipode_order, dual, is_grouplike, order, s_squared_order, tr_s_squared,
                          verify_hopf)
from presentation_oracle import ORACLES, Presentation


def test_dicyclic_group_algebra():
    h, cd = build("dicyclic", n=3)
    assert h.dim == 12
    assert len(cd.grouplikes) == 12
    assert all(is_grouplike(h, g) for g in cd.grouplikes)


def test_gamma20_profile():
    h, cd = build("gamma4p", p=5)
    assert h.dim == 20
    assert sorted(m.dim for m in cd.simples) == [1, 1, 1, 1, 4]


def test_gamma4p_rejects_bad_p():
    with pytest.raises(ValueError):
        catalog.group_algebra(gamma4p_group(3))
    with pytest.raises(ValueError):
        catalog.group_algebra(gamma4p_group(9))


def test_gamma4p_ell_is_the_least_square_root_of_minus_one():
    from hopfkit.groups import gamma4p_ell

    for p in (5, 13, 17, 29, 37):
        ell = gamma4p_ell(p)
        assert [l for l in range(1, p) if l * l % p == p - 1][0] == ell
    assert gamma4p_ell(5) == 2  # = (p - 1)/2 only at p = 5
    h, cd = build("gamma4p", p=13)
    assert verify_hopf(h).ok
    assert sorted(m.dim for m in cd.simples) == [1, 1, 1, 1, 4, 4, 4]


def test_base_field_member():
    h, cd = build("c_n", n=1)
    assert h.dim == 1
    assert verify_hopf(h).ok


def test_taft_counts():
    h, cd = build("taft", n=3)
    assert h.dim == 9
    assert len(cd.grouplikes) == 3
    assert all(is_grouplike(h, g) for g in cd.grouplikes)
    with pytest.raises(ValueError):
        catalog.taft(4, 2)  # zeta_4^2 = -1 is not primitive


def test_pointed4p_variants_build():
    for variant in catalog.POINTED4P_VARIANTS:
        h, cd = catalog.pointed4p(variant, 3)
        assert verify_hopf(h).ok
        assert h.dim == 12
        assert len(cd.grouplikes) == 6
        assert all(is_grouplike(h, g) for g in cd.grouplikes)
        assert tr_s_squared(h).is_zero()


def test_pointed4p_rejects_even_p():
    with pytest.raises(ValueError):
        catalog.pointed4p("a-m10", 4)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("variant", ["a-m10", "a-m10-dual", "a-m11"])
def test_pointed4p_is_a_bosonization_by_an_explicit_map(variant, p):
    """y^e # g^i -> chi(g)^(-ie) g^i x^e is a Hopf map from the bosonization over k[C_2p]
    (its lifting y^2 = g^2 - 1 for a-m11) onto the family, and a bijection."""
    d = cyclic_datum(2 * p, 1, p) if variant == "a-m10-dual" else cyclic_datum(2 * p, p, 1)
    chi_g = d.chi[1]
    b = bosonize(d, -1 if variant == "a-m11" else 0)
    h, _ = catalog.pointed4p(variant, p)
    pi = [{2 * i + e: chi_g ** (-i * e)} for e in (0, 1) for i in range(2 * p)]
    assert sorted(k for col in pi for k in col) == list(range(h.dim))
    assert verify_hopf_map(b, h, pi) == (True, None)


def test_a4p_klein_and_b4p_cyclic_grouplikes():
    # with (s+s-)^p = 1 the braid identity makes s_+(p) itself group-like
    # (Klein four); with (s+s-)^p = a only the idempotent-twisted combinations
    # are, and they square to a (cyclic of order four)
    h_a, cd_a = build("a4p", p=3)
    assert sorted(order(h_a, g, 20) for g in cd_a.grouplikes) == [1, 2, 2, 2]
    h_b, cd_b = build("b4p", p=3)
    assert sorted(order(h_b, g, 20) for g in cd_b.grouplikes) == [1, 2, 4, 4]


def test_b4p_middle_reflection_power_is_a():
    h, cd = build("b4p", p=3)
    group = cd.extra["group"]
    splus = h.basis_dict(group.index[group.generators["s+"]])
    sminus = h.basis_dict(group.index[group.generators["s-"]])
    a = h.basis_dict(group.index[(3, 0)])
    assert power(h.mult_dict(splus, sminus), 3, h.unit, h.mult_dict) == a


def test_b8_kac_paljutkin():
    h, cd = build("b8")
    assert h.dim == 8
    assert tr_s_squared(h) == 8
    assert sorted(order(h, g, 20) for g in cd.grouplikes) == [1, 2, 2, 2]


def test_fun_dic_grouplike_element_algebra():
    h, cd = build("fun-dic", p=3)
    g = cd.grouplikes[1]
    a = cd.grouplikes[2]
    assert h.mult_dict(g, g) == a
    assert order(h, g, 10) == 4


# (group, conductor, a, sigma on the generators), as the catalog twists them
_CATALOG_TWISTS = {
    "a4p p=3": (lambda: catalog._c2xdp_group(3), 12, (1, 0, 0), catalog._s_swap),
    "b4p p=3": (lambda: catalog._d2p_group(6), 12, (3, 0), catalog._s_swap),
    "b8": (lambda: catalog._d2p_group(4), 4, (2, 0), catalog._s_swap),
    "fun-dic p=3": (lambda: product_of_cyclics([2, 6]), 12, (1, 0), lambda g: {"g1": (1, 5)}),
}
# and two sigmas that are not involutive automorphisms
_BAD_TWISTS = {
    # x -> x^3 is an automorphism of C_2 x C_10 of order 4
    "fun-dic p=5 x->x^3": (lambda: product_of_cyclics([2, 10]), 20, (1, 0),
                           lambda g: {"g1": (0, 3)}),
    # s+, s- -> s-: an endomorphism of C_2 x D_3 that is not injective
    "a4p p=3 s+,s- -> s-": (lambda: catalog._c2xdp_group(3), 12, (1, 0, 0),
                            lambda g: {"s+": g.generators["s-"]}),
}


def _twist_failures(make_group, conductor, a, swap):
    group = make_group()
    return verify_hopf(catalog._involution_twist(group, conductor, a, swap(group))).failures


@pytest.mark.parametrize("name", list(_CATALOG_TWISTS))
def test_the_catalog_twists_are_hopf_algebras(name):
    assert _twist_failures(*_CATALOG_TWISTS[name]) == []


@pytest.mark.parametrize("name", list(_BAD_TWISTS))
def test_verify_hopf_rejects_a_twist_by_a_non_involution(name):
    failures = _twist_failures(*_BAD_TWISTS[name])
    assert failures and all(f.startswith("coassociativity fails at ") for f in failures)


def test_h8p_alpha_guard():
    with pytest.raises(ValueError):
        catalog.h8p(3, 2)


def test_every_family_at_p3_verifies():
    builders = [
        lambda: build("c_n", n=6),
        lambda: build("dihedral", n=3),
        lambda: catalog.group_algebra(quaternion_group()),
        lambda: build("dual-group", group="dicyclic", n=3),
        lambda: build("taft", n=2),
        lambda: build("a-m10", p=3),
        lambda: build("a4p", p=3),
        lambda: build("b4p", p=3),
        lambda: build("b8"),
        lambda: build("fun-dic", p=3),
        lambda: build("h8p", p=3, alpha=1),
    ]
    for b in builders:
        h, _ = b()
        assert h.dim >= 1
        assert verify_hopf(h).ok


def test_build_family_dispatch():
    h, _ = catalog.build_family("dual-group", {"group": "dicyclic", "n": 3})
    assert h.dim == 12
    h, _ = catalog.build_family("product", {"ns": "2,4"})
    assert h.dim == 8
    with pytest.raises(ValueError):
        catalog.build_family("nope", {})


_GROUP_PARAMS = {"c_n": {"n": 2}, "product": {"ns": "2,2"}, "dihedral": {"n": 3},
                 "dicyclic": {"n": 2}, "q8": {}, "gamma4p": {"p": 5}}
_FAMILY_PARAMS = dict(_GROUP_PARAMS, taft={"n": 2}, b8={}, **{
    name: {"p": 3} for name in ("a-m10", "a-m10-dual", "a-m11", "h4xcp", "a4p", "b4p",
                                "fun-dic", "h8p")})
_SWEEP = [(name, _FAMILY_PARAMS[name]) for name in catalog.FAMILY_NAMES if name != "dual-group"]
_GROUP_KIND = {entry.family: kind for kind, entry in catalog._GROUP_KINDS.items()}
_SWEEP += [("dual-group", dict(params, group=_GROUP_KIND[name]))
           for name, params in _GROUP_PARAMS.items()]
_SWEEP_IDS = [" ".join([name] + [f"{k}={v}" for k, v in sorted(params.items())])
              for name, params in _SWEEP]


def test_family_names_keep_the_command_line_order():
    assert catalog.FAMILY_NAMES == [
        "c_n", "product", "dihedral", "dicyclic", "q8", "gamma4p", "dual-group",
        "taft", "a-m10", "a-m10-dual", "a-m11", "h4xcp", "a4p", "b4p", "b8",
        "fun-dic", "h8p",
    ]


@pytest.mark.parametrize("name, params", _SWEEP, ids=_SWEEP_IDS)
def test_family_dims_are_read_off_the_parameters(name, params):
    assert catalog.FAMILIES[name].dim(params) == build(name, **params)[0].dim


def _stores_no_zero(h):
    """comult[i] is {(j, k): nonzero value} and unit is {index: nonzero value}."""
    return (all(type(jk) is tuple and len(jk) == 2 and not c.is_zero()
                for t in h.comult for jk, c in t.items())
            and all(type(i) is int and not c.is_zero() for i, c in h.unit.items()))


@pytest.mark.parametrize("name, params", _SWEEP, ids=_SWEEP_IDS)
def test_catalog_members_and_their_duals_store_no_zero(name, params):
    h, _ = build(name, **params)
    assert _stores_no_zero(h) and _stores_no_zero(dual(h))


@pytest.mark.parametrize("datum", DATUM_NAMES)
def test_bosonizations_store_no_zero(datum):
    assert _stores_no_zero(bosonize(named_datum(datum, 3)))


@pytest.mark.parametrize("name, params", _SWEEP, ids=_SWEEP_IDS)
def test_certify_sweep(name, params):
    """Every family at its smallest parameters, and k^G for every group kind."""
    suite = certify_family(name, params)
    assert suite.ok, suite.render()


def _flipped(claim):
    """A wrong value of a claim's kind: a bool negated, an int + 1, a list without its last item."""
    if type(claim) is bool:
        return not claim
    if type(claim) is int:
        return claim + 1
    return claim[:-1]


@pytest.mark.parametrize("name, params", [("c_n", {"n": 2}), ("taft", {"n": 3}),
                                          ("a-m10", {"p": 3}), ("a4p", {"p": 3}),
                                          ("fun-dic", {"p": 3}), ("h8p", {"p": 3})],
                         ids=["c_n", "taft", "a-m10", "a4p", "fun-dic", "h8p"])
def test_certify_fails_on_each_flipped_claim(monkeypatch, name, params):
    """Every claim certify reads off a sidecar can fail: a flipped one is caught."""
    h, cd = catalog.build_family(name, params)  # a fresh build: its claims are edited below
    monkeypatch.setattr(certify, "build_family", lambda *_: (h, cd))
    claims = cd.expected
    assert certify_family(name, params).ok
    for key in claims:
        cd.expected = {**claims, key: _flipped(claims[key])}
        assert not certify_family(name, params).ok, key


def test_report_claims_read_the_typed_claims_in_their_order():
    h, cd = build("a-m10", p=3)
    rep, _ = invariant_report(h, cd)
    rows = certify.report_claims(h, rep, dict.fromkeys(certify.CLAIM_TYPES, 0))
    derived = ("tr_s2", "s2_not_id")  # rows that follow semisimple and s4_is_id
    assert [r.claim_id for r in rows if r.claim_id not in derived] == list(certify.CLAIM_TYPES)


@pytest.mark.parametrize("name, params", _SWEEP, ids=_SWEEP_IDS)
def test_grouplike_certificate_orders_match_hopf_order(name, params):
    """The orders read off the closure table equal hopf.order of each group-like."""
    h, cd = build(name, **params)
    cert = verify_grouplikes(h, cd.grouplikes, cd.dual_blocks)
    assert cert.ok
    assert cert.orders == sorted(order(h, g, 16 * h.dim) for g in cd.grouplikes)


@pytest.mark.parametrize("name, params", _SWEEP, ids=_SWEEP_IDS)
def test_prefix_extension_matches_whole_words(monkeypatch, name, params):
    """Table, Delta/eps/S and module actions built along prefixes, against whole words.

    The catalog presents no family by rewriting; the rewriting tables checked here
    are those of the family's reference presentation, where it has one.
    """
    seen = {"pres": [], "coalg": [], "modules": []}
    realize, on_group, module = (Presentation.realize, catalog.realize_on_group,
                                 catalog.module_from_gen_mats)

    def recording_realize(pres, gen_delta, gen_eps, gen_s):
        h = realize(pres, gen_delta, gen_eps, gen_s)
        seen["pres"].append((pres, h))
        seen["coalg"].append((h, pres.normal_monomials, gen_delta, gen_eps, gen_s))
        return h

    def recording_on_group(group, conductor, gen_delta, gen_eps, gen_s):
        h = on_group(group, conductor, gen_delta, gen_eps, gen_s)
        words = [group.word(g) for g in group.elements]
        seen["coalg"].append((h, words, gen_delta, gen_eps, gen_s))
        return h

    def recording_module(dim, conductor, words, gen_mats, label):
        m = module(dim, conductor, words, gen_mats, label)
        seen["modules"].append((m, words, gen_mats, conductor))
        return m

    monkeypatch.setattr(Presentation, "realize", recording_realize)
    monkeypatch.setattr(catalog, "realize_on_group", recording_on_group)
    monkeypatch.setattr(catalog, "module_from_gen_mats", recording_module)
    _, cd = catalog.build_family(name, params)
    if name in ORACLES:
        ORACLES[name](params)
        assert seen["pres"]

    # every simple built along words, the group irreps' included, is checked below;
    # k^G's simples are evaluations, and only its irrep modules are recorded
    recorded = {id(m) for m, *_ in seen["modules"]}
    assert recorded
    if name != "dual-group":
        assert all(id(m) in recorded for m in cd.simples)

    for pres, h in seen["pres"]:
        words = pres.normal_monomials
        assert all(h.mult[i][j] == pres.normal_form_word(words[i] + words[j])
                   for i in range(h.dim) for j in range(h.dim))
    for h, words, gen_delta, gen_eps, gen_s in seen["coalg"]:
        for i, word in enumerate(words):
            t = {(k, k): c for k, c in h.unit.items()}
            e, s = h.one(), h.unit
            for letter in word:
                t = h.tensor_mult(t, gen_delta[letter])
                e = e * gen_eps[letter]
            for letter in reversed(word):
                s = h.mult_dict(s, gen_s[letter])
            assert h.delta_dict(h.basis_dict(i)) == t
            assert h.counit[i] == e
            assert h.antipode[i] == s
    for m, words, gen_mats, conductor in seen["modules"]:
        assert m.action == [word_product(w, gen_mats, m.dim, conductor) for w in words]


def _dense_order(m, bound):
    """Least n >= 1 with m^n = 1 by dense Matrix powers, or None up to the bound."""
    one = identity_matrix(m.rows, m.conductor)
    return next((n for n in range(1, bound + 1) if power(m, n, one).entries == one.entries), None)


@pytest.mark.parametrize("name, params", _SWEEP, ids=_SWEEP_IDS)
def test_antipode_invariants_match_dense_matrix_powers(name, params):
    h, _ = build(name, **params)
    s = dense(h.antipode, h.conductor)
    s2 = s * s
    assert tr_s_squared(h) == dense_trace(s2)
    assert antipode_order(h) == _dense_order(s, 16 * h.dim)
    assert s_squared_order(h) == _dense_order(s2, 16 * h.dim)


# sha256 prefixes of io.dumps(hopf_to_json(x)) for each sweep member and its
# dual, as written when the antipode was a dense Matrix in memory
_STRUCTURE_DIGESTS = {
    "c_n n=2": ("197ddb6f7424e201", "c6247769aa18666f"),
    "product ns=2,2": ("d674fdddf5e023c5", "7fbecefd2f0054f3"),
    "dihedral n=3": ("6d4a32177bef8c5b", "9995d7ba7a17dff9"),
    "dicyclic n=2": ("2bac98b83458a294", "ce9c43ea447c91a2"),
    "q8": ("a0140171db3c0170", "70c3a0a4ee12f318"),
    "gamma4p p=5": ("a0ac44b26fe2805e", "36c4806f54b7787d"),
    "taft n=2": ("24e7beac62fd42c5", "28a88a862248e324"),
    "a-m10 p=3": ("384d990d8d236468", "d6a2a5178f518b35"),
    "a-m10-dual p=3": ("3f168be611d7e4df", "7179dfd35cdd5cf2"),
    "a-m11 p=3": ("94c2653ed0eff5ca", "8c963e8be1476298"),
    "h4xcp p=3": ("d0746593f47e1f24", "89189894dfd4bef8"),
    "a4p p=3": ("03c349074cbbe615", "f2c1234ce3e1735d"),
    "b4p p=3": ("90efbab532985971", "10dae7e2192baa61"),
    "b8": ("0227c167b02c0b32", "2be7fbfe21764738"),
    "fun-dic p=3": ("aaf5b2225c82210a", "381feab8d7d33f3b"),
    "h8p p=3": ("cd0a6f7e8c5186e1", "2c296dd50c42ad75"),
    "dual-group group=cyclic n=2": ("c6247769aa18666f", "197ddb6f7424e201"),
    "dual-group group=product ns=2,2": ("7fbecefd2f0054f3", "d674fdddf5e023c5"),
    "dual-group group=dihedral n=3": ("9995d7ba7a17dff9", "6d4a32177bef8c5b"),
    "dual-group group=dicyclic n=2": ("ce9c43ea447c91a2", "2bac98b83458a294"),
    "dual-group group=q8": ("70c3a0a4ee12f318", "a0140171db3c0170"),
    "dual-group group=gamma4p p=5": ("36c4806f54b7787d", "a0ac44b26fe2805e"),
}


@pytest.mark.parametrize("name, params, digests", [
    (name, params, _STRUCTURE_DIGESTS[key]) for (name, params), key in zip(_SWEEP, _SWEEP_IDS)],
    ids=_SWEEP_IDS)
def test_structure_files_are_unchanged(name, params, digests):
    h, _ = build(name, **params)
    assert tuple(hashlib.sha256(hio.dumps(hio.hopf_to_json(x)).encode()).hexdigest()[:16]
                 for x in (h, dual(h))) == digests
