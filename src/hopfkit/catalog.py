"""Constructors for every Hopf algebra family in the toolkit.

`FAMILIES` is the one registry: each command-line family name maps to its
builder and its dimension, both read from the command-line parameters.
Adding a family is one entry there.  Group algebras and their duals take a
`groups.FiniteGroup` and build their simples from its irreps.  The semisimple
twisted families are one construction, `_involution_twist`: k[G]'s product with
its coalgebra twisted by a central involution a and an involutive automorphism
sigma of G fixing a; a4p on C_2 x D_p and b4p, b8 on D_m with s+ <-> s-, and
fun_dic on C_2 x C_2p with x -> a x^-1.  taft, h8p and the four pointed 4p
families are quantum-line bosonizations (`ydnichols.bosonize`): h8p over
fun_dic(p), the rest over the k[C_n] data of
`ydnichols.cyclic_datum`; the pointed families are rebased (`hopf.rebase`)
onto their monomials, g^i x^e for a-m10, a-m10-dual and a-m11 and x^j h^i c^a
for h4xcp = H_4 (x) k[C_p].  Simples are built along the words of the basis,
x^j g^i for taft, those monomials for the pointed families and z^e a^i x^j
for h8p.

Each constructor returns (HopfAlgebraData, CandidateData) and only constructs:
nothing here runs verify_hopf.  The structure is a claim like the sidecar, and
every command that writes or reports on it (build, certify, bosonize,
yd-verify) verifies it once.  The sidecar holds *claims* only: group-like
candidates, simple-module candidates, matrix-block candidates for the
coradical accounting, and expected invariant numbers.  None of it is trusted;
the invariants and repsolver engines re-verify everything before a certificate
is issued.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, NamedTuple

from .cyclotomic import CycNumber, root_of_unity
from .groups import (
    FiniteGroup,
    GroupIrrep,
    _diag,
    _is_prime,
    _label,
    _mat,
    _power,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    gamma4p_group,
    product_of_cyclics,
    quaternion_group,
)
from .hopf import dual, rebase
from .invariants import module_matrix_coefficients
from .linalg import accumulate, outer
from .presentation import group_algebra_hopf, realize_on_group
from .repsolver import RepModule, module_from_gen_mats
from .ydnichols import YDDatum, bosonize, cyclic_datum

HALF = Fraction(1, 2)


class CandidateData:
    """Claimed data for one catalog member; always re-verified downstream."""

    __slots__ = ("grouplikes", "grouplike_labels", "skew_witness", "simples", "dual_blocks",
                 "expected", "extra")

    def __init__(self, grouplikes=None, grouplike_labels=None, skew_witness=None, simples=None,
                 dual_blocks=None, expected=None, extra=None):
        self.grouplikes = [] if grouplikes is None else grouplikes  # sparse vectors
        self.grouplike_labels = [] if grouplike_labels is None else grouplike_labels
        self.skew_witness = skew_witness  # (g, h, x) with Dx = x(x)g + h(x)x, or None
        self.simples = [] if simples is None else simples  # RepModule over H
        # [m_11, ..., m_dd] sparse, row-major
        self.dual_blocks = [] if dual_blocks is None else dual_blocks
        self.expected = {} if expected is None else expected
        self.extra = {} if extra is None else extra


def _require_odd_prime(p):
    if not _is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")


# ---------------------------------------------------------------------------
# group algebras and their duals
# ---------------------------------------------------------------------------


def _irrep_modules(group: FiniteGroup) -> list:
    """The group's irreps as k[G]-modules, each action extended along the element words."""
    words = [group.word(g) for g in group.elements]
    return [module_from_gen_mats(rep.dim, group.conductor, words, rep.gen_mats, rep.label)
            for rep in group.irreps]


def group_algebra(group: FiniteGroup):
    h = group_algebra_hopf(group)
    simples = _irrep_modules(group)
    grouplikes = [h.basis_dict(i) for i in range(h.dim)]
    cd = CandidateData(
        grouplikes=grouplikes,
        grouplike_labels=list(group.labels),
        simples=simples,
        dual_blocks=[],
        expected={
            "dim": h.dim,
            "grouplike_count": h.dim,
            "coradical_dim": h.dim,
            "radical_dim": 0,
            "semisimple": True,
            "chevalley": True,
            "simple_profile": sorted(r.dim for r in group.irreps),
            "distinguished_is_unit": True,
        },
        extra={"group": group},
    )
    return h, cd


def dual_group_algebra(group: FiniteGroup):
    h = dual(group_algebra_hopf(group))
    irreps = _irrep_modules(group)
    # group-likes of k^G are the characters of G
    one_dims = [r for r in irreps if r.dim == 1]
    grouplikes = [module_matrix_coefficients(h, r)[0] for r in one_dims]
    # matrix-coefficient blocks of the higher irreps
    blocks = [module_matrix_coefficients(h, r) for r in irreps if r.dim > 1]
    simples = [
        RepModule(f"ev({group.labels[i]})", 1,
                  [[{0: h.one()} if j == i else {}] for j in range(h.dim)])
        for i in range(h.dim)
    ]
    cd = CandidateData(
        grouplikes=grouplikes,
        grouplike_labels=[r.label for r in one_dims],
        simples=simples,
        dual_blocks=blocks,
        expected={
            "dim": h.dim,
            "grouplike_count": len(one_dims),
            "coradical_dim": h.dim,
            "radical_dim": 0,
            "semisimple": True,
            "chevalley": True,
            "simple_profile": [1] * h.dim,
        },
        extra={"group": group},
    )
    return h, cd


# ---------------------------------------------------------------------------
# Taft algebras
# ---------------------------------------------------------------------------


def taft(n, k=1):
    """T_q of dimension n^2, q = zeta_n^k primitive: the quantum line over k[C_n]
    with chi(g) = q, bosonized.  Basis x^j g^i = y^j # g^i."""
    if n < 2:
        raise ValueError("need n >= 2")
    if gcd(k, n) != 1:
        raise ValueError("q selector must give a primitive n-th root")
    datum = cyclic_datum(n, k, 1)
    h = bosonize(datum)
    h.labels = _line_labels("x", n, datum.L.labels)
    grouplikes = [h.basis_dict(i) for i in range(n)]
    words = [["x"] * j + ["g"] * i for j in range(n) for i in range(n)]
    simples = [module_from_gen_mats(1, n, words, {"x": [{}], "g": [{0: root_of_unity(n, m)}]},
                                    f"chi{m}")
               for m in range(n)]
    cd = CandidateData(
        grouplikes=grouplikes,
        grouplike_labels=list(datum.L.labels),
        skew_witness=(h.unit, grouplikes[1], h.basis_dict(n)),
        simples=simples,
        expected={
            "dim": n * n,
            "grouplike_count": n,
            "coradical_dim": n,
            "radical_dim": n * n - n,
            "semisimple": False,
            "chevalley": True,
            "simple_profile": [1] * n,
        },
    )
    return h, cd


def _line_labels(letter, n, labels):
    """The labels of y^m # l, m < n, as the words letter^m l: "x^2g", "zax^3", "z" for z # 1."""
    return [_label([_power(letter, m), lb if lb != "1" else ""]) for m in range(n) for lb in labels]


# ---------------------------------------------------------------------------
# the four pointed families of dimension 4p
# ---------------------------------------------------------------------------

POINTED4P_VARIANTS = ("a-m10", "a-m10-dual", "a-m11", "h4xcp")


def pointed4p(variant, p, lam_k=1):
    """Pointed 4p-dimensional algebras with group-likes of order 2p.

    a-m10, a-m10-dual and a-m11 are the quantum line over k[C_2p] bosonized,
    with chi(g) = -1 and Delta x = x (x) 1 + g (x) x, with chi(g) = zeta_2p^lam_k
    and the group-like g^p, and the lifting x^2 = g^2 - 1 of the first.  Basis
    g^i x^e = chi(g)^(ie) y^e # g^i.  h4xcp = H_4 (x) k[C_p] is the quantum line
    over k[C_2p] with chi(g) = -1 and the group-like g^p, on the basis x^j h^i c^a.
    """
    _require_odd_prime(p)
    if variant == "h4xcp":
        return _h4_tensor_kcp(p)
    conductor = 2 * p
    if variant == "a-m10-dual":
        if gcd(lam_k, 2 * p) != 1:
            raise ValueError("lambda selector must give a primitive 2p-th root")
        chi_power, twist = lam_k, p
    elif variant in ("a-m10", "a-m11"):
        chi_power, twist = p, 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    datum = cyclic_datum(2 * p, chi_power, twist)
    pairs = [(i, e) for i in range(2 * p) for e in (0, 1)]
    h = rebase(bosonize(datum, -1 if variant == "a-m11" else 0),
               [e * 2 * p + i for i, e in pairs], [datum.chi[i * e] for i, e in pairs],
               [_label([_power("g", i), _power("x", e)]) for i, e in pairs])
    # g^i sits at index 2i and x at 1
    grouplikes = [h.basis_dict(2 * i) for i in range(2 * p)]
    simples = _pointed4p_simples(variant, p, conductor, [["g"] * i + ["x"] * e for i, e in pairs])
    # machine-verified via the right-integral formula (lam = x*, so
    # a = lam(x_2) x_1 lands on the Delta-twist group-like of x)
    cd = CandidateData(
        grouplikes=grouplikes,
        grouplike_labels=[h.labels[2 * i] for i in range(2 * p)],
        skew_witness=(h.unit, grouplikes[twist], h.basis_dict(1)),
        simples=simples,
        expected={
            "dim": 4 * p,
            "grouplike_count": 2 * p,
            "coradical_dim": 2 * p,
            # the variant with x^2 = g^2 - 1 is not basic: its radical is the
            # complement of 2 lines + (p-1) matrix blocks, hence dimension 2
            "radical_dim": 2 if variant == "a-m11" else 2 * p,
            "semisimple": False,
            "chevalley": True,
            "simple_profile": sorted(m.dim for m in simples),
            "s4_is_id": True,
            "distinguished_grouplike": twist,  # index into grouplikes = power of g
        },
    )
    return h, cd


def _pointed4p_simples(variant, p, conductor, words):
    zero1 = [{}]
    simples = []
    if variant in ("a-m10", "a-m10-dual"):
        for m in range(2 * p):
            gm = [{0: root_of_unity(conductor, m)}]
            simples.append(module_from_gen_mats(1, conductor, words, {"g": gm, "x": zero1}, f"chi{m}"))
        return simples
    # a-m11: two characters (g -> +-1 with g^2 = 1 forced by x^2 = g^2 - 1)
    for s, lab in ((0, "triv"), (p, "sgn")):
        gm = [{0: root_of_unity(conductor, s)}]
        simples.append(module_from_gen_mats(1, conductor, words, {"g": gm, "x": zero1}, lab))
    one = CycNumber.one(conductor)
    for k in range(1, p):
        mu = root_of_unity(conductor, k)
        gm = [{0: mu}, {1: -mu}]
        xm = [{1: one}, {0: mu * mu - one}]
        simples.append(module_from_gen_mats(2, conductor, words, {"g": gm, "x": xm}, f"V{k}"))
    return simples


def _h4_tensor_kcp(p):
    # x^j h^i (x) c^a at index (2j + i)p + a is y^j # g^(pi + (p+1)a) over k[C_2p] = k<g>,
    # with h = g^p and c = g^(p+1); every scale is 1.  The labels are the tensor
    # labels t(x)c, with H_4's h written g
    h = rebase(bosonize(cyclic_datum(2 * p, p, p)),
               [j * 2 * p + (p * i + (p + 1) * a) % (2 * p)
                for j in (0, 1) for i in (0, 1) for a in range(p)],
               [CycNumber.one(2 * p)] * (4 * p),
               [f"{t}(x){c}" for t in ("1", "g", "x", "xg") for c in cyclic_group(p).labels])
    # H_4's group-likes 1, h at 0, 1, so h^i c^a at i*p + a
    grouplikes = []
    labels = []
    for i in (0, 1):
        for a in range(p):
            grouplikes.append(h.basis_dict(i * p + a))
            labels.append(h.labels[i * p + a])
    conductor = h.conductor
    # H_4's basis order is x^j h^i, so the index order is ((j,i),a)
    words = []
    for j in (0, 1):
        for i in (0, 1):
            for a in range(p):
                words.append(["x"] * j + ["h"] * i + ["c"] * a)
    simples = []
    for s in (0, 1):
        for m in range(p):
            mats = {
                "x": [{}],
                "h": [{0: CycNumber.from_rational(conductor, (-1) ** s)}],
                "c": [{0: root_of_unity(conductor, m * (conductor // p))}],
            }
            simples.append(module_from_gen_mats(1, conductor, words, mats, f"chi({s},{m})"))
    cd = CandidateData(
        grouplikes=grouplikes,
        grouplike_labels=labels,
        skew_witness=(h.unit, h.basis_dict(1 * p), h.basis_dict(2 * p)),
        simples=simples,
        expected={
            "dim": 4 * p,
            "grouplike_count": 2 * p,
            "coradical_dim": 2 * p,
            "radical_dim": 2 * p,
            "semisimple": False,
            "chevalley": True,
            "simple_profile": [1] * (2 * p),
            "s4_is_id": True,
            "distinguished_grouplike": p,  # index of h (x) 1 in the grouplike list
        },
    )
    return h, cd


# ---------------------------------------------------------------------------
# the semisimple twisted families: k[G] with its coalgebra twisted by (a, sigma)
# ---------------------------------------------------------------------------


def _e_mix(group, a, g, c0, c1):
    """c0 e_0 g + c1 e_1 g in k[G] as a sparse vector, e_0, e_1 = (1 +- a)/2; c0, c1 CycNumbers."""
    out = {}
    accumulate(out, group.index[g], (c0 + c1) * HALF)
    accumulate(out, group.index[group.mult(a, g)], (c0 - c1) * HALF)
    return out


def _involution_twist(group, conductor, a, swap):
    """k[G]'s product with the coalgebra twisted by a central involution a and an
    automorphism sigma of G fixing a.

    sigma sends each generator named in `swap` to its image there and fixes the
    others.  On each generator g, with e_0, e_1 = (1 +- a)/2,

        Delta g = g (x) e_0 g + sigma(g) (x) e_1 g,  eps g = 1,
        S g = e_0 g^-1 + e_1 sigma(g)^-1,

    extended along the element words by `realize_on_group`.  Delta is then
    coassociative exactly when sigma^2 = id: (Delta (x) id) Delta h has the term
    sigma^2(h) (x) e_1 sigma(h) (x) e_1 h where (id (x) Delta) Delta h has
    h (x) e_1 sigma(h) (x) e_1 h.  Nothing here checks sigma; verify_hopf reports
    a swap that is not an involutive automorphism as a coassociativity failure.
    """
    one, zero = CycNumber.one(conductor), CycNumber.zero(conductor)
    idx = group.index
    gen_delta, gen_s = {}, {}
    for name, g in group.generators.items():
        image = swap.get(name, g)
        gen_delta[name] = outer(({idx[g]: one}, _e_mix(group, a, g, one, zero)),
                                ({idx[image]: one}, _e_mix(group, a, g, zero, one)))
        gen_s[name] = s = _e_mix(group, a, group.inv(g), one, zero)
        for k, v in _e_mix(group, a, group.inv(image), zero, one).items():
            accumulate(s, k, v)
    return realize_on_group(group, conductor, gen_delta, dict.fromkeys(group.generators, one),
                            gen_s)


def _twisted_grouplikes(h, group, a, w, c):
    """1, a, (e_0 + c e_1) w and (e_0 - c e_1) w: group-likes of the twist when
    sigma(w) = w and c = 1, or sigma(w) = a w and c = sqrt(-1)."""
    one = CycNumber.one(h.conductor)
    return [h.unit, h.basis_dict(group.index[a]),
            _e_mix(group, a, w, one, c), _e_mix(group, a, w, one, -c)]


def _pair_block(group, a, u, v, sign):
    """The matrix-coalgebra candidate [[e_0 u, sign e_1 v], [e_1 u, e_0 v]], row-major."""
    one, zero = CycNumber.one(sign.conductor), CycNumber.zero(sign.conductor)
    return [_e_mix(group, a, u, one, zero), _e_mix(group, a, v, zero, sign),
            _e_mix(group, a, u, zero, one), _e_mix(group, a, v, one, zero)]


def _s_swap(group):
    """s+ <-> s-, the sigma of a4p, b4p and b8."""
    return {"s+": group.generators["s-"], "s-": group.generators["s+"]}


def _c2xdp_group(p):
    """C_2 x D_p with letters a, s+, s-; elements a^i (s+s-)^k s+^e, and its irreps."""
    conductor = 4 * p
    elements = [(i, k, e) for i in (0, 1) for k in range(p) for e in (0, 1)]

    def mult(g, h):
        i, k, e = g
        i2, k2, e2 = h
        return ((i + i2) % 2, (k + (k2 if e == 0 else -k2)) % p, (e + e2) % 2)

    group = FiniteGroup(
        elements=elements,
        labels=[_label([_power("a", i), _power("r", k), _power("s", e)], "*")
                for i, k, e in elements],
        mult_fn=mult,
        identity=(0, 0, 0),
        generators={"a": (1, 0, 0), "s+": (0, 0, 1), "s-": (0, (p - 1) % p, 1)},
        word_fn=lambda t: ["a"] * t[0] + ["s+", "s-"] * t[1] + ["s+"] * t[2],
        conductor=conductor,
    )
    for alpha in (1, -1):
        for tau in (1, -1):
            group.irreps.append(GroupIrrep(
                f"chi(a={alpha},s={tau})", 1,
                {"a": _mat(conductor, [[alpha]]), "s+": _mat(conductor, [[tau]]),
                 "s-": _mat(conductor, [[tau]])}))
    flip = _mat(conductor, [[0, 1], [1, 0]])
    for alpha in (1, -1):
        a = CycNumber.from_rational(conductor, alpha)
        for m in range(1, (p + 1) // 2):
            # s- swaps the lines with zeta_p^m and zeta_p^-m
            sminus = _mat(conductor, [[0, root_of_unity(conductor, 4 * (p - m))],
                                      [root_of_unity(conductor, 4 * m), 0]])
            group.irreps.append(GroupIrrep(f"rho(a={alpha},m={m})", 2,
                                           {"a": _diag([a, a]), "s+": flip, "s-": sminus}))
    return group


def _d2p_group(m):
    """D_m for even m: r^m = t^2 = 1; letters s+ = t, s- = t r; elements r^k t^e, and its irreps."""
    conductor = lcm(4, m)
    elements = [(k, e) for k in range(m) for e in (0, 1)]

    def mult(g, h):
        k, e = g
        k2, e2 = h
        return ((k + (k2 if e == 0 else -k2)) % m, (e + e2) % 2)

    group = FiniteGroup(
        elements=elements,
        labels=[_label([_power("r", k), _power("s", e)], "*") for k, e in elements],
        mult_fn=mult,
        identity=(0, 0),
        generators={"s+": (0, 1), "s-": ((m - 1) % m, 1)},
        word_fn=lambda t: ["s+", "s-"] * t[0] + ["s+"] * t[1],
        conductor=conductor,
    )
    for rho in (1, -1):
        for tau in (1, -1):
            group.irreps.append(GroupIrrep(
                f"chi(r={rho},t={tau})", 1,
                {"s+": _mat(conductor, [[tau]]), "s-": _mat(conductor, [[tau * rho]])}))
    flip = _mat(conductor, [[0, 1], [1, 0]])
    step = conductor // m
    for j in range(1, m // 2):
        sminus = _mat(conductor, [[0, root_of_unity(conductor, step * (m - j))],
                                  [root_of_unity(conductor, step * j), 0]])
        group.irreps.append(GroupIrrep(f"rho{j}", 2, {"s+": flip, "s-": sminus}))
    return group


def _twisted_family(h, group, a, w, c, pairs, labels, orders):
    """(h, claims) for a4p, b4p and b8: the group-likes of _twisted_grouplikes, the
    group's irreps as simples and a pair block on each (u, v) in pairs."""
    simples = _irrep_modules(group)
    one = CycNumber.one(h.conductor)
    cd = CandidateData(
        grouplikes=_twisted_grouplikes(h, group, a, w, c),
        grouplike_labels=labels,
        simples=simples,
        dual_blocks=[_pair_block(group, a, u, v, one) for u, v in pairs],
        expected={
            "dim": h.dim,
            "grouplike_count": 4,
            "grouplike_orders": orders,
            "coradical_dim": h.dim,
            "radical_dim": 0,
            "semisimple": True,
            "chevalley": True,
            "simple_profile": sorted(m.dim for m in simples),
        },
        extra={"group": group},
    )
    return h, cd


def _a4p_algebra(p):
    """a4p's algebra and its group C_2 x D_p, without the sidecar's simples and blocks."""
    _require_odd_prime(p)
    group = _c2xdp_group(p)
    return _involution_twist(group, 4 * p, (1, 0, 0), _s_swap(group)), group


def a4p(p):
    """Semisimple self-dual family on C_2 x D_p; (s+s-)^p = 1."""
    h, group = _a4p_algebra(p)
    # the rotation pairs (r^k, r^-k) and reflection pairs (r^k s+, r^(-1-k) s+), r = s+s-
    pairs = ([((0, k, 0), (0, p - k, 0)) for k in range(1, (p + 1) // 2)]
             + [((0, k, 1), (0, p - 1 - k, 1)) for k in range((p - 1) // 2)])
    # s_+(p) = r^((p-1)/2) s+, the middle reflection, is fixed by sigma
    return _twisted_family(h, group, (1, 0, 0), (0, (p - 1) // 2, 1), CycNumber.one(h.conductor),
                           pairs, ["1", "a", "s+(p)", "a*s+(p)"], [1, 2, 2, 2])


def _dihedral_twist(m, w, orders):
    """The twist of D_m, m even, by a = r^(m/2) and s+ <-> s-; sigma(w) = a w, so the
    group-likes gamma+- are (e_0 +- sqrt(-1) e_1) w."""
    group = _d2p_group(m)
    conductor, a = group.conductor, (m // 2, 0)
    h = _involution_twist(group, conductor, a, _s_swap(group))
    # the rotation pairs (r^k, r^-k) and reflection pairs (r^k t, r^(-1-k) t)
    pairs = ([((k, 0), (m - k, 0)) for k in range(1, (m + 2) // 4)]
             + [((k, 1), (m - 1 - k, 1)) for k in range(m // 4)])
    return _twisted_family(h, group, a, w, root_of_unity(conductor, conductor // 4),
                           pairs, ["1", "a", "gamma+", "gamma-"], orders)


def b4p(p):
    """Semisimple self-dual family on D_2p; (s+s-)^p = a."""
    _require_odd_prime(p)
    return _dihedral_twist(2 * p, ((p - 1) // 2, 1), [1, 2, 4, 4])


def b8():
    """The 8-dimensional Kac-Paljutkin algebra: D_4 with (s+s-)^2 = a."""
    return _dihedral_twist(4, (1, 0), [1, 2, 2, 2])


# ---------------------------------------------------------------------------
# the function algebra on the dicyclic group, on the group C_2 x C_2p of a and x
# ---------------------------------------------------------------------------


def _fun_dic_algebra(p):
    """k^(Dic_p) and its group C_2 x C_2p of the letters g0 = a and g1 = x: the twist
    by a and a -> a, x -> a x^-1.  Basis a^i x^j, in the group's element order."""
    _require_odd_prime(p)
    group = product_of_cyclics([2, 2 * p])
    h = _involution_twist(group, 4 * p, (1, 0), {"g1": (1, 2 * p - 1)})
    h.labels = [_label([_power("a", i), _power("x", j)]) for i, j in group.elements]
    return h, group


def _fun_dic_claims(h, group, p):
    """The group-likes 1, g, a, a*g with g = (e_0 + sqrt(-1) e_1) x^p, and the blocks
    [[e_0 x^j, (-1)^j e_1 x^-j], [e_1 x^j, e_0 x^-j]]; h is fun_dic(p) or an algebra
    whose first 4p basis elements are fun_dic's."""
    conductor = h.conductor
    one, a, g, ag = _twisted_grouplikes(h, group, (1, 0), (0, p),
                                        root_of_unity(conductor, conductor // 4))
    blocks = [_pair_block(group, (1, 0), (0, j), (0, 2 * p - j),
                          CycNumber.from_rational(conductor, (-1) ** j)) for j in range(1, p)]
    return [one, g, a, ag], blocks


def _fun_dic_datum(p):
    """The `fun-dic` datum over fun_dic(p), chi(a^i x^j) = (-1)^j, g = (e_0 + sqrt(-1) e_1) x^p
    and q = -1, with fun_dic's group."""
    L, group = _fun_dic_algebra(p)
    chi = [CycNumber.from_rational(L.conductor, (-1) ** j) for _, j in group.elements]
    g = _fun_dic_claims(L, group, p)[0][1]
    minus = CycNumber.from_rational(L.conductor, -1)
    return YDDatum(L, g, chi, minus, label=f"fun-dic(p={p})"), group


def _dic_characters(conductor, p, words):
    """The 4p characters a -> (-1)^i, x -> zeta_2p^j of k^(Dic_p), z (if in the words) -> 0."""
    xi = root_of_unity(conductor, 2)  # zeta_{2p}
    return [module_from_gen_mats(1, conductor, words,
                                 {"z": [{}], "a": [{0: CycNumber.from_rational(conductor, (-1) ** i)}],
                                  "x": [{0: xi ** j}]}, f"V({i},{j})")
            for i in (0, 1) for j in range(2 * p)]


def fun_dic(p):
    """The commutative function algebra on the dicyclic group of order 4p."""
    h, group = _fun_dic_algebra(p)
    grouplikes, blocks = _fun_dic_claims(h, group, p)
    words = [["a"] * i + ["x"] * j for i, j in group.elements]
    cd = CandidateData(
        grouplikes=grouplikes,
        grouplike_labels=["1", "g", "a", "a*g"],
        simples=_dic_characters(h.conductor, p, words),
        dual_blocks=blocks,
        expected={
            "dim": 4 * p,
            "grouplike_count": 4,
            "grouplike_orders": [1, 2, 4, 4],
            "coradical_dim": 4 * p,
            "radical_dim": 0,
            "semisimple": True,
            "chevalley": True,
            "commutative": True,
            "simple_profile": [1] * (4 * p),
        },
    )
    return h, cd


# ---------------------------------------------------------------------------
# the nonsemisimple, nonpointed, nonbasic family of dimension 8p
# ---------------------------------------------------------------------------


def h8p(p, alpha=1):
    """Dimension 8p: the function algebra on Dic_p extended by z, z^2 = alpha(a-1).

    The quantum line over fun_dic(p) (the `fun-dic` datum: chi(x) = -1,
    g = (e0 + sqrt(-1) e1) x^p, g^2 = a) bosonized with y = z, so that the
    alpha = 0 member is the biproduct and the alpha = 1 member its lifting
    y^2 = -(1 - g^2).  Basis z^e a^i x^j (z-major).
    """
    _require_odd_prime(p)
    if alpha not in (0, 1):
        raise ValueError("alpha is normalized to 0 or 1")
    datum, group = _fun_dic_datum(p)
    h = bosonize(datum, -alpha)
    h.labels = _line_labels("z", 2, datum.L.labels)
    conductor = h.conductor
    one = CycNumber.one(conductor)
    grouplikes, blocks = _fun_dic_claims(h, group, p)
    words = [["z"] * e + ["a"] * i + ["x"] * j for e in (0, 1) for i, j in group.elements]
    xi = root_of_unity(conductor, 2)
    extra = {}
    if alpha == 1:
        simples = []
        for j in range(2 * p):
            mats = {
                "z": [{}],
                "a": [{0: one}],
                "x": [{0: xi ** j}],
            }
            simples.append(module_from_gen_mats(1, conductor, words, mats, f"W{j}"))
        u_all = []
        for i in range(2 * p):
            amat = [{0: -one}, {1: -one}]
            xmat = [{0: xi ** i}, {1: -(xi ** i)}]
            zmat = [{1: one}, {0: CycNumber.from_rational(conductor, -2)}]
            mod = module_from_gen_mats(2, conductor, words,
                                       {"z": zmat, "a": amat, "x": xmat}, f"U{i}")
            u_all.append(mod)
            if i < p:
                simples.append(mod)
        extra["u_all"] = u_all
        radical_dim = 2 * p
        profile = [1] * (2 * p) + [2] * p
        dual_gl = 2 * p
        dual_corad = 6 * p
    else:
        # the unlifted biproduct: z generates a square-zero ideal of dim 4p,
        # so the simples are exactly the characters of the coradical
        simples = _dic_characters(conductor, p, words)
        radical_dim = 4 * p
        profile = [1] * (4 * p)
        dual_gl = 4 * p
        dual_corad = 4 * p
    cd = CandidateData(
        grouplikes=grouplikes,
        grouplike_labels=["1", "g", "a", "a*g"],
        skew_witness=(h.unit, grouplikes[1], h.basis_dict(4 * p)),
        simples=simples,
        dual_blocks=blocks,
        expected={
            "dim": 8 * p,
            "grouplike_count": 4,
            "grouplike_orders": [1, 2, 4, 4],
            "coradical_dim": 4 * p,
            "radical_dim": radical_dim,
            "semisimple": False,
            "chevalley": True,
            "simple_profile": profile,
            "dual_grouplike_count": dual_gl,
            "dual_coradical_dim": dual_corad,
            "coradical_span_indices": list(range(4 * p)),
        },
        extra=extra,
    )
    return h, cd


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _n(params):
    return int(params["n"])


def _p(params):
    return int(params["p"])


def _ns(params):
    return [int(x) for x in str(params["ns"]).split(",")]


class Family(NamedTuple):
    # the command-line parameters -> (HopfAlgebraData, CandidateData), not verified
    build: Callable
    # the parameters -> the dimension build would give, computed without constructing
    # anything; a parameter below its range gives at most 0, so that build reports it
    dim: Callable


class GroupKind(NamedTuple):
    family: str      # the family name of k[G]
    group: Callable  # the parameters -> G
    order: Callable  # the parameters -> |G|, computed without constructing G


# dual-group's --group kind -> its group
_GROUP_KINDS = {
    "cyclic": GroupKind("c_n", lambda ps: cyclic_group(_n(ps)), _n),
    "product": GroupKind("product", lambda ps: product_of_cyclics(_ns(ps)),
                         lambda ps: prod(max(n, 0) for n in _ns(ps))),
    "dihedral": GroupKind("dihedral", lambda ps: dihedral_group(_n(ps)), lambda ps: 2 * _n(ps)),
    "dicyclic": GroupKind("dicyclic", lambda ps: dicyclic_group(_n(ps)), lambda ps: 4 * _n(ps)),
    "q8": GroupKind("q8", lambda ps: quaternion_group(), lambda ps: 8),
    "gamma4p": GroupKind("gamma4p", lambda ps: gamma4p_group(_p(ps)), lambda ps: 4 * _p(ps)),
}


def _group_kind(params) -> GroupKind:
    kind = params.get("group", "cyclic")
    if kind not in _GROUP_KINDS:
        raise ValueError(f"unknown group kind {kind!r}")
    return _GROUP_KINDS[kind]


# family name -> its builder and dimension; the command line offers them in this order
FAMILIES = {
    **{kind.family: Family(lambda ps, group=kind.group: group_algebra(group(ps)), kind.order)
       for kind in _GROUP_KINDS.values()},
    "dual-group": Family(lambda ps: dual_group_algebra(_group_kind(ps).group(ps)),
                         lambda ps: _group_kind(ps).order(ps)),
    "taft": Family(lambda ps: taft(_n(ps), int(ps.get("q_power", 1))),
                   lambda ps: max(_n(ps), 0) ** 2),
    **{variant: Family(lambda ps, variant=variant: pointed4p(
           variant, _p(ps), int(ps.get("lambda_power", 1))), lambda ps: 4 * _p(ps))
       for variant in POINTED4P_VARIANTS},
    "a4p": Family(lambda ps: a4p(_p(ps)), lambda ps: 4 * _p(ps)),
    "b4p": Family(lambda ps: b4p(_p(ps)), lambda ps: 4 * _p(ps)),
    "b8": Family(lambda ps: b8(), lambda ps: 8),
    "fun-dic": Family(lambda ps: fun_dic(_p(ps)), lambda ps: 4 * _p(ps)),
    "h8p": Family(lambda ps: h8p(_p(ps), int(ps.get("alpha", 1))), lambda ps: 8 * _p(ps)),
}
FAMILY_NAMES = list(FAMILIES)


def build_family(name, params):
    """CLI entry: family name + parameter dict -> (HopfAlgebraData, CandidateData).

    The result is not verified here; each command runs verify_hopf on it once.
    """
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[name].build(params)
