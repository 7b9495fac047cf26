"""Constructors for every Hopf algebra family in the toolkit.

`FAMILIES` is the one registry: each command-line family name maps to its
builder and its dimension, both read from the command-line parameters.
Adding a family is one entry there.  Group algebras and their duals take a
`groups.FiniteGroup` and build their simples from its irreps; the twisted
families on C_2 x D_p and D_m, and fun_dic on C_2 x C_2p, keep their group's
product and twist its coalgebra (`presentation.realize_on_group`).  taft, h8p
and the pointed 4p families a-m10, a-m10-dual and a-m11 are quantum-line
bosonizations (`ydnichols.bosonize`) over k[C_n], fun_dic(p) and k[C_2p];
the last three are rebased (`hopf.rebase`) onto their monomials g^i x^e.
Simples are built along the words of the basis, x^j g^i for taft, g^i x^e
for the pointed families and z^e a^i x^j for h8p.

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
from .hopf import dual, rebase, tensor_product
from .linalg import accumulate, outer
from .presentation import group_algebra_hopf, realize_on_group
from .repsolver import RepModule, module_from_gen_mats
from .ydnichols import YDDatum, bosonize, named_datum

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
    grouplikes = [{i: m[0][0] for i, m in enumerate(r.action) if 0 in m[0]} for r in one_dims]
    # matrix-coefficient blocks of the higher irreps
    blocks = [[{i: m[v][u] for i, m in enumerate(r.action) if u in m[v]}
               for u in range(r.dim) for v in range(r.dim)]
              for r in irreps if r.dim > 1]
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
    q = root_of_unity(n, k)
    L = group_algebra_hopf(cyclic_group(n))
    h = bosonize(YDDatum(L, L.basis_dict(1), [q ** i for i in range(n)], q))
    h.labels = _line_labels("x", n, L.labels)
    grouplikes = [h.basis_dict(i) for i in range(n)]
    words = [["x"] * j + ["g"] * i for j in range(n) for i in range(n)]
    simples = [module_from_gen_mats(1, n, words, {"x": [{}], "g": [{0: root_of_unity(n, m)}]},
                                    f"chi{m}")
               for m in range(n)]
    cd = CandidateData(
        grouplikes=grouplikes,
        grouplike_labels=list(L.labels),
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
    g^i x^e = chi(g)^(ie) y^e # g^i.
    """
    _require_odd_prime(p)
    if variant == "h4xcp":
        return _h4_tensor_kcp(p)
    conductor = 2 * p
    one = CycNumber.one(conductor)
    if variant == "a-m10-dual":
        if gcd(lam_k, 2 * p) != 1:
            raise ValueError("lambda selector must give a primitive 2p-th root")
        chi_g, twist = root_of_unity(conductor, lam_k), p
    elif variant in ("a-m10", "a-m11"):
        chi_g, twist = -one, 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    L = group_algebra_hopf(cyclic_group(2 * p))
    datum = YDDatum(L, L.basis_dict(twist), [chi_g ** i for i in range(2 * p)], chi_g ** twist)
    pairs = [(i, e) for i in range(2 * p) for e in (0, 1)]
    h = rebase(bosonize(datum, -1 if variant == "a-m11" else 0),
               [e * 2 * p + i for i, e in pairs], [chi_g ** (i * e) for i, e in pairs],
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
    t, tcd = taft(2)
    c, _ = group_algebra(cyclic_group(p))
    h = tensor_product(t, c)
    # tensor basis index (taft i, cyclic a) -> i*p + a; taft grouplikes at 0, 1
    grouplikes = []
    labels = []
    for i in (0, 1):
        for a in range(p):
            grouplikes.append(h.basis_dict(i * p + a))
            labels.append(h.labels[i * p + a])
    conductor = h.conductor
    # taft2 basis order is x^j g^i, so tensor index order is ((j,i),a)
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
# the semisimple twisted families on dihedral-type groups
# ---------------------------------------------------------------------------


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


def _twisted_quad_images(group, conductor, a_elem):
    """Coalgebra images shared by the twisted families built on a, s+, s-."""
    one = CycNumber.one(conductor)
    half = CycNumber.from_rational(conductor, HALF)
    idx = group.index
    splus = group.generators["s+"]
    sminus = group.generators["s-"]

    def e_times(bit, elem):
        # e_bit * elem as a sparse vector; a is central in all these groups
        sign = one if bit == 0 else -one
        return {idx[elem]: half, idx[group.mult(a_elem, elem)]: sign * half}

    gen_delta = {}
    gen_s = {}
    for name, this, that in (("s+", splus, sminus), ("s-", sminus, splus)):
        gen_delta[name] = outer(
            ({idx[this]: one}, e_times(0, this)),
            ({idx[that]: one}, e_times(1, this)),
        )
        gen_s[name] = s = e_times(0, this)
        for k, v in e_times(1, that).items():
            accumulate(s, k, v)
    a_vec = {idx[a_elem]: one}
    gen_delta["a"] = outer((a_vec, a_vec))
    gen_s["a"] = dict(a_vec)
    gen_eps = {"a": one, "s+": one, "s-": one}
    return gen_delta, gen_eps, gen_s


def _twisted_vec(conductor, idx_w, idx_aw, sign):
    """(e_0 + sign*sqrt(-1)*e_1) * w as a sparse vector; w and a*w sit at idx_w, idx_aw."""
    half = CycNumber.from_rational(conductor, HALF)
    im = root_of_unity(conductor, conductor // 4)
    return {idx_w: half + sign * im * half, idx_aw: half - sign * im * half}


def _a4p_algebra(p):
    """a4p's algebra and its group C_2 x D_p, without the sidecar's simples and blocks."""
    _require_odd_prime(p)
    group = _c2xdp_group(p)
    conductor = 4 * p
    gen_delta, gen_eps, gen_s = _twisted_quad_images(group, conductor, (1, 0, 0))
    return realize_on_group(group, conductor, gen_delta, gen_eps, gen_s), group


def a4p(p):
    """Semisimple self-dual family on C_2 x D_p; (s+s-)^p = 1."""
    h, group = _a4p_algebra(p)
    idx = group.index
    k0 = (p - 1) // 2
    w = (0, k0, 1)  # s_+(p), the middle reflection
    grouplikes = [
        h.unit,
        h.basis_dict(idx[(1, 0, 0)]),
        h.basis_dict(idx[w]),
        h.basis_dict(idx[(1, k0, 1)]),
    ]
    simples = _irrep_modules(group)
    blocks = _quad_family_blocks(h, idx_of=lambda k, e: idx[(0, k % p, e)],
                                 a_of=lambda k, e: idx[(1, k % p, e)],
                                 rot_pairs=[(k, p - k) for k in range(1, (p + 1) // 2)],
                                 refl_pairs=[(k, (p - 1 - k) % p) for k in range(0, (p - 1) // 2)])
    cd = CandidateData(
        grouplikes=grouplikes,
        grouplike_labels=["1", "a", "s+(p)", "a*s+(p)"],
        simples=simples,
        dual_blocks=blocks,
        expected={
            "dim": 4 * p,
            "grouplike_count": 4,
            "grouplike_orders": [1, 2, 2, 2],
            "coradical_dim": 4 * p,
            "radical_dim": 0,
            "semisimple": True,
            "chevalley": True,
            "simple_profile": sorted(m.dim for m in simples),
        },
        extra={"group": group},
    )
    return h, cd


def b4p(p):
    """Semisimple self-dual family on D_2p; (s+s-)^p = a."""
    _require_odd_prime(p)
    group = _d2p_group(2 * p)
    conductor = 4 * p
    a_elem = (p, 0)
    gen_delta, gen_eps, gen_s = _twisted_quad_images(group, conductor, a_elem)
    h = realize_on_group(group, conductor, gen_delta, gen_eps, gen_s)
    idx = group.index
    k0 = (p - 1) // 2
    grouplikes = [
        h.unit,
        h.basis_dict(idx[a_elem]),
        _twisted_vec(h.conductor, idx[(k0, 1)], idx[(k0 + p, 1)], +1),
        _twisted_vec(h.conductor, idx[(k0, 1)], idx[(k0 + p, 1)], -1),
    ]
    simples = _irrep_modules(group)
    blocks = _quad_family_blocks(h, idx_of=lambda k, e: idx[(k % (2 * p), e)],
                                 a_of=lambda k, e: idx[((k + p) % (2 * p), e)],
                                 rot_pairs=[(k, 2 * p - k) for k in range(1, (p + 1) // 2)],
                                 refl_pairs=[(k, (-k - 1) % (2 * p)) for k in range(0, (p - 1) // 2)])
    cd = CandidateData(
        grouplikes=grouplikes,
        grouplike_labels=["1", "a", "gamma+", "gamma-"],
        simples=simples,
        dual_blocks=blocks,
        expected={
            "dim": 4 * p,
            "grouplike_count": 4,
            "grouplike_orders": [1, 2, 4, 4],
            "coradical_dim": 4 * p,
            "radical_dim": 0,
            "semisimple": True,
            "chevalley": True,
            "simple_profile": sorted(m.dim for m in simples),
        },
        extra={"group": group},
    )
    return h, cd


def b8():
    """The 8-dimensional Kac-Paljutkin algebra: D_4 with (s+s-)^2 = a."""
    group = _d2p_group(4)
    conductor = 4
    a_elem = (2, 0)
    gen_delta, gen_eps, gen_s = _twisted_quad_images(group, conductor, a_elem)
    h = realize_on_group(group, conductor, gen_delta, gen_eps, gen_s)
    idx = group.index
    grouplikes = [
        h.unit,
        h.basis_dict(idx[a_elem]),
        _twisted_vec(h.conductor, idx[(1, 0)], idx[(3, 0)], +1),
        _twisted_vec(h.conductor, idx[(1, 0)], idx[(3, 0)], -1),
    ]
    simples = _irrep_modules(group)
    blocks = _quad_family_blocks(h, idx_of=lambda k, e: idx[(k % 4, e)],
                                 a_of=lambda k, e: idx[((k + 2) % 4, e)],
                                 rot_pairs=[],
                                 refl_pairs=[(0, 3)])
    cd = CandidateData(
        grouplikes=grouplikes,
        grouplike_labels=["1", "a", "gamma+", "gamma-"],
        simples=simples,
        dual_blocks=blocks,
        expected={
            "dim": 8,
            "grouplike_count": 4,
            "grouplike_orders": [1, 2, 2, 2],
            "coradical_dim": 8,
            "radical_dim": 0,
            "semisimple": True,
            "chevalley": True,
            "simple_profile": [1, 1, 1, 1, 2],
        },
        extra={"group": group},
    )
    return h, cd


def _quad_family_blocks(h, idx_of, a_of, rot_pairs, refl_pairs):
    """Matrix-coalgebra candidates [[e0 u, e1 v],[e1 u, e0 v]] on rotation and
    reflection pairs (u, v) = (r^k t^e, r^k' t^e)."""
    half = CycNumber.from_rational(h.conductor, HALF)

    def e_vec(bit, i_plain, i_a):
        return {i_plain: half, i_a: half if bit == 0 else -half}

    blocks = []
    for e, pairs in ((0, rot_pairs), (1, refl_pairs)):
        for k, k2 in pairs:
            u, ua = idx_of(k, e), a_of(k, e)
            v, va = idx_of(k2, e), a_of(k2, e)
            blocks.append([
                e_vec(0, u, ua), e_vec(1, v, va),
                e_vec(1, u, ua), e_vec(0, v, va),
            ])
    return blocks


# ---------------------------------------------------------------------------
# the function algebra on the dicyclic group, on the group C_2 x C_2p of a and x
# ---------------------------------------------------------------------------


def _dic_index(p, i, j):
    """The index of a^i x^j, j taken mod 2p, in k^(Dic_p) and in h8p."""
    return 2 * p * i + j % (2 * p)


def _fun_dic_algebra(p):
    """k^(Dic_p) on the group C_2 x C_2p of its letters g0 = a and g1 = x, with the
    twisted coalgebra; basis a^i x^j at index _dic_index(p, i, j)."""
    _require_odd_prime(p)
    conductor = 4 * p
    one = CycNumber.one(conductor)
    half = CycNumber.from_rational(conductor, HALF)
    a_vec = {_dic_index(p, 1, 0): one}
    x_vec = {_dic_index(p, 0, 1): one}

    def e_times_x_power(bit, j):
        sign = one if bit == 0 else -one
        return {_dic_index(p, 0, j): half, _dic_index(p, 1, j): sign * half}

    gen_delta = {
        "g0": outer((a_vec, a_vec)),
        "g1": outer(
            (x_vec, e_times_x_power(0, 1)),
            ({_dic_index(p, 1, -1): one}, e_times_x_power(1, 1)),
        ),
    }
    # the minus sign on the e_1 part is forced by m(S (x) id)Delta = u eps
    s_x = e_times_x_power(0, -1)
    for k, v in e_times_x_power(1, 1).items():
        accumulate(s_x, k, -v)
    h = realize_on_group(product_of_cyclics([2, 2 * p]), conductor, gen_delta,
                         {"g0": one, "g1": one}, {"g0": dict(a_vec), "g1": s_x})
    h.labels = [_label([_power("a", i), _power("x", j)]) for i in (0, 1) for j in range(2 * p)]
    return h


def _dic_fun_grouplikes(h, p):
    """1, g, a, a*g with g = (e0 + sqrt(-1) e1) x^p."""
    idx_xp, idx_axp = _dic_index(p, 0, p), _dic_index(p, 1, p)
    return [
        h.unit,
        _twisted_vec(h.conductor, idx_xp, idx_axp, +1),
        h.basis_dict(_dic_index(p, 1, 0)),
        _twisted_vec(h.conductor, idx_xp, idx_axp, -1),
    ]


def _dic_fun_blocks(h, p):
    conductor = h.conductor
    half = CycNumber.from_rational(conductor, HALF)

    def e_vec(bit, j, sign=1):
        s = CycNumber.from_rational(conductor, sign) * half
        return {_dic_index(p, 0, j): s, _dic_index(p, 1, j): s if bit == 0 else -s}

    blocks = []
    for j in range(1, p):
        blocks.append([
            e_vec(0, j), e_vec(1, -j, (-1) ** j),
            e_vec(1, j), e_vec(0, -j),
        ])
    return blocks


def _dic_characters(conductor, p, words):
    """The 4p characters a -> (-1)^i, x -> zeta_2p^j of k^(Dic_p), z (if in the words) -> 0."""
    xi = root_of_unity(conductor, 2)  # zeta_{2p}
    return [module_from_gen_mats(1, conductor, words,
                                 {"z": [{}], "a": [{0: CycNumber.from_rational(conductor, (-1) ** i)}],
                                  "x": [{0: xi ** j}]}, f"V({i},{j})")
            for i in (0, 1) for j in range(2 * p)]


def fun_dic(p):
    """The commutative function algebra on the dicyclic group of order 4p."""
    h = _fun_dic_algebra(p)
    words = [["a"] * i + ["x"] * j for i in (0, 1) for j in range(2 * p)]
    cd = CandidateData(
        grouplikes=_dic_fun_grouplikes(h, p),
        grouplike_labels=["1", "g", "a", "a*g"],
        simples=_dic_characters(h.conductor, p, words),
        dual_blocks=_dic_fun_blocks(h, p),
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
    datum = named_datum("fun-dic", p)
    h = bosonize(datum, -alpha)
    h.labels = _line_labels("z", 2, datum.L.labels)
    conductor = h.conductor
    one = CycNumber.one(conductor)
    grouplikes = _dic_fun_grouplikes(h, p)
    words = [["z"] * e + ["a"] * i + ["x"] * j for e in (0, 1) for i in (0, 1) for j in range(2 * p)]
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
        dual_blocks=_dic_fun_blocks(h, p),
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
