"""Certified invariants: radical, coradical filtration, group-likes,
skew-primitives, integrals, distinguished group-like, Chevalley property,
coinvariants.

Group-likes are never enumerated from scratch (that is a polynomial system);
candidates come from the catalog sidecar and completeness is certified by
matching the coradical dimension against the simple modules of the dual
algebra they define.  Those modules are verified on the coalgebra side, in H:
nothing multiplies in H*, which few basis elements generate.
"""

from __future__ import annotations

from collections import defaultdict
from math import isqrt

from .cyclotomic import cyc_to_json
from .hopf import (HopfAlgebraData, antipode_order, dual, generators, is_grouplike, is_semisimple,
                   known_generators, least_power, memoised, multiplicative_over, order,
                   s_squared_order, tr_s_squared, witness_failures)
from .linalg import (Matrix, Subspace, accumulate, bilinear_closure, compose_columns, nullspace,
                     outer, trace)
from .repsolver import RepModule, simples_certificate


# ---------------------------------------------------------------------------
# radical and coradical
# ---------------------------------------------------------------------------


@memoised
def radical_powers(h: HopfAlgebraData) -> list[Subspace]:
    """J(H), J(H)^2, ... down to the first zero power, J(H) the radical of the
    regular-representation trace form (characteristic zero).

    J(H) is post-verified to be a nilpotent two-sided ideal rather than
    trusting the trace-form theorem blindly; its powers are that check's.
    """
    # Tr(L(e_i) L(e_j)) = Tr(L(e_i e_j)) = sum_k (e_i e_j)_k Tr(L(e_k)), and
    # the columns of L(e_k) are h.mult[k]
    zero = h.zero()
    traces = {k: t for k in range(h.dim) if not (t := trace(h.mult[k], zero)).is_zero()}
    gram = Matrix(h.dim, h.dim, h.conductor,
                  [[sum((c * traces[k] for k, c in h.mult[i][j].items() if k in traces), zero)
                    for j in range(h.dim)] for i in range(h.dim)])
    return _post_verify_radical(h, nullspace(gram))


def jacobson_radical(h: HopfAlgebraData) -> Subspace:
    """The Jacobson radical, post-verified as in radical_powers."""
    return radical_powers(h)[0]


def _post_verify_radical(h: HopfAlgebraData, rad: Subspace) -> list[Subspace]:
    """rad, rad^2, ... down to the first zero power, or AssertionError unless
    rad is a nilpotent two-sided ideal.

    The ideal test multiplies rad's basis by e_a, a in known_generators(h),
    on each side: the a with a rad in rad form a subalgebra with 1, so by the
    closure argument of hopf.multiplicative it is all of h; likewise for
    rad a.
    """
    gens = known_generators(h)
    for v in rad.basis():
        for a in gens:
            ea = h.basis_dict(a)
            if not rad.contains(h.mult_dict(ea, v)) or not rad.contains(h.mult_dict(v, ea)):
                raise AssertionError("trace-form radical is not an ideal (arithmetic bug)")
    powers = [rad]
    for _ in range(h.dim + 1):
        if powers[-1].dim == 0:
            return powers
        powers.append(_product_space(h, powers[-1], rad))
    raise AssertionError("trace-form radical is not nilpotent (arithmetic bug)")


def _product_space(h: HopfAlgebraData, u: Subspace, v: Subspace) -> Subspace:
    vb = v.basis()
    return Subspace.from_vectors(h.dim, h.conductor,
                                 (h.mult_dict(a, b) for a in u.basis() for b in vb))


@memoised
def coradical(h: HopfAlgebraData) -> Subspace:
    """Annihilator of the Jacobson radical of the dual algebra."""
    return jacobson_radical(dual(h)).perp()


def coradical_filtration(h: HopfAlgebraData) -> list[Subspace]:
    """H_n = (J(H*)^(n+1))-perp, ascending until it reaches H."""
    return [coradical(h)] + [power.perp() for power in radical_powers(dual(h))[1:]]


def chevalley_check(h: HopfAlgebraData):
    """True iff the coradical is a Hopf subalgebra; returns (flag, witness)."""
    h0 = coradical(h)
    if not h0.contains(h.unit):
        return False, "coradical does not contain 1"
    closed = bilinear_closure(h0, h.mult_dict)
    if closed.dim != h0.dim:
        return False, f"coradical not closed under product (closure dim {closed.dim})"
    for v in h0.basis():
        if not h0.contains(h.antipode_dict(v)):
            return False, "coradical not closed under the antipode"
    return True, "coradical contains 1, closed under product and antipode"


# ---------------------------------------------------------------------------
# group-like certification
# ---------------------------------------------------------------------------


class GrouplikeCertificate:
    __slots__ = ("ok", "count", "orders", "coradical_dim", "block_dims", "failures")

    def __init__(self, ok: bool, count: int = 0, orders: list | None = None, coradical_dim: int = 0,
                 block_dims: list | None = None, failures: list | None = None):
        self.ok = ok
        self.count = count
        self.orders = [] if orders is None else orders
        self.coradical_dim = coradical_dim
        self.block_dims = [] if block_dims is None else block_dims
        self.failures = [] if failures is None else failures

    def __bool__(self):
        return self.ok


def grouplike_module(h: HopfAlgebraData, g: dict) -> RepModule:
    """The 1-dimensional module of the dual algebra carried by a group-like."""
    return RepModule("k_g", 1, [[{0: g[i]} if i in g else {}] for i in range(h.dim)])


def module_matrix_coefficients(dual_h: HopfAlgebraData, module: RepModule) -> list:
    """Matrix-coefficient functionals of a module, as elements of the dual.

    Returns [c_00, c_01, ..., c_dd] row-major; these span a simple
    subcoalgebra of dual_h exactly when the module is simple.
    """
    return [{i: a[v][u] for i, a in enumerate(module.action) if u in a[v]}
            for u in range(module.dim) for v in range(module.dim)]


def dual_module_from_block(h: HopfAlgebraData, block: list) -> RepModule:
    """d x d matrix-coalgebra candidate -> module over dual(h).

    block = [m_11, m_12, ..., m_dd] (row-major, len d^2, the inverse of
    module_matrix_coefficients).  The module axioms over dual(h) say exactly
    that Delta(m_uv) = sum_w m_uw (x) m_wv and eps(m_uv) = delta_uv, and
    verify_grouplikes checks those identities in h (block_failure) instead.
    """
    d = isqrt(len(block))
    action = [[{u: block[d * u + v][i] for u in range(d) if i in block[d * u + v]}
               for v in range(d)] for i in range(h.dim)]
    return RepModule("block", d, action)


def block_failure(h: HopfAlgebraData, block: list):
    """First (u, v) where a d x d block breaks its matrix-coalgebra identities, or None.

    The identities are Delta(m_uv) = sum_w m_uw (x) m_wv and eps(m_uv) =
    delta_uv, with block as in dual_module_from_block; they hold exactly when
    that module over dual(h) passes verify_module.
    """
    d = isqrt(len(block))
    m = [[block[d * u + v] for v in range(d)] for u in range(d)]
    for u in range(d):
        for v in range(d):
            if h.delta_dict(m[u][v]) != outer(*((m[u][w], m[w][v]) for w in range(d))):
                return f"Delta(m_uv) != sum_w m_uw (x) m_wv at (u, v) = ({u}, {v})"
            if h.counit_of(m[u][v]) != (h.one() if u == v else h.zero()):
                return f"eps(m_uv) != delta_uv at (u, v) = ({u}, {v})"
    return None


def verify_grouplikes(h: HopfAlgebraData, candidates, dual_blocks) -> GrouplikeCertificate:
    failures = []
    for idx, g in enumerate(candidates):
        if not is_grouplike(h, g):
            return GrouplikeCertificate(False, failures=[f"candidate {idx} is not group-like"])

    def key(v):
        return tuple(sorted(v.items()))

    index = {}
    for i, g in enumerate(candidates):
        if key(g) in index:
            failures.append("duplicate group-like candidates")
        index[key(g)] = i
    # closure under multiplication (a finite cancellative table is a group);
    # table[i][j] is the index of candidates[i] * candidates[j]
    table = []
    for a in candidates:
        row = [index.get(key(h.mult_dict(a, b))) for b in candidates]
        if None in row:
            failures.append("candidate set not closed under multiplication")
            break
        table.append(row)
    unit = index.get(key(h.unit))
    if unit is None:
        failures.append("unit missing from candidate set")
    if failures:
        orders = sorted(order(h, g, 16 * h.dim) or -1 for g in candidates)
        return GrouplikeCertificate(False, len(candidates), orders, failures=failures)
    # powers of a candidate stay in the closed table, so the first unit power
    # comes within len(candidates) steps if at all (hopf.order agrees)
    orders = sorted(least_power(i, lambda k: k == unit, len(candidates),
                                lambda k, j: table[k][j]) or -1
                    for i in range(len(candidates)))

    dual_h = dual(h)
    coradical_dim = coradical(h).dim
    block_dims = [isqrt(len(blk)) for blk in dual_blocks]
    # k_g is a dual(h)-module exactly when g is group-like, checked above, and
    # a block is one exactly when block_failure finds nothing
    for i, blk in enumerate(dual_blocks):
        why = block_failure(h, blk)
        if why is not None:
            return GrouplikeCertificate(False, len(candidates), orders, coradical_dim, block_dims,
                                        failures=["dual Wedderburn stage failed",
                                                  f"block{i}: {why}"])
    modules = []
    for i, g in enumerate(candidates):
        m = grouplike_module(h, g)
        m.label = f"k_g{i}"
        modules.append(m)
    blocks = []
    for i, blk in enumerate(dual_blocks):
        m = dual_module_from_block(h, blk)
        m.label = f"block{i}"
        blocks.append(m)
    cert = simples_certificate(dual_h, modules + blocks, radical_dim=dual_h.dim - coradical_dim)
    if not cert.ok:
        return GrouplikeCertificate(False, len(candidates), orders, coradical_dim, block_dims,
                                    failures=["dual Wedderburn stage failed"] + cert.details)
    total = len(candidates) + sum(d * d for d in block_dims)
    if total != coradical_dim:
        return GrouplikeCertificate(False, len(candidates), orders, coradical_dim, block_dims,
                                    failures=[f"|G| + sum d^2 = {total} != coradical {coradical_dim}"])
    return GrouplikeCertificate(True, len(candidates), orders, coradical_dim, block_dims)


# ---------------------------------------------------------------------------
# skew-primitives
# ---------------------------------------------------------------------------


def skew_primitive_space(h: HopfAlgebraData, g: dict, k: dict) -> Subspace:
    """Solutions of Delta x = x (x) g + k (x) x; swap g and k for Delta x = g (x) x + x (x) k.

    The trivial line k(k - g) always lies inside when g != k; callers use
    dim > 1 as the nontriviality flag.
    """
    n = h.dim
    rows = defaultdict(dict)  # (a, b) -> sparse coefficient row of e_a (x) e_b
    for i in range(n):
        for ab, c in h.comult[i].items():
            rows[ab][i] = c
    for i in range(n):
        for b, gb in g.items():
            accumulate(rows[(i, b)], i, -gb)
        for a, ka in k.items():
            accumulate(rows[(a, i)], i, -ka)
    return _nullspace_of_rows(h, rows.values())


def _nullspace_of_rows(h: HopfAlgebraData, rows) -> Subspace:
    """Common solutions of rows, sparse {index: coefficient} dicts; empty ones are dropped."""
    return Subspace.from_vectors(h.dim, h.conductor, [r for r in rows if r]).perp()


# ---------------------------------------------------------------------------
# integrals and the distinguished group-like
# ---------------------------------------------------------------------------


def integrals(h: HopfAlgebraData):
    """(left, right) integral subspaces of the bialgebra h; each must be one-dimensional.

    A left integral lam has a lam = eps(a) lam for every a.  Only the rows for
    a in known_generators(h) are built: the a with a lam = eps(a) lam form a
    subspace that holds 1 and is closed under products, (ab) lam = a (b lam)
    = eps(ab) lam, so by the closure argument of hopf.multiplicative it is
    all of h.  The same holds for right integrals, lam a = eps(a) lam.
    """
    n = h.dim
    left_rows = []
    right_rows = []
    for i in known_generators(h):
        # lrows[coord][j] = coefficient of e_coord in e_i e_j, minus eps(e_i) when j = coord
        lrows = [{} for _ in range(n)]
        rrows = [{} for _ in range(n)]
        for j in range(n):
            for coord, c in h.mult[i][j].items():
                lrows[coord][j] = c
            for coord, c in h.mult[j][i].items():
                rrows[coord][j] = c
        eps_i = h.counit[i]
        if not eps_i.is_zero():
            for coord in range(n):
                accumulate(lrows[coord], coord, -eps_i)
                accumulate(rrows[coord], coord, -eps_i)
        left_rows += lrows
        right_rows += rrows
    left = _nullspace_of_rows(h, left_rows)
    right = _nullspace_of_rows(h, right_rows)
    if left.dim != 1 or right.dim != 1:
        raise AssertionError(
            f"integral spaces must be one-dimensional, got {left.dim}/{right.dim}")
    return left, right


def distinguished_grouplike(h: HopfAlgebraData) -> dict:
    """a = lam(v)^-1 lam(v_2) v_1 for a right integral lam of the dual."""
    _, right = integrals(dual(h))
    lam = right.basis()[0]
    pivot = min(lam)
    acc = {}
    for (j, k), c in h.comult[pivot].items():
        if k in lam:
            accumulate(acc, j, c * lam[k])
    scale = lam[pivot].inverse()
    out = {j: scale * v for j, v in acc.items()}
    if not is_grouplike(h, out):
        raise AssertionError("distinguished group-like formula returned a non-group-like")
    return out


# ---------------------------------------------------------------------------
# coinvariants of a Hopf algebra map
# ---------------------------------------------------------------------------


def verify_hopf_map(h: HopfAlgebraData, target: HopfAlgebraData, pi: list):
    """pi must be an algebra and coalgebra map; returns (ok, first failure).

    pi is given by sparse columns: pi[j] = {index in target: nonzero value} is pi(e_j).
    """
    # multiplicative's reduction to generators(h) needs an associative target
    # with a unit, which only a certified generators(target) vouches for
    gens = generators(h) if len(generators(target)) < target.dim else range(h.dim)
    why = witness_failures(h, multiplicative_over(
        h, gens, lambda vec: compose_columns(pi, [vec])[0], target.mult_dict,
        target.unit), "pi(1) != 1", "pi is not an algebra map at")
    if why:
        return False, why[0]
    for i in range(h.dim):
        di = {}
        for (j, k), c in h.comult[i].items():
            for a, ca in pi[j].items():
                for b, cb in pi[k].items():
                    accumulate(di, (a, b), c * ca * cb)
        if di != target.delta_dict(pi[i]):
            return False, f"pi is not a coalgebra map at {h.labels[i]}"
        if target.counit_of(pi[i]) != h.counit[i]:
            return False, f"counit not preserved at {h.labels[i]}"
    return True, None


def coinvariants(h: HopfAlgebraData, target: HopfAlgebraData, pi: list) -> Subspace:
    """{v : (id (x) pi) Delta v = v (x) 1_target}; pi, sparse columns as in
    verify_hopf_map, is checked first."""
    ok, why = verify_hopf_map(h, target, pi)
    if not ok:
        raise ValueError(f"projection is not a Hopf algebra map: {why}")
    n = h.dim
    rows = defaultdict(dict)  # (j, b) -> sparse coefficient row of e_j (x) f_b
    for i in range(n):
        for (j, k), c in h.comult[i].items():
            for b, cb in pi[k].items():
                accumulate(rows[(j, b)], i, c * cb)
    for i in range(n):
        for b, ub in target.unit.items():
            accumulate(rows[(i, b)], i, -ub)
    return _nullspace_of_rows(h, rows.values())


# ---------------------------------------------------------------------------
# the aggregated report
# ---------------------------------------------------------------------------


def invariant_report(h: HopfAlgebraData, cd=None) -> tuple[dict, list]:
    """The invariant report as its JSON payload, and why the group-like certificate
    is false (nothing when it holds or no sidecar cd is given)."""
    dual_h = dual(h)
    rad = jacobson_radical(h)
    rad_dual = jacobson_radical(dual_h)
    h0 = coradical(h)
    filtration = coradical_filtration(h)
    chev, chev_wit = chevalley_check(h)
    trs2 = tr_s_squared(h)
    s2_order = s_squared_order(h)
    # the dual coradical is J(H)-perp inside H*, since dual(dual_h) is h
    dual_corad = coradical(dual_h).dim
    certs = {
        "coradical_plus_dual_radical": h0.dim + rad_dual.dim == h.dim,
        "dual_coradical_plus_radical": dual_corad + rad.dim == h.dim,
        "semisimple_routes_agree": (rad.dim == 0) == (not trs2.is_zero()),
        # Larson-Radford in characteristic zero: J(H*) = 0 iff S^2 = id iff Tr(S^2) != 0
        "cosemisimple_routes_agree": (rad_dual.dim == 0) == (s2_order == 1) == (not trs2.is_zero()),
    }
    glcount = 0
    orders = []
    dist_idx = None
    dist_label = None
    skew_dims = {}
    gl_failures = []
    if cd is not None:
        cert = verify_grouplikes(h, cd.grouplikes, cd.dual_blocks)
        certs["grouplike_certificate"] = cert.ok
        glcount = cert.count
        orders = cert.orders
        gl_failures = cert.failures
        certs["grouplike_count_divides_dim"] = cert.count > 0 and h.dim % cert.count == 0
        dist = distinguished_grouplike(h)
        for i, g in enumerate(cd.grouplikes):
            if g == dist:
                dist_idx = i
                if i < len(cd.grouplike_labels):
                    dist_label = cd.grouplike_labels[i]
                break
        certs["distinguished_in_grouplikes"] = dist_idx is not None
        if cd.skew_witness is not None:
            g_el, k_el, x_el = cd.skew_witness
            sp = skew_primitive_space(h, g_el, k_el)
            skew_dims["witness_pair"] = sp.dim
            certs["skew_witness_in_space"] = sp.contains(x_el)
            certs["skew_witness_nontrivial"] = sp.dim > 1
    integrals(h)  # raises if not one-dimensional
    certs["integral_spaces_one_dimensional"] = True
    return {
        "dim": h.dim,
        "conductor": h.conductor,
        "radical_dim": rad.dim,
        "coradical_dim": h0.dim,
        "filtration_dims": [s.dim for s in filtration],
        "grouplike_count": glcount,
        "grouplike_orders": orders,
        "tr_s2": cyc_to_json(trs2),
        "semisimple": is_semisimple(h),
        "cosemisimple": rad_dual.dim == 0,
        "chevalley": chev,
        "chevalley_witness": chev_wit,
        "antipode_order": antipode_order(h),
        "s_squared_order": s2_order,
        "distinguished_grouplike_index": dist_idx,
        "distinguished_grouplike_label": dist_label,
        "skew_primitive_dims": skew_dims,
        "certificates": certs,
    }, gl_failures
