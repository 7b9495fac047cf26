"""Yetter-Drinfeld modules over group algebras, braidings, quantum-line data,
bosonization, and Nichols-algebra graded dimensions via symmetrizer ranks.

Infinitude is never asserted: a report only says whether the symmetrizer rank
hit zero within the cutoff.
"""

from __future__ import annotations

import operator
from itertools import product

from .cyclotomic import CycNumber, root_of_unity
from .groups import FiniteGroup, cyclic_group, gamma4p_ell, gamma4p_group
from .hopf import (HopfAlgebraData, inverse, is_grouplike, least_power, multiplicative, verify_hopf,
                   witness_failures)
from .linalg import Matrix, accumulate, add_scaled, compose_columns, independent
from .presentation import group_algebra_hopf
from .repsolver import RepModule, action_witnesses, module_from_gen_mats


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------


def q_binomial(n: int, i: int, q: CycNumber) -> CycNumber:
    """Gaussian binomial by the q-Pascal recurrence (safe at roots of unity)."""
    if i < 0 or i > n:
        return CycNumber.zero(q.conductor)
    row = [CycNumber.one(q.conductor)]
    for _ in range(n):
        new = [CycNumber.one(q.conductor)]
        qpow = CycNumber.one(q.conductor)
        for s in range(1, len(row) + 1):
            qpow = qpow * q
            left = row[s - 1]
            right = row[s] if s < len(row) else CycNumber.zero(q.conductor)
            new.append(left + qpow * right)
        row = new
    return row[i]


# ---------------------------------------------------------------------------
# Yetter-Drinfeld modules over a group
# ---------------------------------------------------------------------------


class YDModule:
    __slots__ = ("group", "conductor", "dim", "action", "grading", "label")

    def __init__(self, group: FiniteGroup, conductor: int, dim: int, action: dict, grading: list,
                 label: str = ""):
        self.group = group
        self.conductor = conductor
        self.dim = dim
        self.action = action    # generator name -> its action as sparse columns
        self.grading = grading  # basis index -> group element
        self.label = label

    def element_matrices(self) -> list:
        """The action of each of group.elements, as sparse columns, in that order."""
        grp = self.group
        return module_from_gen_mats(self.dim, self.conductor, [grp.word(g) for g in grp.elements],
                                    self.action, self.label).action


def verify_yd(mod: YDModule):
    """Group representation + compatibility of grading with conjugation."""
    grp = mod.group
    mats = mod.element_matrices()
    kg = group_algebra_hopf(grp, mod.conductor)
    why = witness_failures(kg, action_witnesses(kg, RepModule(mod.label, mod.dim, mats)),
                           "the identity does not act as identity", "action not multiplicative at")
    if why:
        return False, why[0]
    for i, g in enumerate(grp.elements):
        gi = grp.inv(g)
        for col, image in enumerate(mats[i]):
            target = grp.mult(grp.mult(g, mod.grading[col]), gi)
            if any(mod.grading[row] != target for row in image):
                return False, (f"grading breaks: {grp.labels[i]} moves degree "
                               f"{mod.grading[col]} off {target}")
    return True, None


def yd_module_gamma4p(p: int, class_spec, rep_spec) -> YDModule:
    """The explicit simple Yetter-Drinfeld modules over the order-4p semidirect
    product group, one per (conjugacy class, centralizer irrep) pair.

    For the x^m classes the action is x.v_j = w^k v_(jl); the printed
    x.v_j = w^k v_(jl+1) fails the compatibility axiom.
    """
    grp = gamma4p_group(p)
    conductor = grp.conductor
    ell = gamma4p_ell(p)
    kind = class_spec[0]
    if kind == "trivial":
        label = _gamma_rep_label(rep_spec)
        rep = next((r for r in grp.irreps if r.label == label), None)
        if rep is None:
            raise ValueError(f"no irreducible representation {label} of the group")
        return YDModule(grp, conductor, rep.dim,
                        {"x": rep.gen_mats["x"], "y": rep.gen_mats["y"]},
                        [grp.identity] * rep.dim, label=f"M(e,{rep.label})")
    if kind == "y":
        k = class_spec[1] % p
        if k == 0:
            raise ValueError("use the trivial class for k = 0")
        _check_rep_name(rep_spec, "psi", "y")
        s = rep_spec[1] % p
        one = CycNumber.one(conductor)
        x_mat = [{(j + 1) % 4: one} for j in range(4)]
        y_mat = [{j: root_of_unity(conductor, 4 * ((s * pow(ell, 4 - j, p)) % p))}
                 for j in range(4)]
        grading = [((k * pow(ell, j, p)) % p, 0) for j in range(4)]
        return YDModule(grp, conductor, 4, {"x": x_mat, "y": y_mat}, grading,
                        label=f"M(O_y^{k},psi_{s})")
    if kind == "x":
        m = class_spec[1] % 4
        if m == 0:
            raise ValueError("use the trivial class for m = 0")
        _check_rep_name(rep_spec, "chi", "x")
        k = rep_spec[1] % 4
        one = CycNumber.one(conductor)
        omega_k = root_of_unity(conductor, p * k)
        x_mat = [{(j * ell) % p: omega_k} for j in range(p)]
        y_mat = [{(j + 1) % p: one} for j in range(p)]
        grading = [((j * (1 - pow(ell, m, p))) % p, m) for j in range(p)]
        return YDModule(grp, conductor, p, {"x": x_mat, "y": y_mat}, grading,
                        label=f"M(O_x^{m},chi_{k})")
    raise ValueError(f"unknown class spec {class_spec!r}")


def _check_rep_name(rep_spec, name, kind):
    if rep_spec[0] != name:
        raise ValueError(f"the {kind} classes take a {name} representation, got {rep_spec[0]!r}")


def _gamma_rep_label(rep_spec):
    kind, idx = rep_spec
    if kind == "alpha":
        return f"alpha{idx}"
    if kind == "beta":
        return f"beta(k={idx})"
    raise ValueError(f"unknown representation spec {rep_spec!r}")


def braiding(mod: YDModule) -> dict:
    """c(u (x) w) = deg(u).w (x) u on the tensor square, as sparse columns.

    A braiding is {(r, t): {(s, u): value}}, the value being the nonzero
    coefficient of e_s (x) e_u in c(e_r (x) e_t); here u = r always.  Columns
    with no nonzero entry are left out.
    """
    v = mod.dim
    c = {}
    mats = mod.element_matrices()
    for r in range(v):
        m = mats[mod.group.index[mod.grading[r]]]
        for t in range(v):
            if m[t]:
                c[(r, t)] = {(s, r): a for s, a in m[t].items()}
    return c


def _conductor(c: dict) -> int:
    """The conductor of a braiding's entries; 1 for the zero map, which is defined over Q."""
    return next((val.conductor for col in c.values() for val in col.values()), 1)


def _apply_braiding(c: dict, vec: dict, i: int) -> dict:
    """c acting on letters i, i+1 (from 0) of a sparse vector {word tuple: value}."""
    out: dict = {}
    for w, a in vec.items():
        head, tail = w[:i], w[i + 2:]
        for pair, b in c.get(w[i:i + 2], {}).items():
            accumulate(out, head + pair + tail, a * b)
    return out


def braid_equation_check(c: dict, v: int) -> bool:
    """c_1 c_2 c_1 = c_2 c_1 c_2 on V^(x)3, compared column by column."""
    one = CycNumber.one(_conductor(c))
    for w in product(range(v), repeat=3):
        lhs = rhs = {w: one}
        for i in (0, 1, 0):
            lhs = _apply_braiding(c, lhs, i)
            rhs = _apply_braiding(c, rhs, 1 - i)
        if lhs != rhs:
            return False
    return True


def diagonal_type(mod: YDModule):
    """q-matrix if every c(e_r (x) e_t) is a scalar times e_t (x) e_r, else None."""
    v = mod.dim
    c = braiding(mod)
    qm = [[None] * v for _ in range(v)]
    for r in range(v):
        for t in range(v):
            col = c.get((r, t), {})
            if list(col) != [(t, r)]:
                return None
            qm[r][t] = col[(t, r)]
    return qm


# ---------------------------------------------------------------------------
# quantum-line data and bosonization
# ---------------------------------------------------------------------------


class YDDatum:
    __slots__ = ("L", "g", "chi", "q", "label")

    def __init__(self, L: HopfAlgebraData, g: dict, chi: list, q: CycNumber, label: str = ""):
        self.L = L
        self.g = g      # a group-like of L, as a sparse vector
        self.chi = chi  # CycNumber values on the basis of L
        self.q = q
        self.label = label


def cyclic_datum(n, chi_power, g_power):
    """The quantum-line datum over k[C_n] = k<h> with chi(h) = zeta_n^chi_power and g = h^g_power."""
    L = group_algebra_hopf(cyclic_group(n))
    chi = [root_of_unity(n, chi_power * i) for i in range(n)]
    return YDDatum(L, L.basis_dict(g_power), chi, chi[g_power])


def _chi_of(d: YDDatum, vec: dict) -> CycNumber:
    out = CycNumber.zero(d.L.conductor)
    for i, c in vec.items():
        out = out + d.chi[i] * c
    return out


def validate_yd_datum(d: YDDatum):
    """(valid, witness): L is a Hopf algebra, chi an algebra map, g group-like,
    chi(g) = q, and the commutation rule holds."""
    L = d.L
    rep = verify_hopf(L)
    if not rep.ok:
        return False, "algebra fails verify_hopf: " + "; ".join(rep.failures)
    why = witness_failures(L, multiplicative(L, lambda vec: _chi_of(d, vec), operator.mul, L.one()),
                           "chi(1) != 1", "chi not multiplicative at")
    if why:
        return False, why[0]
    if not is_grouplike(L, d.g):
        return False, "g is not group-like"
    n = least_power(d.q, CycNumber.is_one)
    if n is None or n < 2:
        return False, "q is not a root of unity of order >= 2"
    if _chi_of(d, d.g) != d.q:
        return False, "chi(g) != q"
    for i in range(L.dim):
        lhs: dict[int, CycNumber] = {}
        rhs: dict[int, CycNumber] = {}
        for (j, k), c in L.comult[i].items():
            # (chi -> h) g = chi(h_2) h_1 g ; g (h <- chi) = chi(h_1) g h_2
            for x, cx in L.mult_dict({j: c * d.chi[k]}, d.g).items():
                accumulate(lhs, x, cx)
            for x, cx in L.mult_dict(d.g, {k: c * d.chi[j]}).items():
                accumulate(rhs, x, cx)
        if lhs != rhs:
            return False, f"commutation fails at basis element {L.labels[i]}"
    return True, None


def bosonize(d: YDDatum, lam=0) -> HopfAlgebraData:
    """Biproduct of the length-N quantum line with L, basis y^m # l (m-major),
    or its lifting y^N = lam (1 - g^N) for a rational lam != 0.

    A product y^a # l . y^b # l' is y^(a+b) # T^b(l) l', with the chi-twist
    T(l) = chi(l_1) l_2; past a + b = N it wraps to y^(a+b-N) # u T^b(l) l',
    u = lam (1 - g^N) in L.  Delta, eps and S do not depend on lam.

    The antipode S is the anti-multiplicative extension of the axiom-forced
    generator images.  Nothing is verified here, as for the catalog's
    constructors: the result is a Hopf algebra only if it passes verify_hopf,
    which every command that reports on it runs, and a lifting passes only for
    some data.  No second route to S is needed: verify_hopf certifies
    S * id = 1 eps = id * S on all of h (on the algebra generators, once S is
    certified anti-multiplicative), and a convolution inverse is unique, since
    any F with F * id = 1 eps is F = F * (id * S) = (F * id) * S = S.
    """
    L = d.L
    n_trunc = least_power(d.q, CycNumber.is_one)
    dim = n_trunc * L.dim
    conductor = L.conductor

    def idx(m, i):
        return m * L.dim + i

    # chi-twist T(l) = chi(l_1) l_2 as a sparse matrix power cache
    twist = [dict() for _ in range(L.dim)]
    for i in range(L.dim):
        for (j, k), c in L.comult[i].items():
            accumulate(twist[i], k, c * d.chi[j])
    twists = [[{i: L.one()} for i in range(L.dim)]]
    for _ in range(n_trunc):
        twists.append(compose_columns(twist, twists[-1]))

    g_pows = [L.unit]
    for _ in range(n_trunc):
        g_pows.append(L.mult_dict(g_pows[-1], d.g))
    # y^N = u = lam (1 - g^N) in L; u = 0 for the biproduct itself
    lam = CycNumber.from_rational(conductor, lam)
    u: dict[int, CycNumber] = {}
    add_scaled(u, L.unit, lam, L.one())
    add_scaled(u, g_pows[n_trunc], -lam, L.one())

    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for m in range(n_trunc):
        for i in range(L.dim):
            row = idx(m, i)
            for n2 in range(n_trunc):
                wrap, m2 = divmod(m + n2, n_trunc)
                left = L.mult_dict(u, twists[n2][i]) if wrap else twists[n2][i]
                for i2 in range(L.dim):
                    acc: dict[int, CycNumber] = {}
                    for k, c in left.items():
                        for k2, c2 in L.mult[k][i2].items():
                            accumulate(acc, idx(m2, k2), c * c2)
                    mult[row][idx(n2, i2)] = acc

    qbins = [[q_binomial(n2, s, d.q) for s in range(n2 + 1)] for n2 in range(n_trunc)]
    comult = []
    for m in range(n_trunc):
        for i in range(L.dim):
            delta = {}
            for (j, k), c in L.comult[i].items():
                for s in range(m + 1):
                    coeff = qbins[m][s] * c
                    if coeff.is_zero():
                        continue
                    left = L.mult_dict(g_pows[m - s], {j: coeff})
                    for lidx, lc in left.items():
                        accumulate(delta, (idx(s, lidx), idx(m - s, k)), lc)
            comult.append(delta)

    zero = L.zero()
    unit = {idx(0, i): c for i, c in L.unit.items()}
    counit = [zero] * dim
    for i, c in enumerate(L.counit):
        counit[idx(0, i)] = c

    h = HopfAlgebraData(
        dim, conductor,
        [f"y^{m}#{lb}" if m else lb for m in range(n_trunc) for lb in L.labels],
        mult, unit, comult, counit, None)

    # antipode: S(1#l) = 1#S_L(l), S(y#1) = -q^{-1} y#g^{-1}, anti-extended
    g_inv = inverse(L, d.g)
    if g_inv is None:
        raise ValueError("datum group-like is not invertible")
    sy = {idx(1, i): -(d.q.inverse()) * c for i, c in g_inv.items()}
    sy_pows = [h.unit]
    for _ in range(n_trunc - 1):
        sy_pows.append(h.mult_dict(sy_pows[-1], sy))
    anti = []
    for m in range(n_trunc):
        for col in L.antipode:
            sl = {idx(0, r): c for r, c in col.items()}
            anti.append(h.mult_dict(sl, sy_pows[m]) if m else sl)
    h.antipode = anti
    return h


# ---------------------------------------------------------------------------
# Nichols algebra graded dimensions
# ---------------------------------------------------------------------------


class NicholsReport:
    __slots__ = ("ranks", "cutoff", "truncated", "total_dim", "guard_hit")

    def __init__(self, ranks: list, cutoff: int, truncated: bool, total_dim: int | None,
                 guard_hit: bool):
        self.ranks = ranks
        self.cutoff = cutoff
        self.truncated = truncated
        self.total_dim = total_dim
        self.guard_hit = guard_hit


def default_cutoff(v: int) -> int:
    if v == 1:
        return 8
    if v == 2:
        return 6
    if v in (4, 5):
        return 4
    return 3


def symmetrizer(c: dict, v: int, n: int, columns: dict | None = None) -> Matrix:
    """Sum of T_w over the symmetric group, one column per word, by the
    shuffle factorization
    S_n = (1 + c_(n-1) + c_(n-2)c_(n-1) + ... + c_1...c_(n-1)) . (S_(n-1) (x) id).

    Column w'x starts from S_(n-1) e_w' (x) e_x; each further term is the
    previous one with one more c applied, one position to the left, so the
    column costs n - 1 sparse applications of c.  Nothing assumes the
    braiding is monomial.  `columns`, the sparse columns {word: column} of
    some words of one length up to n, is grown in place to degree n, each
    column w into the columns wx, one shuffle step per degree (from all of
    degree 0 if not given, so that all of S_n is built).

    The dense Matrix has v^n rows, each at its word's base-v place, and one
    column per word of `columns`, in its order: perfbench's tracer reads it
    until ROADMAP E and H.
    """
    conductor = _conductor(c)
    if columns is None:
        columns = {(): {(): CycNumber.one(conductor)}}
    for m in range(len(next(iter(columns))) + 1, n + 1):
        for w in list(columns):
            col = columns.pop(w)
            for x in range(v):
                term = {u + (x,): a for u, a in col.items()}
                total = dict(term)
                for i in range(m - 2, -1, -1):
                    term = _apply_braiding(c, term, i)
                    for u, a in term.items():
                        accumulate(total, u, a)
                columns[w + (x,)] = total
    index = _word_places(v, n)
    out = Matrix(len(index), len(columns), conductor)
    for j, col in enumerate(columns.values()):
        for u, a in col.items():
            out.entries[index[u]][j] = a
    return out


def _word_places(v: int, n: int) -> dict:
    """{word: its base-v value} over the words of length n."""
    return {w: j for j, w in enumerate(product(range(v), repeat=n))}


def matrix_rank(s: Matrix, columns: list) -> list:
    """The indices of those of `columns`, the sparse columns of s, that are
    independent of the ones before them (`linalg.independent`); when they
    span im S_n, as many as its rank.

    A function of its own so that perfbench's tracer times each degree's
    rank (span ydnichols.rank) and reads s, the columns that are ranked, as
    its input.  Nothing else reads s until ROADMAP E and H.
    """
    return independent(columns)


def nichols_dims(c: dict, v: int, cutoff: int | None = None,
                 guard_mb: int = 512) -> NicholsReport:
    """Per-degree ranks of the quantum symmetrizer; rank 0 means truncation.

    One dict of columns is carried through, the columns of W_(n-1), the
    words whose columns span im S_(n-1), so each degree is one shuffle step
    on them alone.  S_n = T_n (S_(n-1) (x) id) puts im S_n in the span of the
    columns wx with w in W_(n-1), so only those are built and ranked, and the
    independent ones, W_n, are carried on.
    """
    if not braid_equation_check(c, v):
        raise ValueError("braiding does not satisfy the braid equation")
    if cutoff is None:
        cutoff = default_cutoff(v)
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    ranks = [1]
    truncated = False
    guard_hit = False
    columns = {(): {(): CycNumber.one(_conductor(c))}}
    for n in range(1, cutoff + 1):
        est_mb = (v ** (2 * n)) * 120 / 1e6
        if est_mb > guard_mb:
            guard_hit = True
            break
        s = symmetrizer(c, v, n, columns)
        words = list(columns)
        # rows keyed by their words' places: int keys are cheaper to rank
        index = _word_places(v, n)
        cols = [{index[u]: a for u, a in col.items()} for col in columns.values()]
        columns = {words[i]: columns[words[i]] for i in matrix_rank(s, cols)}
        ranks.append(len(columns))
        if not columns:
            truncated = True
            break
    total = sum(ranks) if truncated else None
    return NicholsReport(ranks=ranks, cutoff=cutoff, truncated=truncated,
                         total_dim=total, guard_hit=guard_hit)


# ---------------------------------------------------------------------------
# named quantum-line data over catalog algebras
# ---------------------------------------------------------------------------

DATUM_NAMES = ("fun-dic", "a4p-chi2", "a4p-chi3", "c2")


def bosonized_dim(name: str, p: int) -> int:
    """N dim L of bosonize(named_datum(name, p)), read off the name and p alone.

    Every named datum has q = -1, so N = 2.  p is not checked here: named_datum
    refuses a p that is not an odd prime, after the caller's dimension guard, so
    a huge p is refused without being factored.
    """
    if name == "c2":
        return 4
    if name not in DATUM_NAMES:
        raise ValueError(f"unknown datum {name!r}")
    return 8 * p


def named_datum(name: str, p: int = 3) -> YDDatum:
    from . import catalog

    if name == "fun-dic":
        return catalog._fun_dic_datum(p)[0]
    if name in ("a4p-chi2", "a4p-chi3"):
        L, group = catalog._a4p_algebra(p)
        chi = []
        for (i, k, e) in group.elements:
            if name == "a4p-chi2":
                val = (-1) ** i
            else:
                val = (-1) ** (i + e)
            chi.append(CycNumber.from_rational(L.conductor, val))
        # a4p's group-likes a*s+(p) and s+(p), s+(p) the middle reflection
        g = L.basis_dict(group.index[(1 if name == "a4p-chi2" else 0, (p - 1) // 2, 1)])
        return YDDatum(L, g, chi, CycNumber.from_rational(L.conductor, -1),
                       label=f"{name}(p={p})")
    if name == "c2":
        datum = cyclic_datum(2, 1, 1)
        datum.label = "c2"
        return datum
    raise ValueError(f"unknown datum {name!r}")
