"""The one-shot certification driver: build a family, run verify_hopf on it
once, recompute every claimed invariant, and return a pass/fail table.

The rows the invariant report decides come from report_claims, which
`invariants --expect` runs too, and CLAIM_TYPES gives the JSON type of each
claim they read."""

from __future__ import annotations

from .catalog import build_family
from .hopf import dual, tr_s_squared, verify_hopf
from .invariants import coradical, invariant_report
from .linalg import Subspace, accumulate, compose_columns
from .repsolver import are_isomorphic, wedderburn_certificate


class ClaimRow:
    __slots__ = ("claim_id", "expected", "computed")

    def __init__(self, claim_id: str, expected, computed):
        self.claim_id = claim_id
        self.expected = expected
        self.computed = computed

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


class CertifySuite:
    __slots__ = ("family", "params", "rows")

    def __init__(self, family: str, params: dict):
        self.family = family
        self.params = params
        self.rows: list[ClaimRow] = []

    def add(self, claim_id, expected, computed):
        self.rows.append(ClaimRow(claim_id, expected, computed))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json(self):
        return {
            "family": self.family,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "ok": self.ok,
            "claims": [
                {"id": r.claim_id, "expected": str(r.expected),
                 "computed": str(r.computed), "ok": r.ok}
                for r in self.rows
            ],
        }

    def render(self) -> str:
        lines = [f"certify {self.family} {self.params}"]
        width = max((len(r.claim_id) for r in self.rows), default=10)
        for r in self.rows:
            mark = "pass" if r.ok else "FAIL"
            lines.append(f"  {r.claim_id:<{width}}  {mark}  expected={r.expected}  computed={r.computed}")
        lines.append("  => " + ("ALL CLAIMS PASS" if self.ok else "CLAIM FAILURES"))
        return "\n".join(lines)


def certify_family(name: str, params: dict) -> CertifySuite:
    suite = CertifySuite(name, dict(params))
    h, cd = build_family(name, params)
    rep_hopf = verify_hopf(h)
    suite.add("verify_hopf", True, rep_hopf.ok)
    if not rep_hopf.ok:
        return suite
    exp = cd.expected
    rep, _ = invariant_report(h, cd)
    suite.rows.extend(report_claims(h, rep, exp))
    wc = wedderburn_certificate(h, cd.simples, rep["radical_dim"])  # fails on no candidates
    if cd.simples:
        suite.add("wedderburn", True, wc.ok)
        if "simple_profile" in exp:
            suite.add("simple_profile", exp["simple_profile"], wc.profile)
    for key, value in sorted(rep["certificates"].items()):
        suite.add(f"cert:{key}", True, value)
    if "coradical_span_indices" in exp:
        span = Subspace.from_vectors(h.dim, h.conductor,
                                     [{k: h.one()} for k in exp["coradical_span_indices"]])
        suite.add("coradical_equals_declared_span", True, coradical(h) == span)
    if "dual_grouplike_count" in exp or "dual_coradical_dim" in exp:
        _dual_side_claims(suite, h, wc, exp)
    if name == "h8p":
        _h8p_extra_claims(suite, h, cd)
    return suite


# the exact JSON type of each claim that report_claims compares; a sidecar's
# claims are read against it, since 9.0 == 9 and 0 == False
CLAIM_TYPES = {"dim": int, "grouplike_count": int, "grouplike_orders": list[int],
               "coradical_dim": int, "radical_dim": int, "semisimple": bool, "chevalley": bool,
               "s4_is_id": bool, "distinguished_grouplike": int | None,
               "distinguished_is_unit": bool, "commutative": bool}


def report_claims(h, rep: dict, exp: dict) -> list[ClaimRow]:
    """A row for each claim of exp that h's invariant report rep decides, in the
    order certify lists them; `invariants --expect` checks the same rows."""
    rows = [ClaimRow(key, exp[key], rep[key])
            for key in ("dim", "grouplike_count", "grouplike_orders", "coradical_dim",
                        "radical_dim") if key in exp]
    if "semisimple" in exp:
        rows.append(ClaimRow("semisimple", exp["semisimple"], rep["semisimple"]))
        trs2 = tr_s_squared(h)
        computed_tr = None
        if trs2.is_zero():
            computed_tr = 0
        elif trs2.is_rational() and trs2.rational_value() == h.dim:
            computed_tr = h.dim
        rows.append(ClaimRow("tr_s2", h.dim if exp["semisimple"] else 0, computed_tr))
    if "chevalley" in exp:
        rows.append(ClaimRow("chevalley", exp["chevalley"], rep["chevalley"]))
    if "s4_is_id" in exp:
        order = rep["antipode_order"]
        rows.append(ClaimRow("s4_is_id", exp["s4_is_id"], order is not None and 4 % order == 0))
        rows.append(ClaimRow("s2_not_id", True, rep["s_squared_order"] != 1))
    dist = rep["distinguished_grouplike_index"]
    if "distinguished_grouplike" in exp:
        rows.append(ClaimRow("distinguished_grouplike", exp["distinguished_grouplike"], dist))
    if "distinguished_is_unit" in exp:
        rows.append(ClaimRow("distinguished_is_unit", exp["distinguished_is_unit"], dist == 0))
    if "commutative" in exp:
        comm = all(h.mult[i][j] == h.mult[j][i]
                   for i in range(h.dim) for j in range(i + 1, h.dim))
        rows.append(ClaimRow("commutative", exp["commutative"], comm))
    return rows


def _dual_side_claims(suite, h, wc, exp):
    """G(H*) and the coradical of H*, read off H's Wedderburn certificate wc.

    The 1-dim simple H-modules are G(H*), and a complete set of simples
    passing the dimension count gives (H*)_0 = J(H)-perp, the sum of their
    matrix-coefficient coalgebras.  The simples are pairwise non-isomorphic
    because their characters have full rank: isomorphic modules have equal
    characters.  A complete set of characters is a group, so closure and
    the unit follow.  verify_grouplikes(dual(h), ...) on the matrix
    coefficients is the reference route the tests compare with.
    """
    if "dual_grouplike_count" in exp:
        suite.add("dual_grouplike_count", exp["dual_grouplike_count"], wc.profile.count(1))
    if "dual_coradical_dim" in exp:
        suite.add("dual_coradical_dim", exp["dual_coradical_dim"], coradical(dual(h)).dim)
    suite.add("dual_grouplike_certificate", True, wc.ok)


def _h8p_extra_claims(suite, h, cd):
    u_all = cd.extra.get("u_all")
    if u_all is None:
        return
    p = h.dim // 8
    pairs_ok = all(are_isomorphic(h, u_all[i], u_all[(i + p) % (2 * p)])
                   for i in range(2 * p))
    suite.add("U_i_iso_U_i_plus_p", True, pairs_ok)
    cross_ok = not are_isomorphic(h, u_all[0], u_all[1])
    suite.add("U_0_not_iso_U_1", True, cross_ok)
    # z^2 = a - 1 as actions on U_0, checked as z^2 + 1 = a
    u0 = cd.simples[2 * p]
    z_idx = h.dim // 2  # first z-monomial: z a^0 x^0
    a_idx = 2 * p
    zz_plus_1 = compose_columns(u0.action[z_idx], u0.action[z_idx])
    for j, col in enumerate(zz_plus_1):
        accumulate(col, j, h.one())
    suite.add("U0_z_squared_is_a_minus_1", True, zz_plus_1 == u0.action[a_idx])
