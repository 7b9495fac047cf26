"""Module verification and Wedderburn-style completeness certificates.

Nothing here decomposes anything: candidate simple modules come in from the
catalog (or a JSON sidecar) and exact linear algebra judges them.  A module is
verified on the pairs (e_i, a), a in hopf.generators(h), through
hopf.multiplicative.  Simplicity
uses the Burnside span criterion, which is sufficient over any field; numbers
are closed by the dimension count sum(d_i^2) = dim H - dim J(H).  Pairwise
non-isomorphism needs no test of its own: isomorphic modules have equal
characters, so characters of full rank are pairwise non-isomorphic.
"""

from __future__ import annotations

from .cyclotomic import CycNumber
from .hopf import HopfAlgebraData, known_generators, multiplicative, witness_failures
from .linalg import (EchelonBasis, Subspace, accumulate, add_scaled, compose_columns,
                     extend_along_prefixes, identity_columns, trace)


class RepModule:
    __slots__ = ("label", "dim", "action")

    def __init__(self, label: str, dim: int, action: list):
        self.label = label
        self.dim = dim
        self.action = action  # per basis element of the algebra, its action as sparse columns


def module_from_gen_mats(dim, conductor, basis_words, gen_mats, label) -> RepModule:
    """rho(w g) = rho(w) rho(g) along each basis element's word, from its longest built prefix."""
    return RepModule(label, dim, extend_along_prefixes(
        basis_words, identity_columns(dim, conductor),
        lambda m, g: compose_columns(m, gen_mats[g])))


def _combination(m: RepModule, vec: dict) -> list:
    """The action of sum c e_k over vec = {k: c}, as sparse columns.

    A basis vector {k: CycNumber.one(N)} gives m.action[k] itself, a
    read-only alias: hopf.multiplicative_over only compares it and hands it
    to compose_columns.
    """
    out = [{} for _ in range(m.dim)]
    one = None
    for k, c in vec.items():
        if one is None:
            one = CycNumber.one(c.conductor)
            if c is one and len(vec) == 1:
                return m.action[k]
        for acc, col in zip(out, m.action[k]):
            add_scaled(acc, col, c, one)
    return out


def action_witnesses(h: HopfAlgebraData, m: RepModule) -> list:
    """multiplicative's witnesses for e_i -> m.action[i]: None if 1 does not act as identity."""
    return multiplicative(h, lambda vec: _combination(m, vec), compose_columns,
                          identity_columns(m.dim, h.conductor))


def verify_module(h: HopfAlgebraData, m: RepModule):
    """Action respects every structure constant; returns (ok, first failure)."""
    if len(m.action) != h.dim:
        return False, "action list length != algebra dimension"
    why = witness_failures(h, action_witnesses(h, m), "unit does not act as identity",
                           "action breaks at pair")
    return (False, why[0]) if why else (True, None)


def is_simple_certified(h: HopfAlgebraData, m: RepModule) -> bool:
    """Burnside: image of the algebra spans the full matrix algebra.

    The actions go into one echelon basis, column after column, until it
    reaches d^2.
    """
    target = m.dim * m.dim
    span = EchelonBasis()
    for cols in m.action:
        if span.dim == target:
            break
        span.add({m.dim * c + r: a for c, col in enumerate(cols) for r, a in col.items()})
    return span.dim == target


def hom_space(h: HopfAlgebraData, m: RepModule, n: RepModule) -> Subspace:
    """Intertwiners phi with phi . m(e_i) = n(e_i) . phi, as vec(phi) subspace.

    The equations run over i in known_generators(h): the certified algebra
    generators once verify_algebra has run on h, every basis index before.
    For genuine modules m and n both give the same space.
    """
    rows = []
    for i in known_generators(h):
        a = m.action[i]
        b = n.action[i]
        # equation block: phi a - b phi = 0; unknowns phi[r][c], vec index r*m.dim+c
        for r in range(n.dim):
            for c in range(m.dim):
                row = {}
                for k, x in a[c].items():
                    accumulate(row, r * m.dim + k, x)
                for k, col in enumerate(b):
                    if r in col:
                        accumulate(row, k * m.dim + c, -col[r])
                rows.append(row)
    return Subspace.from_vectors(n.dim * m.dim, h.conductor, rows).perp()


def are_isomorphic(h: HopfAlgebraData, m: RepModule, n: RepModule) -> bool:
    """An invertible phi with phi . m(e_i) = n(e_i) . phi at every basis index i.

    The candidates are the basis of hom_space, solved on known_generators(h).
    One is accepted after the check at every basis index, dim small
    compositions, so True holds even for actions never passed to
    verify_module.  False holds too: an intertwiner on the whole basis is one
    on the generators.
    """
    if m.dim != n.dim:
        return False
    for v in hom_space(h, m, n).basis():
        phi = [{r: v[r * m.dim + c] for r in range(n.dim) if r * m.dim + c in v}
               for c in range(m.dim)]
        if Subspace.from_vectors(n.dim, h.conductor, phi).dim == m.dim and all(
                compose_columns(phi, m.action[i]) == compose_columns(n.action[i], phi)
                for i in range(h.dim)):
            return True
    return False


class WedderburnCertificate:
    __slots__ = ("ok", "profile", "details")

    def __init__(self, ok: bool, profile: list[int], details: list[str] | None = None):
        self.ok = ok
        self.profile = profile
        self.details = [] if details is None else details

    def __bool__(self):
        return self.ok


def wedderburn_certificate(h: HopfAlgebraData, modules, radical_dim: int) -> WedderburnCertificate:
    """Verify every module, then the simples_certificate stages."""
    for m in modules:
        ok, why = verify_module(h, m)
        if not ok:
            return WedderburnCertificate(False, [], [f"{m.label}: {why}"])
    return simples_certificate(h, modules, radical_dim)


def simples_certificate(h: HopfAlgebraData, modules, radical_dim: int) -> WedderburnCertificate:
    """For modules already known to be modules: a complete set of simples.

    Burnside simplicity, the dimension count and the character rank.
    Isomorphic modules have equal characters, so characters of full rank also
    prove the modules pairwise non-isomorphic; a repeated simple fails the
    dimension count or the rank.  Nothing here multiplies in h, so callers
    that verify their modules another way (verify_grouplikes, on the
    coalgebra side) run only this stage.
    """
    for m in modules:
        if not is_simple_certified(h, m):
            return WedderburnCertificate(False, [], [f"{m.label}: Burnside span too small"])
    total = sum(m.dim * m.dim for m in modules)
    target = h.dim - radical_dim
    if total != target:
        return WedderburnCertificate(
            False, sorted(m.dim for m in modules),
            [f"sum d^2 = {total} but dim - radical = {target}"])
    # characters of the certified simples must be linearly independent: the
    # rank of the character matrix is that of its columns (chi_k(e_i))_k,
    # added until they span k^#modules
    chars = EchelonBasis()
    for i in range(h.dim):
        if chars.dim == len(modules):
            break
        chars.add([trace(m.action[i], h.zero()) for m in modules])
    if chars.dim != len(modules):
        return WedderburnCertificate(False, sorted(m.dim for m in modules),
                                     ["character matrix rank too small"])
    return WedderburnCertificate(True, sorted(m.dim for m in modules))
