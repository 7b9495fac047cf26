"""Hopf structure tensors from a group's multiplication and generator images.

group_algebra_hopf builds k[G]; realize_on_group keeps k[G]'s product and
extends coalgebra maps given on the group's generators (the twisted families
a4p, b4p, b8 and fun_dic); assemble_hopf does that extension for any table
whose basis words are closed under prefixes.  Nothing here proves the images
well defined: every command that reports on the result runs verify_hopf on it
first.  The name is kept from when the module also held a rewriting engine,
and perfbench's tracer folds it into the catalog layer; the engine now lives
in tests/presentation_oracle.py, as the reference that the catalog's
constructions are checked against.
"""

from __future__ import annotations

from .cyclotomic import CycNumber
from .hopf import HopfAlgebraData
from .linalg import extend_along_prefixes


def assemble_hopf(dim, conductor, labels, mult, unit_index, basis_words,
                  gen_delta, gen_eps, gen_s) -> HopfAlgebraData:
    """Multiplicative extension of Delta and eps, anti-multiplicative of S.

    Delta(w g) = Delta(w) Delta(g), eps(w g) = eps(w) eps(g) and
    S(w g) = S(g) S(w), each word from its longest built prefix w.
    """
    one = CycNumber.one(conductor)
    unit = {unit_index: one}

    # the algebra alone, for its product kernels; the coalgebra is built below
    ring = HopfAlgebraData(dim, conductor, labels, mult, unit, [], [], None)

    def step(value, g):
        t, e, s = value
        return (ring.tensor_mult(t, gen_delta[g]), e * gen_eps[g], ring.mult_dict(gen_s[g], s))

    images = extend_along_prefixes(
        basis_words, ({(unit_index, unit_index): one}, one, {unit_index: one}), step)
    comult = [t for t, _, _ in images]
    counit = [e for _, e, _ in images]
    anti = [s for _, _, s in images]
    return HopfAlgebraData(dim, conductor, labels, mult, unit, comult, counit, anti)


def group_mult_table(group, conductor):
    """Multiplication tensor of the group algebra (basis = group elements)."""
    one = CycNumber.one(conductor)
    n = group.order
    table = [[None] * n for _ in range(n)]
    for i, g in enumerate(group.elements):
        for j, h in enumerate(group.elements):
            table[i][j] = {group.index[group.mult(g, h)]: one}
    return table


def group_algebra_hopf(group, conductor=None) -> HopfAlgebraData:
    """k[G]: Delta g = g (x) g, eps = 1, S = inversion."""
    conductor = conductor or group.conductor
    mult = group_mult_table(group, conductor)
    one = CycNumber.one(conductor)
    n = group.order
    unit = {group.index[group.identity]: one}
    comult = [{(i, i): one} for i in range(n)]
    counit = [one] * n
    anti = [{group.index[group.inv(g)]: one} for g in group.elements]
    return HopfAlgebraData(n, conductor, list(group.labels), mult, unit, comult, counit, anti)


def realize_on_group(group, conductor, gen_delta, gen_eps, gen_s) -> HopfAlgebraData:
    """Group-algebra multiplication with a twisted coalgebra structure.

    The coalgebra maps are extended along each element's generator word, so
    well-definedness rests on verify_hopf.
    """
    mult = group_mult_table(group, conductor)
    words = [group.word(g) for g in group.elements]
    return assemble_hopf(
        dim=group.order, conductor=conductor, labels=list(group.labels), mult=mult,
        unit_index=group.index[group.identity], basis_words=words,
        gen_delta=gen_delta, gen_eps=gen_eps, gen_s=gen_s,
    )
