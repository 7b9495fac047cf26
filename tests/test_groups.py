"""The group axioms, words and irreps of every group builder.

Each group is checked for its identity, closure, associativity and `inv`,
distinct labels, `word(g)` multiplied out over `generators` giving g, and
every irrep, extended along the element words as the catalog's k[G]-module,
being a homomorphism.
"""

import pytest

from hopfkit import catalog
from hopfkit.groups import (cyclic_group, dicyclic_group, dihedral_group, gamma4p_group,
                            product_of_cyclics, quaternion_group)

from conftest import dense

_GROUPS = (
    [(f"cyclic n={n}", lambda n=n: cyclic_group(n)) for n in range(1, 13)]
    + [(f"dihedral n={n}", lambda n=n: dihedral_group(n)) for n in range(1, 13)]
    + [(f"dicyclic n={n}", lambda n=n: dicyclic_group(n)) for n in range(1, 13)]
    + [(f"product ns={ns}", lambda ns=ns: product_of_cyclics(ns)) for ns in ([2, 3], [2, 2, 2])]
    + [("q8", quaternion_group)]
    + [(f"gamma4p p={p}", lambda p=p: gamma4p_group(p)) for p in (5, 13, 17)]
    + [(f"catalog C2xD{p}", lambda p=p: catalog._c2xdp_group(p)) for p in (3, 5, 7)]
    + [(f"catalog D{m}", lambda m=m: catalog._d2p_group(m)) for m in (4, 6, 10)]
)


@pytest.mark.parametrize("make", [make for _, make in _GROUPS], ids=[name for name, _ in _GROUPS])
def test_group_axioms_words_and_irreps(make):
    g = make()
    elements, e = g.elements, g.identity
    table = {(a, b): g.mult(a, b) for a in elements for b in elements}
    assert set(table.values()) <= set(elements)
    assert all(table[e, a] == a == table[a, e] for a in elements)
    assert all(table[table[a, b], c] == table[a, table[b, c]]
               for a in elements for b in elements for c in elements)
    assert all(table[a, g.inv(a)] == e == table[g.inv(a), a] for a in elements)
    assert len(set(g.labels)) == len(g.labels) == g.order == len(set(elements))

    for a in elements:
        x = e
        for letter in g.word(a):
            x = table[x, g.generators[letter]]
        assert x == a

    assert sum(rep.dim ** 2 for rep in g.irreps) == g.order
    for module in catalog._irrep_modules(g):
        mats = [dense(m, g.conductor) for m in module.action]
        at = {a: mats[g.index[a]] for a in elements}
        assert all((at[a] * at[b]).entries == at[table[a, b]].entries
                   for a in elements for b in elements)


@pytest.mark.parametrize("ns", [[5], [2, 3, 4]])
def test_product_of_cyclics_adds_componentwise(ns):
    g = product_of_cyclics(ns)
    assert all(g.mult(a, b) == tuple((x + y) % n for x, y, n in zip(a, b, ns))
               for a in g.elements for b in g.elements)


def _involutions(g):
    return sum(1 for a in g.elements if a != g.identity and g.mult(a, a) == g.identity)


def test_dicyclic_family_is_dic_n_only_for_odd_n():
    """C_n ⋊ C_4 has one involution (as Dic_n does) at odd n and three at even n."""
    c2xc4 = dicyclic_group(2)
    assert all(c2xc4.mult(a, b) == c2xc4.mult(b, a)
               for a in c2xc4.elements for b in c2xc4.elements)
    assert _involutions(c2xc4) == 3 and _involutions(quaternion_group()) == 1
    assert [rep.dim for rep in c2xc4.irreps] == [1] * 8
    assert _involutions(dicyclic_group(4)) == 3
    assert [_involutions(dicyclic_group(n)) for n in (1, 3, 5, 7)] == [1, 1, 1, 1]
