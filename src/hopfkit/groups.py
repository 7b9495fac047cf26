"""Small finite groups with explicit irreducible representations.

Each family ships a normal form for its elements, generator words (used to
extend coalgebra maps multiplicatively) and exact irrep matrices over a
cyclotomic field that splits them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycNumber, root_of_unity
from .linalg import compose_columns, extend_along_prefixes, identity_columns


@dataclass
class GroupIrrep:
    label: str
    dim: int
    gen_mats: dict  # generator name -> its action as sparse columns


class FiniteGroup:
    def __init__(self, name, elements, labels, mult_fn, identity, generators, word_fn, conductor):
        self.name = name
        self.elements = list(elements)
        self.labels = list(labels)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self._mult = mult_fn
        self.identity = identity
        self.generators = generators  # name -> element
        self._word = word_fn
        self.conductor = conductor  # smallest field splitting the irreps
        self.irreps: list[GroupIrrep] = []

    @property
    def order(self):
        return len(self.elements)

    def mult(self, g, h):
        return self._mult(g, h)

    def inv(self, g):
        # brute force is fine at this scale
        for h in self.elements:
            if self._mult(g, h) == self.identity:
                return h
        raise ValueError("no inverse found")

    def word(self, g) -> list[str]:
        return self._word(g)

    def element_matrices(self, dim: int, gen_mats: dict) -> list:
        """Expand the generators' actions on k^dim, as sparse columns, to every
        group element along its word.

        Each element starts from its longest prefix built so far.
        """
        return extend_along_prefixes([self.word(g) for g in self.elements],
                                     identity_columns(dim, self.conductor),
                                     lambda m, g: compose_columns(m, gen_mats[g]))


def _diag(values):
    return [{i: v} for i, v in enumerate(values)]


def _mat(conductor, grid):
    """The sparse columns of a square grid of CycNumbers or rationals."""
    entries = [[v if isinstance(v, CycNumber) else CycNumber.from_rational(conductor, v)
                for v in row] for row in grid]
    return [{i: row[j] for i, row in enumerate(entries) if not row[j].is_zero()}
            for j in range(len(grid))]


def _check_order(n: int, name: str) -> None:
    if n < 1:
        raise ValueError(f"{name} needs n >= 1, got {n}")


def cyclic_group(n: int) -> FiniteGroup:
    _check_order(n, "the cyclic group C_n")
    elements = list(range(n))
    labels = ["1"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    g = FiniteGroup(
        name=f"C{n}",
        elements=elements,
        labels=labels,
        mult_fn=lambda a, b: (a + b) % n,
        identity=0,
        generators={"g": 1 % n},
        word_fn=lambda k: ["g"] * k,
        conductor=n,
    )
    for k in range(n):
        g.irreps.append(GroupIrrep(f"chi{k}", 1, {"g": _mat(n, [[root_of_unity(n, k)]])}))
    return g


def product_of_cyclics(ns: list[int]) -> FiniteGroup:
    from itertools import product as iproduct
    from math import lcm

    for n in ns:
        _check_order(n, "each cyclic factor C_n")
    elements = list(iproduct(*[range(n) for n in ns]))
    conductor = lcm(*ns) if ns else 1

    def label(t):
        parts = [f"g{i}^{k}" if k > 1 else f"g{i}" for i, k in enumerate(t) if k]
        return "*".join(parts) if parts else "1"

    gens = {}
    for i, n in enumerate(ns):
        e = tuple(1 % n if j == i else 0 for j, n in enumerate(ns))
        gens[f"g{i}"] = e

    def word(t):
        out = []
        for i, k in enumerate(t):
            out += [f"g{i}"] * k
        return out

    g = FiniteGroup(
        name="x".join(f"C{n}" for n in ns),
        elements=elements,
        labels=[label(t) for t in elements],
        mult_fn=lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, ns)),
        identity=tuple(0 for _ in ns),
        generators=gens,
        word_fn=word,
        conductor=conductor,
    )
    from itertools import product as iproduct2

    for ks in iproduct2(*[range(n) for n in ns]):
        mats = {f"g{i}": _mat(conductor, [[root_of_unity(conductor, k * (conductor // n))]])
                for i, (k, n) in enumerate(zip(ks, ns))}
        g.irreps.append(GroupIrrep("chi" + "_".join(map(str, ks)), 1, mats))
    return g


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n: a^2 = y^n = 1, a y a = y^-1.  Elements y^k a^e."""
    _check_order(n, "the dihedral group D_n")
    elements = [(k, e) for e in (0, 1) for k in range(n)]
    elements.sort(key=lambda t: (t[1], t[0]))

    def label(t):
        k, e = t
        s = f"y^{k}" if k > 1 else ("y" if k == 1 else "")
        s2 = "a" if e else ""
        return (s + s2) or "1"

    def mult(g, h):
        k, e = g
        k2, e2 = h
        return ((k + (k2 if e == 0 else -k2)) % n, (e + e2) % 2)

    g = FiniteGroup(
        name=f"D{n}",
        elements=elements,
        labels=[label(t) for t in elements],
        mult_fn=mult,
        identity=(0, 0),
        generators={"y": (1 % n, 0), "a": (0, 1)},
        word_fn=lambda t: ["y"] * t[0] + ["a"] * t[1],
        conductor=n,
    )
    flip = _mat(n, [[0, 1], [1, 0]])
    chars = [(1, 1), (1, -1)] if n % 2 else [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for cy, ca in chars:
        g.irreps.append(GroupIrrep(f"chi(y={cy},a={ca})", 1,
                                   {"y": _mat(n, [[cy]]), "a": _mat(n, [[ca]])}))
    top = (n - 1) // 2 if n % 2 else n // 2 - 1
    for j in range(1, top + 1):
        g.irreps.append(GroupIrrep(
            f"rho{j}", 2,
            {"y": _diag([root_of_unity(n, j), root_of_unity(n, -j)]), "a": flip}))
    return g


def dicyclic_group(n: int) -> FiniteGroup:
    """Dic_n of order 4n: x^4 = y^n = 1, x y x^-1 = y^-1.  Elements y^k x^i."""
    from math import lcm

    _check_order(n, "the dicyclic group Dic_n")
    conductor = lcm(4, n)
    elements = [(k, i) for i in range(4) for k in range(n)]
    elements.sort(key=lambda t: (t[1], t[0]))

    def label(t):
        k, i = t
        s = f"y^{k}" if k > 1 else ("y" if k == 1 else "")
        s2 = f"x^{i}" if i > 1 else ("x" if i == 1 else "")
        return (s + s2) or "1"

    def mult(g, h):
        k, i = g
        k2, i2 = h
        return ((k + ((-1) ** i) * k2) % n, (i + i2) % 4)

    g = FiniteGroup(
        name=f"Dic{n}",
        elements=elements,
        labels=[label(t) for t in elements],
        mult_fn=mult,
        identity=(0, 0),
        generators={"y": (1 % n, 0), "x": (0, 1)},
        word_fn=lambda t: ["y"] * t[0] + ["x"] * t[1],
        conductor=conductor,
    )
    ychars = [1] if n % 2 else [1, -1]
    for cy in ychars:
        for j in range(4):
            g.irreps.append(GroupIrrep(
                f"chi(x=w^{j},y={cy})", 1,
                {"y": _mat(conductor, [[cy]]),
                 "x": _mat(conductor, [[root_of_unity(conductor, j * (conductor // 4))]])}))
    top = (n - 1) // 2 if n % 2 else n // 2 - 1
    step = conductor // n
    for k in range(1, top + 1):
        for u in (1, -1):
            g.irreps.append(GroupIrrep(
                f"rho(k={k},u={u})", 2,
                {"y": _diag([root_of_unity(conductor, k * step),
                             root_of_unity(conductor, -k * step)]),
                 "x": _mat(conductor, [[0, u], [1, 0]])}))
    return g


def quaternion_group() -> FiniteGroup:
    """Q_8 with elements i^a j^b, j^2 = i^2, j i j^-1 = i^-1."""
    elements = [(a, b) for b in (0, 1) for a in range(4)]

    def label(t):
        a, b = t
        s = f"i^{a}" if a > 1 else ("i" if a == 1 else "")
        s2 = "j" if b else ""
        return (s + s2) or "1"

    def mult(g, h):
        a, b = g
        a2, b2 = h
        a3 = a + (a2 if b == 0 else -a2)
        if b == 1 and b2 == 1:
            a3 += 2  # j^2 = i^2
        return (a3 % 4, (b + b2) % 2)

    g = FiniteGroup(
        name="Q8",
        elements=elements,
        labels=[label(t) for t in elements],
        mult_fn=mult,
        identity=(0, 0),
        generators={"i": (1, 0), "j": (0, 1)},
        word_fn=lambda t: ["i"] * t[0] + ["j"] * t[1],
        conductor=4,
    )
    for ci in (1, -1):
        for cj in (1, -1):
            g.irreps.append(GroupIrrep(f"chi(i={ci},j={cj})", 1,
                                       {"i": _mat(4, [[ci]]), "j": _mat(4, [[cj]])}))
    w = root_of_unity(4, 1)
    g.irreps.append(GroupIrrep(
        "rho", 2,
        {"i": _diag([w, root_of_unity(4, 3)]), "j": _mat(4, [[0, -1], [1, 0]])}))
    return g


def gamma4p_group(p: int) -> FiniteGroup:
    """C_p semidirect C_4 of order 4p: x^4 = 1 = y^p, x y = y^l x, l = (p-1)/2."""
    if p % 4 != 1 or not _is_prime(p):
        raise ValueError("requires a prime p congruent to 1 mod 4")
    ell = (p - 1) // 2
    if (ell * ell) % p != p - 1:
        raise ValueError("l^2 != -1 mod p; invalid parameter")
    conductor = 4 * p
    elements = [(k, i) for i in range(4) for k in range(p)]
    elements.sort(key=lambda t: (t[1], t[0]))

    def label(t):
        k, i = t
        s = f"y^{k}" if k > 1 else ("y" if k == 1 else "")
        s2 = f"x^{i}" if i > 1 else ("x" if i == 1 else "")
        return (s + s2) or "1"

    def mult(g, h):
        k, i = g
        k2, i2 = h
        return ((k + pow(ell, i, p) * k2) % p, (i + i2) % 4)

    g = FiniteGroup(
        name=f"Gamma{4 * p}",
        elements=elements,
        labels=[label(t) for t in elements],
        mult_fn=mult,
        identity=(0, 0),
        generators={"y": (1, 0), "x": (0, 1)},
        word_fn=lambda t: ["y"] * t[0] + ["x"] * t[1],
        conductor=conductor,
    )
    for j in range(4):
        g.irreps.append(GroupIrrep(
            f"alpha{j}", 1,
            {"y": _mat(conductor, [[1]]),
             "x": _mat(conductor, [[root_of_unity(conductor, j * p)]])}))
    # 4-dimensional irreps induced from characters of <y>, one per <l>-orbit
    one = CycNumber.one(conductor)
    shift = [{(j + 1) % 4: one} for j in range(4)]
    for k in _orbit_reps(p, ell):
        diag = _diag([root_of_unity(conductor, 4 * ((k * pow(ell, 4 - j, p)) % p))
                      for j in range(4)])
        g.irreps.append(GroupIrrep(f"beta(k={k})", 4, {"y": diag, "x": shift}))
    return g


def _orbit_reps(p: int, ell: int) -> list[int]:
    seen = set()
    reps = []
    for k in range(1, p):
        if k in seen:
            continue
        reps.append(k)
        m = k
        for _ in range(4):
            seen.add(m)
            m = (m * ell) % p
    return reps


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
