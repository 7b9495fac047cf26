"""Small finite groups with explicit irreducible representations.

Each family ships a normal form for its elements, generator words (used to
extend coalgebra maps multiplicatively) and exact irrep matrices over a
cyclotomic field that splits them.  The groups C_n ⋊ C_m (dihedral,
dicyclic-type and Γ_4p) share one builder, `_metacyclic`, and differ only in
their irreps; every element label is a product of `_power` factors.
"""

from __future__ import annotations

from itertools import product
from math import lcm

from .cyclotomic import CycNumber, root_of_unity


class GroupIrrep:
    __slots__ = ("label", "dim", "gen_mats")

    def __init__(self, label: str, dim: int, gen_mats: dict):
        self.label = label
        self.dim = dim
        self.gen_mats = gen_mats  # generator name -> its action as sparse columns


class FiniteGroup:
    def __init__(self, elements, labels, mult_fn, identity, generators, word_fn, conductor):
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


def _power(name: str, k: int) -> str:
    """The label factor name^k: empty at k = 0, bare name at k = 1."""
    return f"{name}^{k}" if k > 1 else name if k else ""


def _label(factors, sep: str = "") -> str:
    """The nonempty factors joined by sep, or "1" if there are none."""
    return sep.join(f for f in factors if f) or "1"


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


def _metacyclic(n: int, m: int, letter: str, action: int, conductor: int) -> FiniteGroup:
    """C_n ⋊ C_m on y of order n and `letter` of order m, letter y letter^-1 = y^action.

    Elements (k, i) = y^k letter^i in i-major order, with product
    (k, i)(k2, i2) = (k + action^i k2 mod n, i + i2 mod m); no irreps.
    """
    twist = [pow(action, i, n) for i in range(m)]

    def mult(g, h):
        return ((g[0] + twist[g[1]] * h[0]) % n, (g[1] + h[1]) % m)

    elements = [(k, i) for i in range(m) for k in range(n)]
    return FiniteGroup(
        elements=elements,
        labels=[_label([_power("y", k), _power(letter, i)]) for k, i in elements],
        mult_fn=mult,
        identity=(0, 0),
        generators={"y": (1 % n, 0), letter: (0, 1)},
        word_fn=lambda t: ["y"] * t[0] + [letter] * t[1],
        conductor=conductor,
    )


def cyclic_group(n: int) -> FiniteGroup:
    _check_order(n, "the cyclic group C_n")
    g = FiniteGroup(
        elements=range(n),
        labels=[_label([_power("g", k)]) for k in range(n)],
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
    for n in ns:
        _check_order(n, "each cyclic factor C_n")
    elements = list(product(*[range(n) for n in ns]))
    conductor = lcm(*ns) if ns else 1
    # table[a][b] = ab, each row's sums listed by one product in element order
    table = {a: dict(zip(elements, product(*[[(x + y) % n for y in range(n)]
                                             for x, n in zip(a, ns)])))
             for a in elements}
    g = FiniteGroup(
        elements=elements,
        labels=[_label([_power(f"g{i}", k) for i, k in enumerate(t)], "*") for t in elements],
        mult_fn=lambda a, b: table[a][b],
        identity=tuple(0 for _ in ns),
        generators={f"g{i}": tuple(1 % n if j == i else 0 for j, n in enumerate(ns))
                    for i in range(len(ns))},
        word_fn=lambda t: [f"g{i}" for i, k in enumerate(t) for _ in range(k)],
        conductor=conductor,
    )
    for ks in elements:
        mats = {f"g{i}": _mat(conductor, [[root_of_unity(conductor, k * (conductor // n))]])
                for i, (k, n) in enumerate(zip(ks, ns))}
        g.irreps.append(GroupIrrep("chi" + "_".join(map(str, ks)), 1, mats))
    return g


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n: a^2 = y^n = 1, a y a = y^-1.  Elements y^k a^e."""
    _check_order(n, "the dihedral group D_n")
    g = _metacyclic(n, 2, "a", -1, n)
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
    """C_n ⋊ C_4 of order 4n: x^4 = y^n = 1, x y x^-1 = y^-1.  Elements y^k x^i.

    For odd n this is the dicyclic group Dic_n.  For even n it is not: x^2,
    y^(n/2) and their product are three involutions, where Dic_n has one.
    So n = 2 gives the abelian C_2 x C_4 (eight characters), not
    Dic_2 = Q_8, and n = 4 is not Dic_4.  The paper needs only odd n.
    """
    _check_order(n, "the dicyclic group Dic_n")
    conductor = lcm(4, n)
    g = _metacyclic(n, 4, "x", -1, conductor)
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

    def mult(g, h):
        a, b = g
        a2, b2 = h
        a3 = a + (a2 if b == 0 else -a2)
        if b == 1 and b2 == 1:
            a3 += 2  # j^2 = i^2
        return (a3 % 4, (b + b2) % 2)

    elements = [(a, b) for b in (0, 1) for a in range(4)]
    g = FiniteGroup(
        elements=elements,
        labels=[_label([_power("i", a), _power("j", b)]) for a, b in elements],
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
    """C_p semidirect C_4 of order 4p: x^4 = 1 = y^p, x y = y^l x, l = gamma4p_ell(p)."""
    if p % 4 != 1 or not _is_prime(p):
        raise ValueError("requires a prime p congruent to 1 mod 4")
    ell = gamma4p_ell(p)
    conductor = 4 * p
    g = _metacyclic(p, 4, "x", ell, conductor)
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


def gamma4p_ell(p: int) -> int:
    """The least l with l^2 = -1 mod p, for a prime p = 1 mod 4; l has order 4 mod p."""
    return next(ell for ell in range(2, p) if (ell * ell) % p == p - 1)


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
