from conftest import build, columns, dense, dense_trace, left_mult_matrix
from hopfkit.cyclotomic import CycNumber
from hopfkit.hopf import known_generators, verify_hopf
from hopfkit.invariants import jacobson_radical
from hopfkit import repsolver
from hopfkit.linalg import EchelonBasis, Matrix, rank
from hopfkit.repsolver import (
    RepModule,
    are_isomorphic,
    hom_space,
    is_simple_certified,
    simples_certificate,
    verify_module,
    wedderburn_certificate,
)


def regular_module(h):
    return RepModule("regular", h.dim, [columns(left_mult_matrix(h, h.basis_dict(i)))
                                        for i in range(h.dim)])


def test_regular_representation_verifies():
    for name, kw in [("taft", {"n": 2}), ("dicyclic", {"n": 3})]:
        h, _ = build(name, **kw)
        ok, why = verify_module(h, regular_module(h))
        assert ok, why


def test_regular_module_not_simple():
    h, _ = build("taft", n=2)
    assert not is_simple_certified(h, regular_module(h))


def test_h8p_u_modules():
    h, cd = build("h8p", p=3, alpha=1)
    u0 = cd.extra["u_all"][0]
    ok, why = verify_module(h, u0)
    assert ok, why
    assert is_simple_certified(h, u0)
    # flipping the sign of z.u_2 = -2u_1 breaks the pair (z, z)
    bad_action = [[dict(col) for col in m] for m in u0.action]
    z_first = h.dim // 2
    for idx in range(h.dim):
        # rebuild action from mutated generators is overkill; directly negate
        # the (0,1) entry wherever it matches the z-column pattern
        pass
    zmat = bad_action[z_first]
    zmat[1][0] = -zmat[1][0]
    bad = RepModule("U0-flipped", 2, bad_action)
    ok, why = verify_module(h, bad)
    assert not ok
    assert "z" in why


def test_one_dimensional_always_simple():
    h, cd = build("fun-dic", p=3)
    for m in cd.simples[:4]:
        assert is_simple_certified(h, m)


def test_hom_spaces_and_isomorphism_classes():
    h, cd = build("h8p", p=3, alpha=1)
    u = cd.extra["u_all"]
    assert hom_space(h, u[0], u[0]).dim == 1
    for i in range(6):
        assert are_isomorphic(h, u[i], u[(i + 3) % 6])
    assert not are_isomorphic(h, u[0], u[1])
    w0 = cd.simples[0]
    assert hom_space(h, w0, u[0]).dim == 0


def test_wedderburn_h8p():
    h, cd = build("h8p", p=3, alpha=1)
    rad = jacobson_radical(h).dim
    cert = wedderburn_certificate(h, cd.simples, rad)
    assert cert.ok
    assert cert.profile == [1] * 6 + [2] * 3
    assert 6 * 1 + 3 * 4 == h.dim - rad


def test_wedderburn_gamma20():
    h, cd = build("gamma4p", p=5)
    cert = wedderburn_certificate(h, cd.simples, 0)
    assert cert.ok
    assert cert.profile == [1, 1, 1, 1, 4]
    assert sum(d * d for d in cert.profile) == 20


def test_wedderburn_am11():
    h, cd = build("a-m11", p=3)
    rad = jacobson_radical(h).dim
    cert = wedderburn_certificate(h, cd.simples, rad)
    assert cert.ok
    assert cert.profile == [1, 1, 2, 2]
    assert 2 + 8 == h.dim - rad


def test_wedderburn_rejects_duplicates():
    h, cd = build("h8p", p=3, alpha=1)
    rad = jacobson_radical(h).dim
    u = cd.extra["u_all"]
    # an extra copy breaks the dimension count; U_3, isomorphic to U_0, in place
    # of U_2 keeps the count and repeats a character
    for mods, why in [(list(cd.simples) + [cd.simples[0]], "sum d^2 = 19 but dim - radical = 18"),
                      (list(cd.simples[:-1]) + [u[3]], "character matrix rank too small")]:
        for cert in (simples_certificate(h, mods, rad), wedderburn_certificate(h, mods, rad)):
            assert not cert.ok
            assert cert.details == [why]


def _count_echelon_adds(monkeypatch):
    """Make repsolver's echelon bases count the vectors added to them."""
    added = []

    class Counting(EchelonBasis):
        def add(self, vec):
            added.append(vec)
            return super().add(vec)

    monkeypatch.setattr(repsolver, "EchelonBasis", Counting)
    return added


def test_character_rank_is_reached_at_a_late_basis_column(monkeypatch):
    h, cd = build("gamma4p", p=5)
    chars = [[dense_trace(dense(m.action[i], h.conductor)) for i in range(h.dim)]
             for m in cd.simples]
    # the first 15 of the 20 character columns have rank 4 of 5
    assert rank(Matrix(len(chars), 15, h.conductor, [row[:15] for row in chars])) == 4
    assert rank(Matrix(len(chars), 16, h.conductor, [row[:16] for row in chars])) == 5
    monkeypatch.setattr(repsolver, "is_simple_certified", lambda h, m: True)
    added = _count_echelon_adds(monkeypatch)
    cert = simples_certificate(h, cd.simples, 0)
    assert cert.ok and cert.profile == [1, 1, 1, 1, 4]
    assert len(added) == 16  # the elimination stops at full rank


def test_character_rank_short_of_full_reads_every_column():
    h, cd = build("c_n", n=5)
    assert simples_certificate(h, cd.simples, 0).ok  # Vandermonde: full only at the last column
    mods = [cd.simples[-1]] + list(cd.simples[1:])
    cert = simples_certificate(h, mods, 0)
    assert not cert.ok
    assert cert.details == ["character matrix rank too small"]


def _natural_m2_module(conductor):
    """The natural module of M_2 on the basis E_11, E_22, E_12, E_21."""
    one = CycNumber.one(conductor)
    return RepModule("M_2", 2, [[{r: one} if c == unit_c else {} for c in range(2)]
                                for r, unit_c in [(0, 0), (1, 1), (0, 1), (1, 0)]])


def test_burnside_span_reached_only_at_the_last_index(monkeypatch):
    h, _ = build("dihedral", n=3)  # is_simple_certified reads only the module's actions
    added = _count_echelon_adds(monkeypatch)
    assert is_simple_certified(h, _natural_m2_module(h.conductor))
    assert len(added) == 4
    # gamma4p's 4-dim simple spans M_4 at index 18 of 20, and no sooner
    g, gcd = build("gamma4p", p=5)
    beta = next(m for m in gcd.simples if m.dim == 4)
    flat = [[x for row in dense(a, g.conductor).entries for x in row] for a in beta.action]
    assert rank(Matrix(18, 16, g.conductor, flat[:18])) == 15
    del added[:]
    assert is_simple_certified(g, beta)
    assert len(added) == 19


def test_burnside_span_stops_at_d_squared(monkeypatch):
    h, cd = build("b8")
    rho = next(m for m in cd.simples if m.dim == 2)
    added = _count_echelon_adds(monkeypatch)
    assert is_simple_certified(h, rho)
    assert len(added) == 4 < h.dim


def test_reducible_module_is_not_simple(monkeypatch):
    h, cd = build("dihedral", n=3)
    trivial, sign = (m for m in cd.simples if m.dim == 1)
    both = RepModule("trivial+sign", 2, [[{0: a[0][0]}, {1: b[0][0]}]
                                         for a, b in zip(trivial.action, sign.action)])
    assert verify_module(h, both)[0]
    added = _count_echelon_adds(monkeypatch)
    assert not is_simple_certified(h, both)
    assert len(added) == h.dim


def test_isomorphism_is_checked_on_every_basis_element():
    h, cd = build("h8p", p=3, alpha=1)
    assert verify_hopf(h).ok  # makes known_generators(h) the certified generators
    gens = known_generators(h)
    assert len(gens) < h.dim
    u0 = cd.extra["u_all"][0]
    assert are_isomorphic(h, u0, u0) and not are_isomorphic(h, u0, cd.extra["u_all"][1])
    i = next(i for i in range(h.dim) if i not in gens and any(u0.action[i]))
    action = list(u0.action)
    two = CycNumber.from_rational(h.conductor, 2)
    action[i] = [{r: two * x for r, x in col.items()} for col in u0.action[i]]
    broken = RepModule("U0-broken", 2, action)
    assert hom_space(h, broken, u0).dim == 1  # the generator rows cannot see it
    assert not are_isomorphic(h, broken, u0)
    assert not are_isomorphic(h, u0, broken)


def test_one_dims_match_dual_grouplikes():
    from hopfkit.hopf import Element, dual

    h, cd = build("h8p", p=3, alpha=1)
    d = dual(h)
    one_dims = [m for m in cd.simples if m.dim == 1]
    chars = [Element(d, [m.action[i][0].get(0, h.zero()) for i in range(h.dim)])
             for m in one_dims]
    assert all(c.is_grouplike() for c in chars)
    assert len({tuple(c.coeffs) for c in chars}) == len(chars) == 6


def test_wedderburn_h8p_p5():
    h, cd = build("h8p", p=5, alpha=1)
    rad = jacobson_radical(h).dim
    assert rad == 10
    cert = wedderburn_certificate(h, cd.simples, rad)
    assert cert.ok
    assert cert.profile == [1] * 10 + [2] * 5
