"""A rewriting engine and the catalog's families presented by it: the reference
that the catalog's constructions are checked against, tensor for tensor.

A Presentation is an alphabet, its normal monomials and a hand-written
rewriting system whose rules are confluent by inspection; soundness is not
proved here, and verify_hopf on the result is the well-definedness check for
the rule set.  Rewriting works on words over the generator alphabet; a rule
maps a forbidden factor to a linear combination of words.

Only the one-letter products g e_j are rewritten: the row of a normal monomial
w g is built from the row of w, as (w g) e_j = w (g e_j).  For confluent rules
that is the normal form of w g e_j (Bergman, "The diamond lemma for ring
theory", 1978).  Delta, eps and S are extended the same way, one letter from
each basis word's prefix, by presentation.assemble_hopf.

The catalog builds taft, h8p and the pointed 4p families as quantum-line
bosonizations and fun_dic on its group; the presentations below build them
from generators and relations instead, so the tests compare two constructions.
"""

from fractions import Fraction

from hopfkit.cyclotomic import CycNumber, root_of_unity
from hopfkit.hopf import HopfAlgebraData
from hopfkit.linalg import accumulate, compose_columns, extend_along_prefixes, outer
from hopfkit.presentation import assemble_hopf

STEP_GUARD = 20_000


class RewriteError(RuntimeError):
    pass


class Presentation:
    """Alphabet + normal monomials + rewrite rules, all over one conductor."""

    def __init__(self, generators, conductor, normal_monomials, rules, labels=None):
        self.generators = list(generators)
        self.conductor = conductor
        self.normal_monomials = [tuple(w) for w in normal_monomials]
        self.index = {w: i for i, w in enumerate(self.normal_monomials)}
        if len(self.index) != len(self.normal_monomials):
            raise ValueError("duplicate normal monomials")
        # rules: (pattern tuple, [(CycNumber, replacement word tuple), ...])
        self.rules = [(tuple(p), [(c, tuple(w)) for c, w in repl]) for p, repl in rules]
        self.labels = labels or [self._default_label(w) for w in self.normal_monomials]
        self._memo: dict[tuple, dict] = {}
        self._mult = None
        # words longer than this can never reduce to the basis; a growing rule
        # set trips this long before the step guard does
        longest = max((len(w) for w in self.normal_monomials), default=0)
        longest_rule = max((len(w) for _, repl in self.rules for _, w in repl), default=0)
        self._max_len = 3 * max(longest, longest_rule, 1) + 8

    @property
    def dim(self):
        return len(self.normal_monomials)

    @property
    def words(self) -> list[list[str]]:
        """Each normal monomial as its list of generator names."""
        return [[self.generators[letter] for letter in w] for w in self.normal_monomials]

    def _default_label(self, word):
        if not word:
            return "1"
        out = []
        for letter in word:
            name = self.generators[letter]
            if out and out[-1][0] == name:
                out[-1] = (name, out[-1][1] + 1)
            else:
                out.append((name, 1))
        return "".join(n if e == 1 else f"{n}^{e}" for n, e in out)

    def _first_match(self, word):
        for pos in range(len(word)):
            for pattern, repl in self.rules:
                if word[pos:pos + len(pattern)] == pattern:
                    return pos, pattern, repl
        return None

    def normal_form_word(self, word) -> dict:
        """Fixed point of leftmost rewriting: word -> {monomial index: coeff}."""
        word = tuple(word)
        cached = self._memo.get(word)
        if cached is not None:
            return dict(cached)
        one = CycNumber.one(self.conductor)
        current = {word: one}
        out: dict[int, CycNumber] = {}
        steps = 0
        while current:
            steps += 1
            if steps > STEP_GUARD:
                raise RewriteError(f"rewriting did not terminate on {word}")
            nxt: dict[tuple, CycNumber] = {}
            for w, c in current.items():
                hit = self._memo.get(w)
                if hit is not None:
                    for i, nc in hit.items():
                        accumulate(out, i, nc * c)
                    continue
                m = self._first_match(w)
                if m is None:
                    i = self.index.get(w)
                    if i is None:
                        raise RewriteError(f"irreducible word {w} is not a declared normal monomial")
                    accumulate(out, i, c)
                else:
                    pos, pattern, repl = m
                    for rc, rw in repl:
                        neww = w[:pos] + rw + w[pos + len(pattern):]
                        if len(neww) > self._max_len:
                            raise RewriteError(f"rewriting grows without bound on {word}")
                        accumulate(nxt, neww, c * rc)
            current = nxt
        self._memo[word] = dict(out)
        return out

    def mult_table(self):
        """Row w lists the normal forms of w e_j; row w g is sum_l (g e_j)_l row(w)[l].

        Only the empty word's row and the one-letter products g e_j are
        rewritten; every other row extends the row of its longest built prefix.
        """
        if self._mult is None:
            letter_rows = {}

            def row(word):
                return [self.normal_form_word(word + w) for w in self.normal_monomials]

            def step(prefix_row, g):
                if g not in letter_rows:
                    letter_rows[g] = row((g,))
                return compose_columns(prefix_row, letter_rows[g])

            self._mult = extend_along_prefixes(self.normal_monomials, row(()), step)
        return self._mult

    def realize(self, gen_delta, gen_eps, gen_s) -> HopfAlgebraData:
        """Extend generator images to the whole basis and assemble the Hopf data.

        gen_delta[g] is a sparse tensor dict over basis-index pairs, gen_eps[g]
        a CycNumber, gen_s[g] a sparse basis-index dict.  The output is not
        verified here; it is a Hopf algebra only if it passes verify_hopf.
        """
        return assemble_hopf(
            dim=self.dim, conductor=self.conductor, labels=self.labels, mult=self.mult_table(),
            unit_index=self.index[()], basis_words=self.normal_monomials,
            gen_delta=gen_delta, gen_eps=gen_eps, gen_s=gen_s,
        )


# ---------------------------------------------------------------------------
# the presented families
# ---------------------------------------------------------------------------


def h8p_presentation(p=3, alpha=1):
    """z, a, x with z^2 = alpha (a - 1), basis z^e a^i x^j (z-major)."""
    conductor = 4 * p
    one = CycNumber.one(conductor)
    Z, A, X = 0, 1, 2
    monomials = [(Z,) * e + (A,) * i + (X,) * j
                 for e in (0, 1) for i in (0, 1) for j in range(2 * p)]
    zz = [] if alpha == 0 else [(one, (A,)), (-one, ())]
    rules = [
        ((A, A), [(one, ())]),
        ((X,) * (2 * p), [(one, ())]),
        ((A, Z), [(one, (Z, A))]),
        ((X, Z), [(-one, (Z, X))]),
        ((X, A), [(one, (A, X))]),
        ((Z, Z), zz),
    ]
    return Presentation(["z", "a", "x"], conductor, monomials, rules)


def h8p_oracle(p=3, alpha=1):
    """h8p realized from its presentation: Delta, eps and S given on z, a and x."""
    pres = h8p_presentation(p, alpha)
    conductor = pres.conductor
    one = CycNumber.one(conductor)
    half = CycNumber.from_rational(conductor, Fraction(1, 2))
    im = root_of_unity(conductor, p)  # sqrt(-1)
    Z, A, X = 0, 1, 2
    idx = pres.index

    def at(*word):
        return {idx[word]: one}

    def e_x(bit, j):
        # e_bit x^j, e_0 and e_1 the idempotents (1 +- a) / 2
        j %= 2 * p
        return {idx[(X,) * j]: half, idx[(A,) + (X,) * j]: half if bit == 0 else -half}

    def g_power(sign):
        # (e_0 + sign sqrt(-1) e_1) x^p: g for sign = 1, g^3 = g^-1 for sign = -1
        return {idx[(X,) * p]: half + sign * im * half, idx[(A,) + (X,) * p]: half - sign * im * half}

    gen_delta = {
        A: outer((at(A), at(A))),
        X: outer((at(X), e_x(0, 1)), (at(*(A,) + (X,) * (2 * p - 1)), e_x(1, 1))),
        Z: outer((g_power(1), at(Z)), (at(Z), at())),
    }
    gen_eps = {A: one, X: one, Z: CycNumber.zero(conductor)}
    s_x = e_x(0, -1)
    for k, v in e_x(1, 1).items():
        accumulate(s_x, k, -v)
    # S(z) = -g^-1 z = z g^3, as z anticommutes with x^p
    s_z = {}
    for k, c in g_power(-1).items():
        for kk, cc in pres.normal_form_word((Z,) + pres.normal_monomials[k]).items():
            accumulate(s_z, kk, c * cc)
    return pres.realize(gen_delta, gen_eps, {A: at(A), X: s_x, Z: s_z})


def fun_dic_oracle(p=3):
    """k^(Dic_p) presented by a and x: a^2 = x^2p = 1, x a = a x, basis a^i x^j."""
    conductor = 4 * p
    one = CycNumber.one(conductor)
    half = CycNumber.from_rational(conductor, Fraction(1, 2))
    A, X = 0, 1
    monomials = [(A,) * i + (X,) * j for i in (0, 1) for j in range(2 * p)]
    rules = [
        ((A, A), [(one, ())]),
        ((X, A), [(one, (A, X))]),
        ((X,) * (2 * p), [(one, ())]),
    ]
    pres = Presentation(["a", "x"], conductor, monomials, rules)
    idx = pres.index

    def e_x(bit, j):
        j %= 2 * p
        return {idx[(X,) * j]: half, idx[(A,) + (X,) * j]: half if bit == 0 else -half}

    a_vec = {idx[(A,)]: one}
    gen_delta = {
        A: outer((a_vec, a_vec)),
        X: outer(({idx[(X,)]: one}, e_x(0, 1)), ({idx[(A,) + (X,) * (2 * p - 1)]: one}, e_x(1, 1))),
    }
    # the minus sign on the e_1 part is forced by m(S (x) id)Delta = u eps
    s_x = e_x(0, -1)
    for k, v in e_x(1, 1).items():
        accumulate(s_x, k, -v)
    return pres.realize(gen_delta, {A: one, X: one}, {A: dict(a_vec), X: s_x})


def taft_oracle(n, k=1):
    """T_q, q = zeta_n^k: g x = q x g, x^n = 0, g^n = 1, Delta x = x (x) 1 + g (x) x."""
    q = root_of_unity(n, k)
    one = CycNumber.one(n)
    X, G = 0, 1
    monomials = [(X,) * j + (G,) * i for j in range(n) for i in range(n)]
    rules = [((G, X), [(q, (X, G))]), ((X,) * n, []), ((G,) * n, [(one, ())])]
    pres = Presentation(["x", "g"], n, monomials, rules)

    def at(*word):
        return {pres.index[word]: one}

    gen_delta = {G: outer((at(G), at(G))), X: outer((at(X), at()), (at(G), at(X)))}
    s_x = {i: -c for i, c in pres.normal_form_word((G,) * (n - 1) + (X,)).items()}
    gen_s = {G: pres.normal_form_word((G,) * (n - 1)), X: s_x}
    return pres.realize(gen_delta, {G: one, X: CycNumber.zero(n)}, gen_s)


def pointed4p_oracle(variant, p=3, lam_k=1):
    """a-m10: x g = -g x, x^2 = 0, Delta x = x (x) 1 + g (x) x; a-m10-dual: x g =
    zeta_2p^-lam_k g x, Delta x = x (x) 1 + g^p (x) x; a-m11: a-m10 with x^2 = g^2 - 1.
    g^2p = 1 and the basis is g^i x^e."""
    conductor = 2 * p
    one = CycNumber.one(conductor)
    G, X = 0, 1
    monomials = [(G,) * i + (X,) * e for i in range(2 * p) for e in (0, 1)]
    xx_rule = [(one, (G, G)), (-one, ())] if variant == "a-m11" else []
    swap_coeff = root_of_unity(conductor, lam_k).inverse() if variant == "a-m10-dual" else -one
    twist = p if variant == "a-m10-dual" else 1
    rules = [
        ((X, G), [(swap_coeff, (G, X))]),
        ((X, X), xx_rule),
        ((G,) * (2 * p), [(one, ())]),
    ]
    pres = Presentation(["g", "x"], conductor, monomials, rules)
    idx = pres.index
    g_vec = {idx[(G,)]: one}
    x_vec = {idx[(X,)]: one}
    gen_delta = {
        G: outer((g_vec, g_vec)),
        X: outer((x_vec, {idx[()]: one}), ({idx[(G,) * twist]: one}, x_vec)),
    }
    gen_s = {
        G: {idx[(G,) * (2 * p - 1)]: one},
        X: {k: -c for k, c in pres.normal_form_word((G,) * (2 * p - twist) + (X,)).items()},
    }
    return pres.realize(gen_delta, {G: one, X: CycNumber.zero(conductor)}, gen_s)


def h4xcp_oracle(p=3):
    """H_4 (x) k[C_p]: h^2 = c^p = 1, x^2 = 0, h x = -x h, c central, Delta x = x (x) 1 +
    h (x) x, S(x) = x h; basis x^j h^i c^a."""
    conductor = 2 * p
    one = CycNumber.one(conductor)
    X, H, C = 0, 1, 2
    monomials = [(X,) * j + (H,) * i + (C,) * a for j in (0, 1) for i in (0, 1) for a in range(p)]
    rules = [
        ((H, H), [(one, ())]),
        ((C,) * p, [(one, ())]),
        ((X, X), []),
        ((H, X), [(-one, (X, H))]),
        ((C, X), [(one, (X, C))]),
        ((C, H), [(one, (H, C))]),
    ]
    pres = Presentation(["x", "h", "c"], conductor, monomials, rules)

    def at(*word):
        return {pres.index[word]: one}

    gen_delta = {X: outer((at(X), at()), (at(H), at(X))), H: outer((at(H), at(H))),
                 C: outer((at(C), at(C)))}
    gen_s = {X: at(X, H), H: at(H), C: at(*(C,) * (p - 1))}
    return pres.realize(gen_delta, {X: CycNumber.zero(conductor), H: one, C: one}, gen_s)


# family name -> its presentation's Hopf data, from the command-line parameters
ORACLES = {
    "taft": lambda ps: taft_oracle(int(ps["n"]), int(ps.get("q_power", 1))),
    **{variant: lambda ps, variant=variant: pointed4p_oracle(
        variant, int(ps["p"]), int(ps.get("lambda_power", 1)))
       for variant in ("a-m10", "a-m10-dual", "a-m11")},
    "h4xcp": lambda ps: h4xcp_oracle(int(ps["p"])),
    "fun-dic": lambda ps: fun_dic_oracle(int(ps["p"])),
    "h8p": lambda ps: h8p_oracle(int(ps["p"]), int(ps.get("alpha", 1))),
}
