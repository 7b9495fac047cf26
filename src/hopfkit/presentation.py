"""Structure constants from generators and relations.

Each catalog family ships a hand-written rewriting system whose rules are
confluent by inspection; soundness is not proved here.  realize() only
assembles the structure tensors: every command that reports on the result runs
verify_hopf on it first, and that is the well-definedness check for the rule
set.  Rewriting works on words over the generator alphabet; a rule maps a
forbidden factor to a linear combination of words.

Rewriting defines the table, but only the one-letter products g e_j are
rewritten: the row of a normal monomial w g is built from the row of w, as
(w g) e_j = w (g e_j).  For confluent rules that is the normal form of
w g e_j (Bergman, "The diamond lemma for ring theory", 1978); either way the
table that comes out is the one verify_hopf checks.  Delta, eps and S are
extended the same way, one letter from each basis word's prefix.
"""

from __future__ import annotations

from .cyclotomic import CycNumber
from .hopf import HopfAlgebraData
from .linalg import accumulate, compose_columns, extend_along_prefixes

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


def assemble_hopf(dim, conductor, labels, mult, unit_index, basis_words,
                  gen_delta, gen_eps, gen_s) -> HopfAlgebraData:
    """Multiplicative extension of Delta and eps, anti-multiplicative of S.

    Delta(w g) = Delta(w) Delta(g), eps(w g) = eps(w) eps(g) and
    S(w g) = S(g) S(w), each word from its longest built prefix w.
    """
    one = CycNumber.one(conductor)
    zero = CycNumber.zero(conductor)
    unit_vec = [zero] * dim
    unit_vec[unit_index] = one

    # the algebra alone, for its product kernels; the coalgebra is built below
    ring = HopfAlgebraData(dim, conductor, labels, mult, unit_vec, [], [], None)

    def step(value, g):
        t, e, s = value
        return (ring.tensor_mult(t, gen_delta[g]), e * gen_eps[g], ring.mult_dict(gen_s[g], s))

    images = extend_along_prefixes(
        basis_words, ({(unit_index, unit_index): one}, one, {unit_index: one}), step)
    comult = [[(j, k, c) for (j, k), c in t.items()] for t, _, _ in images]
    counit = [e for _, e, _ in images]
    anti = [s for _, _, s in images]
    return HopfAlgebraData(dim, conductor, labels, mult, unit_vec, comult, counit, anti)


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
    zero = CycNumber.zero(conductor)
    n = group.order
    unit = [zero] * n
    unit[group.index[group.identity]] = one
    comult = [[(i, i, one)] for i in range(n)]
    counit = [one] * n
    anti = [{group.index[group.inv(g)]: one} for g in group.elements]
    return HopfAlgebraData(n, conductor, list(group.labels), mult, unit, comult, counit, anti)


def realize_on_group(group, conductor, gen_delta, gen_eps, gen_s) -> HopfAlgebraData:
    """Group-algebra multiplication with a twisted coalgebra structure.

    The coalgebra maps are extended along each element's generator word, so
    well-definedness rests on verify_hopf exactly as for rewriting systems.
    """
    mult = group_mult_table(group, conductor)
    words = [group.word(g) for g in group.elements]
    return assemble_hopf(
        dim=group.order, conductor=conductor, labels=list(group.labels), mult=mult,
        unit_index=group.index[group.identity], basis_words=words,
        gen_delta=gen_delta, gen_eps=gen_eps, gen_s=gen_s,
    )
