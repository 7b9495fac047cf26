"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored on the power basis 1, z, ..., z^(phi(N)-1) of
Q[t]/(Phi_N) as a tuple of integer numerators over one positive common
denominator, the representation of ANTIC/FLINT's ``nf_elem`` (W. Hart,
"ANTIC: Algebraic Number Theory In C", 2015).  Every value is kept in
lowest terms, gcd(den, *num) == 1 with zero stored as all-zero numerators
over 1, so equality is literal equality of (conductor, den, num).  The
conductor is part of the value, and mixed-conductor arithmetic is a caller
error: build every value of a structure over its one conductor.

Each conductor has one canonical 1, the object CycNumber.one(N).  Every
value equal to 1 that arithmetic, from_rational, root_of_unity or
cyc_from_json hands out is that object, so the sparse kernels skip a
product by testing `c is one` with one = CycNumber.one(N).  The public
constructor CycNumber(N, [1, 0, ...]) still makes a separate object; it is
equal to 1 and hashes alike, and the kernels treat it as any other value.

Values are immutable, so products, sums, differences and negations are
memoised by value in one bounded per-process cache (`_field_op`, keyed on
(op, conductor, a_num, a_den, b_num, b_den) and holding the 8192 most
recently used keys): a repeated op is one hashed lookup and returns the same
shared object.  A product by 1, a sum with 0 and a difference x - 0 return
the other operand itself and never enter the cache, and neither does a
mixed-conductor op, which raises first.  `inverse` is not memoised.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul, neg, sub


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be positive")
    phi = 1
    for p, e in _factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _pseudo_divmod(a: list[int], b: list[int]):
    """(scale, q, rem) with scale a = q b + rem, deg rem < deg b, over the integers.

    a and b are coefficient lists, low degree first, deg a >= deg b = len(b) - 1;
    rem is trimmed.  a is scaled only when lc(b) does not divide a term to cancel.
    """
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
    scale = 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if not c:
            continue
        if c % lead:
            f = abs(lead) // gcd(c, lead)
            scale *= f
            a = [x * f for x in a[:i + 1]]
            q = [x * f for x in q]
            c *= f
        c //= lead
        d = i - db
        q[d] = c
        for j, bj in terms:
            a[d + j] -= c * bj
    rem = a[:db]
    while rem and not rem[-1]:
        rem.pop()
    return scale, q, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # t^n - 1 divided by Phi_d for every proper divisor d
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n)[:-1]:
        scale, num, rem = _pseudo_divmod(num, list(cyclotomic_polynomial(d)))
        assert scale == 1 and not rem, "non-exact polynomial division"
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # row d-phi lists the nonzero (k, c) of t^d mod Phi_n for d = phi .. 2*phi-2,
    # in increasing k; Phi_n is monic with integer coefficients, so every c is an
    # int.  Row d+1 is row d shifted by one, its top term folded back as
    # top * base, so each row costs its nonzeros, not phi.
    phi = euler_phi(n)
    poly = cyclotomic_polynomial(n)
    base = tuple((k, -c) for k, c in enumerate(poly[:phi]) if c)  # t^phi = base (monic)
    rows = [base]
    for _ in range(phi - 2):
        row = rows[-1]
        top = row[-1][1] if row and row[-1][0] == phi - 1 else 0
        shifted = {k + 1: c for k, c in row if k != phi - 1}
        if top:
            for k, b in base:
                shifted[k] = shifted.get(k, 0) + top * b
        rows.append(tuple(sorted((k, c) for k, c in shifted.items() if c)))
    return tuple(rows)


_ZERO_CACHE: dict = {}
_ONE_CACHE: dict = {}


def _make(conductor: int, num: tuple, den: int) -> "CycNumber":
    # internal constructor: num a tuple of ints, den > 0; brings it to lowest
    # terms and hands out the canonical 1
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
    if den == 1 and num[0] == 1:
        one = CycNumber.one(conductor)
        if num == one.num:
            return one
    self = object.__new__(CycNumber)
    self.conductor = conductor
    self.num = num
    self.den = den
    self._hash = None
    return self


@lru_cache(maxsize=8192)
def _field_op(op, conductor: int, a_num: tuple, a_den: int, b_num, b_den) -> "CycNumber":
    # op(a_num / a_den, b_num / b_den) in lowest terms, for op one of mul, add,
    # sub and neg (neg reads a alone, b is None).  Certificates repeat most of
    # their field ops, so each value is computed once and shared while its key
    # is among the 8192 most recently used.
    if op is mul:
        den = a_den * b_den
        # scalar fast paths cover most structure constants
        a_tail, b_tail = a_num[1:], b_num[1:]
        if not any(a_tail):
            s = a_num[0]
            if not any(b_tail):
                return _make(conductor, (s * b_num[0],) + a_tail, den)
            return _make(conductor, tuple(s * c for c in b_num), den)
        if not any(b_tail):
            s = b_num[0]
            return _make(conductor, tuple(s * c for c in a_num), den)
        phi = len(a_num)
        conv = [0] * (2 * phi - 1)
        b_terms = [(j, bj) for j, bj in enumerate(b_num) if bj]
        for i, ai in enumerate(a_num):
            if ai:
                for j, bj in b_terms:
                    conv[i + j] += ai * bj
        low = conv[:phi]
        for c, row in zip(conv[phi:], _reduction_rows(conductor)):
            if c:
                for k, r in row:
                    low[k] += c * r
        return _make(conductor, tuple(low), den)
    if op is neg:
        return _make(conductor, tuple(-c for c in a_num), a_den)
    # add or sub, coefficientwise over the least common denominator
    if a_den == b_den:
        return _make(conductor, tuple(map(op, a_num, b_num)), a_den)
    g = gcd(a_den, b_den)
    ma, mb = b_den // g, a_den // g
    return _make(conductor, tuple(op(x * ma, y * mb) for x, y in zip(a_num, b_num)), a_den * ma)


class CycNumber:
    """One element of Q(zeta_N), reduced mod Phi_N: ``num / den``."""

    __slots__ = ("conductor", "num", "den", "_hash")

    def __init__(self, conductor: int, coeffs):
        phi = euler_phi(conductor)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {conductor}")
        # the lcm of reduced denominators leaves gcd(den, *num) == 1
        den = lcm(*(c.denominator for c in coeffs))
        self.conductor = conductor
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den
        self._hash = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(conductor: int) -> "CycNumber":
        out = _ZERO_CACHE.get(conductor)
        if out is None:
            out = CycNumber(conductor, [0] * euler_phi(conductor))
            _ZERO_CACHE[conductor] = out
        return out

    @staticmethod
    def one(conductor: int) -> "CycNumber":
        out = _ONE_CACHE.get(conductor)
        if out is None:
            out = CycNumber(conductor, [1] + [0] * (euler_phi(conductor) - 1))
            _ONE_CACHE[conductor] = out
        return out

    @staticmethod
    def from_rational(conductor: int, value) -> "CycNumber":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        num = (value.numerator,) + CycNumber.zero(conductor).num[1:]
        return _make(conductor, num, value.denominator)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other) -> "CycNumber":
        if isinstance(other, CycNumber):
            if other.conductor != self.conductor:
                raise ValueError(
                    f"conductor mismatch: {self.conductor} vs {other.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.from_rational(self.conductor, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        if other.__class__ is not CycNumber or other.conductor != self.conductor:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        if not any(other.num):
            return self
        if not any(self.num):
            return other
        return _field_op(add, self.conductor, self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        return _field_op(neg, self.conductor, self.num, self.den, None, None)

    def __sub__(self, other):
        if other.__class__ is not CycNumber or other.conductor != self.conductor:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        if not any(other.num):
            return self
        return _field_op(sub, self.conductor, self.num, self.den, other.num, other.den)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if other.__class__ is not CycNumber or other.conductor != self.conductor:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        # 1 * x shares x, rational or not
        if self.den == 1 and a[0] == 1 and not any(a[1:]):
            return other
        if other.den == 1 and b[0] == 1 and not any(b[1:]):
            return self
        return _field_op(mul, self.conductor, a, self.den, b, other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse by extended Euclid against Phi_N over the integers.

        The remainders are primitive pseudo-remainders (Brown, J. ACM 1971).
        Beside each r_i runs t_i with t_i num = s_i r_i (mod Phi_N) for an
        integer s_i, so the last remainder, a constant r since Phi_N is
        irreducible, gives (num / den)^-1 = den t / (s r).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        r0, r1 = list(cyclotomic_polynomial(self.conductor)), list(self.num)
        while not r1[-1]:
            r1.pop()
        t0, t1, s0, s1 = [0], [1], 1, 1
        while len(r1) > 1:
            scale, q, rem = _pseudo_divmod(r0, r1)
            assert rem, "gcd with cyclotomic polynomial not constant"
            content = gcd(*rem)
            # t2 num = s0 s1 rem (mod Phi_N), as scale r0 = q r1 + rem
            t2 = [scale * s1 * c for c in t0] + [0] * (len(q) + len(t1) - 1 - len(t0))
            t1_terms = [(j, c) for j, c in enumerate(t1) if c]
            for i, qi in enumerate(q):
                if qi:
                    qi *= s0
                    for j, tj in t1_terms:
                        t2[i + j] -= qi * tj
            s2 = s0 * s1 * content
            g = gcd(s2, *t2)
            r0, r1 = r1, [c // content for c in rem]
            t0, t1, s0, s1 = t1, [c // g for c in t2], s1, s2 // g
        den = s1 * r1[0]
        if den < 0:
            den, t1 = -den, [-c for c in t1]
        num = [self.den * c for c in t1] + [0] * (euler_phi(self.conductor) - len(t1))
        return _make(self.conductor, tuple(num), den)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = CycNumber.one(self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / misc ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator and self.den == other.denominator
                    and self.is_rational())
        if not isinstance(other, CycNumber):
            return NotImplemented
        return (self.conductor == other.conductor and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        # the hash of (conductor, Fraction coefficients), so set and dict
        # orders do not depend on the stored representation
        if self._hash is None:
            self._hash = hash((self.conductor, self.coeffs))
        return self._hash

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z{self.conductor}")
            else:
                terms.append(f"{c}*z{self.conductor}^{i}")
        return " + ".join(terms) if terms else "0"

    def __bool__(self):
        return not self.is_zero()


def root_of_unity(conductor: int, k: int = 1) -> CycNumber:
    """zeta_N^k in canonical form, conductor N."""
    phi = euler_phi(conductor)
    k %= conductor
    if k < phi:
        c = [0] * phi
        c[k] = 1
        return _make(conductor, tuple(c), 1)
    # reduce t^k mod Phi_N by repeated squaring on the base root
    z = CycNumber(conductor, [0, 1] + [0] * (phi - 2)) if phi > 1 else CycNumber.one(conductor)
    if phi == 1:
        # Q(zeta_1)=Q(zeta_2)=Q; zeta_2 = -1
        if conductor == 1:
            return CycNumber.one(1)
        return CycNumber(2, [(-1) ** k])
    return z ** k


def cyc_to_json(a: CycNumber) -> dict:
    """Each coefficient num/den in lowest terms, as Fraction's str would print it."""
    den = a.den
    coeffs = []
    for c in a.num:
        g = gcd(c, den)
        coeffs.append(f"{c // g}/{den // g}")
    return {"conductor": a.conductor, "coeffs": coeffs}


def cyc_from_json(obj: dict) -> CycNumber:
    try:
        coeffs = [Fraction(s) for s in obj["coeffs"]]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficients {obj['coeffs']!r}") from None
    except OverflowError:
        raise ValueError(f"non-finite value in coefficients {obj['coeffs']!r}") from None
    c = CycNumber(int(obj["conductor"]), coeffs)
    return CycNumber.one(c.conductor) if c.is_one() else c
