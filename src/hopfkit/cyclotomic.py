"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored on the power basis 1, z, ..., z^(phi(N)-1) of
Q[t]/(Phi_N) with Fraction coefficients, so equality is literal equality of
coefficient vectors.  The conductor is part of the value; mixed-conductor
arithmetic is a caller error (use embed() first).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Rational = Fraction


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


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, den monic; remainder must vanish
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        out[i - dn] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dn + j] -= c * dj
    assert all(c == 0 for c in num[:dn]), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    # t^n - 1 divided by Phi_d for every proper divisor d
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n)[:-1]:
        num = _poly_divmod_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    # row d-phi gives t^d mod Phi_n for d = phi .. 2*phi-2
    phi = euler_phi(n)
    poly = cyclotomic_polynomial(n)
    base = [Fraction(-c) for c in poly[:phi]]  # t^phi = base (monic)
    rows = [tuple(base)]
    cur = base
    for _ in range(phi - 2):
        shifted = [Fraction(0)] + cur[:-1]
        top = cur[-1]
        if top:
            shifted = [s + top * b for s, b in zip(shifted, base)]
        rows.append(tuple(shifted))
        cur = shifted
    return tuple(rows)


_ZERO = Fraction(0)
_ONE = Fraction(1)
_ZERO_CACHE: dict = {}
_ONE_CACHE: dict = {}


class CycNumber:
    """One element of Q(zeta_N), reduced mod Phi_N."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs):
        phi = euler_phi(conductor)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {conductor}")
        self.conductor = conductor
        self.coeffs = coeffs
        self._hash = None

    @classmethod
    def _raw(cls, conductor: int, coeffs: tuple) -> "CycNumber":
        # internal fast path: coeffs already a tuple of Fractions
        self = object.__new__(cls)
        self.conductor = conductor
        self.coeffs = coeffs
        self._hash = None
        return self

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(conductor: int) -> "CycNumber":
        out = _ZERO_CACHE.get(conductor)
        if out is None:
            out = CycNumber(conductor, [_ZERO] * euler_phi(conductor))
            _ZERO_CACHE[conductor] = out
        return out

    @staticmethod
    def one(conductor: int) -> "CycNumber":
        out = _ONE_CACHE.get(conductor)
        if out is None:
            c = [_ZERO] * euler_phi(conductor)
            c[0] = _ONE
            out = CycNumber(conductor, c)
            _ONE_CACHE[conductor] = out
        return out

    @staticmethod
    def from_rational(conductor: int, value) -> "CycNumber":
        c = [_ZERO] * euler_phi(conductor)
        c[0] = Fraction(value)
        return CycNumber(conductor, c)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs[0]

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
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycNumber._raw(self.conductor,
                              tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNumber._raw(self.conductor, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycNumber._raw(self.conductor,
                              tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        # scalar fast paths cover most structure constants
        if self.is_rational():
            s = a[0]
            if s == 0:
                return CycNumber.zero(self.conductor)
            if s == 1:
                return other
            return CycNumber._raw(self.conductor, tuple(s * c for c in b))
        if other.is_rational():
            s = b[0]
            if s == 0:
                return CycNumber.zero(self.conductor)
            if s == 1:
                return self
            return CycNumber._raw(self.conductor, tuple(s * c for c in a))
        phi = len(a)
        conv = [_ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                conv[i + j] += ai * bj
        rows = _reduction_rows(self.conductor)
        low = conv[:phi]
        for d in range(phi, 2 * phi - 1):
            c = conv[d]
            if c:
                row = rows[d - phi]
                low = [l + c * r for l, r in zip(low, row)]
        return CycNumber._raw(self.conductor, tuple(low))

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse via extended Euclid against Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return CycNumber.from_rational(self.conductor, 1 / self.coeffs[0])
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r0, r1 = phi_poly, list(self.coeffs)
        t0, t1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, rem = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, rem
            t2 = _poly_sub(t0, _poly_mul(q, t1))
            t0, t1 = t1, t2
        # r0 = gcd, a nonzero constant since Phi_N is irreducible
        assert len(_poly_trim(r0)) == 1, "gcd with cyclotomic polynomial not constant"
        g = r0[0]
        inv = [c / g for c in t0]
        phi = euler_phi(self.conductor)
        inv = (inv + [_ZERO] * phi)[:phi]
        return CycNumber(self.conductor, inv)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

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
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycNumber):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
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


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return p[:i]


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [_ZERO] * (n - len(a))
    b = b + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def _poly_divmod_frac(a: list[Fraction], b: list[Fraction]):
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError
    q = [_ZERO] * max(len(a) - len(b) + 1, 1)
    lead = b[-1]
    while len(a) >= len(b) and a:
        c = a[-1] / lead
        d = len(a) - len(b)
        q[d] = c
        for j, bj in enumerate(b):
            a[d + j] -= c * bj
        a = _poly_trim(a)
    return q, a


def root_of_unity(conductor: int, k: int = 1) -> CycNumber:
    """zeta_N^k in canonical form, conductor N."""
    phi = euler_phi(conductor)
    k %= conductor
    if k < phi:
        c = [_ZERO] * phi
        c[k] = _ONE
        return CycNumber(conductor, c)
    # reduce t^k mod Phi_N by repeated squaring on the base root
    z = CycNumber(conductor, [_ZERO, _ONE] + [_ZERO] * (phi - 2)) if phi > 1 else CycNumber.one(conductor)
    if phi == 1:
        # Q(zeta_1)=Q(zeta_2)=Q; zeta_2 = -1
        if conductor == 1:
            return CycNumber.one(1)
        return CycNumber(2, [(-1) ** k])
    return z ** k


def embed(a: CycNumber, conductor: int) -> CycNumber:
    """Image of a under zeta_N -> zeta_M^(M/N); requires N | M."""
    m, n = conductor, a.conductor
    if m % n != 0:
        raise ValueError(f"target conductor {m} not a multiple of {n}")
    if m == n:
        return a
    step = m // n
    out = CycNumber.zero(m)
    for i, c in enumerate(a.coeffs):
        if c:
            out = out + root_of_unity(m, i * step) * c
    return out


def cyc_to_json(a: CycNumber) -> dict:
    return {
        "conductor": a.conductor,
        "coeffs": [f"{c.numerator}/{c.denominator}" for c in a.coeffs],
    }


def cyc_from_json(obj: dict) -> CycNumber:
    try:
        coeffs = [Fraction(s) for s in obj["coeffs"]]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficients {obj['coeffs']!r}") from None
    return CycNumber(int(obj["conductor"]), coeffs)
