"""Cyclotomic arithmetic probe: time mul, add and inverse per conductor and
check every result against an oracle written here, so the probe cannot time
a wrong kernel.

The oracle is the plain polynomial product reduced mod Phi_N, with Phi_N
built here from t^N - 1 by exact division.  Results are compared through
the public JSON form (``num/den`` strings), which later kernels keep.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter_ns

MUL_CONDUCTORS = (4, 12, 20, 28)
INVERSE_CONDUCTORS = (12, 20)
ADD_CONDUCTORS = (20,)
BATCH = 200          # operand pairs per timed batch
REPEATS = 5          # timed batches per operation; the median is reported
INVERSE_BATCH = 60


def _poly_div_exact(num, den):
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        quot[i - dn] = c
        for j, dj in enumerate(den):
            num[i - dn + j] -= c * dj
    if any(num[:dn]):
        raise ArithmeticError("inexact division")
    return quot


def phi_poly(n: int) -> list[int]:
    """Coefficients of Phi_n, lowest degree first."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact(num, phi_poly(d))
    return num


def oracle_mul(a: list, b: list, mod: list[int]) -> list:
    """a*b mod the monic polynomial ``mod``; a, b lists of Fractions."""
    phi = len(mod) - 1
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(len(prod) - 1, phi - 1, -1):
        c = prod[d]
        if c:
            for j in range(phi + 1):
                prod[d - phi + j] -= c * mod[j]
    return (prod + [Fraction(0)] * phi)[:phi]


def _coeffs(x) -> list:
    from hopfkit.cyclotomic import cyc_to_json
    return [Fraction(s) for s in cyc_to_json(x)["coeffs"]]


def _operands(rng, n, count):
    from hopfkit.cyclotomic import CycNumber, euler_phi
    phi = euler_phi(n)
    out = []
    while len(out) < count:
        c = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4))) for _ in range(phi)]
        if any(c[1:]):              # not rational, so no scalar fast path
            out.append(CycNumber(n, c))
    return out


def _time_batch(op, xs, ys):
    t0 = perf_counter_ns()
    out = [op(x, y) for x, y in zip(xs, ys)]
    return perf_counter_ns() - t0, out


def _median_ns(op, xs, ys, repeats):
    samples = []
    for _ in range(repeats):
        dt, out = _time_batch(op, xs, ys)
        samples.append(dt / len(xs))
    return statistics.median(samples), out


def run_probe(seed: int) -> tuple[dict, list[str]]:
    """Returns (metrics, errors); errors lists every wrong result."""
    rng = random.Random(seed)
    metrics, errors = {}, []
    for n in MUL_CONDUCTORS:
        mod = phi_poly(n)
        xs, ys = _operands(rng, n, BATCH), _operands(rng, n, BATCH)
        ns, out = _median_ns(lambda x, y: x * y, xs, ys, REPEATS)
        metrics[f"cyclotomic.mul_ns.N{n}"] = ns
        for x, y, z in zip(xs, ys, out):
            if _coeffs(z) != oracle_mul(_coeffs(x), _coeffs(y), mod):
                errors.append(f"mul N={n}: {x!r} * {y!r} gave {z!r}")
                break
    for n in ADD_CONDUCTORS:
        xs, ys = _operands(rng, n, BATCH), _operands(rng, n, BATCH)
        ns, out = _median_ns(lambda x, y: x + y, xs, ys, REPEATS)
        metrics[f"cyclotomic.add_ns.N{n}"] = ns
        for x, y, z in zip(xs, ys, out):
            if _coeffs(z) != [a + b for a, b in zip(_coeffs(x), _coeffs(y))]:
                errors.append(f"add N={n}: {x!r} + {y!r} gave {z!r}")
                break
    for n in INVERSE_CONDUCTORS:
        mod = phi_poly(n)
        one = [Fraction(1)] + [Fraction(0)] * (len(mod) - 2)
        xs = _operands(rng, n, INVERSE_BATCH)
        ns, out = _median_ns(lambda x, _: x.inverse(), xs, xs, REPEATS)
        metrics[f"cyclotomic.inverse_ns.N{n}"] = ns
        for x, z in zip(xs, out):
            if oracle_mul(_coeffs(x), _coeffs(z), mod) != one:
                errors.append(f"inverse N={n}: {x!r} gave {z!r}")
                break
    return metrics, errors
