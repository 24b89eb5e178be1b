"""Ground field plumbing for Q_p with p odd: valuations, unit groups, discrete
logs, and the standard additive character psi of conductor zero.

Every number that ever enters the lab is a rational, so PadicNumber just wraps an
exact Fraction together with p; valuations and unit parts mod p^t are then exact,
and there is no precision tracking to get wrong.  The table-based pieces
(UnitGroup) are bounded by an explicit budget so a typo in (p, t) fails loudly
instead of allocating gigabytes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .scalars import EXACT, Backend, Rational

_TABLE_BUDGET = 4_000_000  # max residues in one dlog table


class TableBudgetError(ValueError):
    """A requested residue table would be too large to build honestly."""


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def phi(p: int, a: int) -> int:
    """Order of the unit group mod p^a (1 for a = 0)."""
    return p ** (a - 1) * (p - 1) if a >= 1 else 1


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# rational points of Q_p
# ---------------------------------------------------------------------------


def valuation(p: int, x: Union[int, Fraction]) -> Optional[int]:
    """p-adic valuation of a rational; None for 0."""
    fr = Fraction(x)
    if fr == 0:
        return None
    v = 0
    n = fr.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = fr.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_part_mod(p: int, x: Union[int, Fraction], t: int) -> int:
    """The unit u with x = u * p^v(x), reduced mod p^t."""
    fr = Fraction(x)
    if fr == 0:
        raise ZeroDivisionError("zero has no unit part")
    v = valuation(p, fr)
    n, d = fr.numerator, fr.denominator
    if v > 0:
        n //= p ** v
    elif v < 0:
        d //= p ** (-v)
    mod = p ** t
    return n * pow(d, -1, mod) % mod


class PadicNumber:
    """A rational viewed inside Q_p.  Exact: no working-precision artifacts."""

    __slots__ = ("p", "value")

    def __init__(self, p: int, value: Rational):
        self.p = p
        self.value = Fraction(value)

    @property
    def val(self) -> Optional[int]:
        return valuation(self.p, self.value)

    def is_zero(self) -> bool:
        return self.value == 0

    def unit_mod(self, t: int) -> int:
        return unit_part_mod(self.p, self.value, t)

    def _wrap(self, value: Fraction) -> "PadicNumber":
        return PadicNumber(self.p, value)

    def _check(self, other) -> Fraction:
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise ValueError("mixed residue characteristics %d and %d" % (self.p, other.p))
            return other.value
        return Fraction(other)

    def __add__(self, other):
        return self._wrap(self.value + self._check(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._wrap(self.value - self._check(other))

    def __mul__(self, other):
        return self._wrap(self.value * self._check(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(-self.value)

    def __eq__(self, other):
        if isinstance(other, PadicNumber):
            return self.p == other.p and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.value))

    def __repr__(self):
        v = self.val
        return "PadicNumber(p=%d, %s, val=%s)" % (self.p, self.value, v)


# ---------------------------------------------------------------------------
# unit groups and discrete logarithms
# ---------------------------------------------------------------------------


class UnitGroup:
    """(Z/p^t)^x for odd p: cyclic of order phi(p^t), with a full dlog table.

    The generator is the smallest one, so tables are reproducible run to run.
    """

    def __init__(self, p: int, t: int):
        if not is_odd_prime(p):
            raise ValueError("odd prime required")
        if t < 1:
            raise ValueError("level must be >= 1")
        mod = p ** t
        if mod > _TABLE_BUDGET:
            raise TableBudgetError(
                "dlog table for p^t = %d exceeds the %d-entry budget" % (mod, _TABLE_BUDGET)
            )
        self.p = p
        self.t = t
        self.modulus = mod
        self.order = phi(p, t)
        self.gen = self._find_generator()
        table = np.full(mod, -1, dtype=np.int64)
        cur = 1
        for k in range(self.order):
            table[cur] = k
            cur = cur * self.gen % mod
        self._dlog = table

    def _find_generator(self) -> int:
        m = self.order
        checks = [m // ell for ell in _prime_factors(m)]
        g = 2
        while True:
            if g % self.p != 0 and all(pow(g, c, self.modulus) != 1 for c in checks):
                return g
            g += 1

    def dlog(self, x: int) -> int:
        k = int(self._dlog[x % self.modulus])
        if k < 0:
            raise ValueError("%d is not a unit mod %d" % (x, self.modulus))
        return k

    def units(self) -> np.ndarray:
        return np.flatnonzero(self._dlog >= 0)

    def dlog_table(self) -> np.ndarray:
        """Read-only view: index = residue, value = dlog (or -1 off the units)."""
        v = self._dlog.view()
        v.setflags(write=False)
        return v

    def __repr__(self):
        return "UnitGroup(p=%d, t=%d, gen=%d, order=%d)" % (
            self.p, self.t, self.gen, self.order)


@lru_cache(maxsize=None)
def unit_group(p: int, t: int) -> UnitGroup:
    return UnitGroup(p, t)


# ---------------------------------------------------------------------------
# the standard additive character
# ---------------------------------------------------------------------------


def psi_eval(p: int, x: Union[PadicNumber, Rational], backend: Backend = EXACT):
    """psi(x) for the standard character: 1 on Z_p, and psi(u p^{-m}) = zeta_{p^m}^u.

    Twists psi(a x) are applied where they are used; nothing re-bases psi.
    """
    xv = x.value if isinstance(x, PadicNumber) else Fraction(x)
    if xv == 0:
        return backend.one()
    v = valuation(p, xv)
    if v >= 0:
        return backend.one()
    m = -v
    u = unit_part_mod(p, xv, m)
    return backend.root_of_unity(u, p ** m)
