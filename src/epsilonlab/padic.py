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

from .scalars import _TABLE_BUDGET, EXACT, Backend, Rational, TableBudgetError, _prime_factors


def is_odd_prime(p: int) -> bool:
    return p > 2 and _prime_factors(p) == [p]


def phi(p: int, a: int) -> int:
    """Order of the unit group mod p^a (1 for a = 0)."""
    return p ** (a - 1) * (p - 1) if a >= 1 else 1


# ---------------------------------------------------------------------------
# rational points of Q_p
# ---------------------------------------------------------------------------


def valuation(p: int, x: Union[int, Fraction]) -> Optional[int]:
    """p-adic valuation of a rational; None for 0."""
    if x == 0:
        return None
    if not isinstance(x, int):
        fr = Fraction(x)
        return valuation(p, fr.numerator) - valuation(p, fr.denominator)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def unit_part_mod(p: int, x: Union[int, Fraction], t: int) -> int:
    """The unit u with x = u * p^v(x), reduced mod p^t.

    An integer needs only x // p^v mod p^t; any other rational is the
    quotient of its numerator's and its denominator's unit parts.
    """
    if x == 0:
        raise ZeroDivisionError("zero has no unit part")
    mod = p ** t
    if isinstance(x, int):
        return x // p ** valuation(p, x) % mod
    fr = Fraction(x)
    den = unit_part_mod(p, fr.denominator, t)
    return unit_part_mod(p, fr.numerator, t) * pow(den, -1, mod) % mod


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
    """(Z/p^t)^x for odd p: cyclic of order m = phi(p^t), generated at every level
    by the least primitive root g mod p, with powers[d] = g^d mod p^t for
    d < m (read-only) and the dlog table that inverts it.

    g generates every level when g^(p-1) != 1 mod p^2 (Ireland and Rosen, ch.
    4), which holds for every p <= 1999, the p whose level-2 table fits the
    budget; so g is the least generator mod p^t wherever the table fits.
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
        self.order = m = phi(p, t)
        checks = [(p - 1) // ell for ell in _prime_factors(p - 1)]
        self.gen = next(g for g in range(2, p) if all(pow(g, c, p) != 1 for c in checks))
        powers = np.ones(m, dtype=np.int64)
        n = 1
        while n < m:  # g^(n + i) = g^n g^i: each pass doubles the known prefix
            powers[n:2 * n] = powers[:min(n, m - n)] * pow(self.gen, n, mod) % mod
            n *= 2
        powers.setflags(write=False)
        self.powers = powers
        self._dlog = np.full(mod, -1, dtype=np.int64)
        self._dlog[powers] = np.arange(m)

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
