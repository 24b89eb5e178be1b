"""Multiplicative characters of Q_p^x and their invariants.

A finite-order character is pinned down by a level t and an exponent k: on units
it sends g, the least primitive root mod p, which generates (Z/p^t)^x at every
level (see padic.UnitGroup), to zeta_{phi(p^t)}^k, and it sends p to 1.  So
the angle k/phi(p^t) is the same at every level: one level up multiplies k by
p, and one level down divides it by p, which is exact exactly when chi
factors through the lower level.  The conductor exponent a(chi), the least
a >= 1 with chi trivial on 1 + p^a Z_p (0 for the trivial character), is
computed from k, not stored, so it can never go stale.  The subgroup 1 + p^a
of (Z/p^t)^x is generated by g^{(p-1) p^{a-1}}, so chi is trivial there
exactly when p^{t-a} divides k; hence

    a(chi) = 0 if k = 0 mod phi(p^t), else max(t - v_p(k), 1).

v_chi is the unit class attached to a ramified character by the local expansion
chi(1 + y) = psi(v_chi * y / p^{a}) for y in the deepest relevant filtration
step; the expansion is additive in y, so v_chi is read at y = 1, checked at
every y, and is unique mod p^{floor(a/2)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

from .padic import is_odd_prime, phi, unit_group, unit_part_mod, valuation
from .scalars import EXACT, Backend


@dataclass(frozen=True)
class MultChar:
    """Character of (Z/p^level)^x with chi(p) = 1: chi(g) = zeta_m^k, m = phi(p^level)."""

    p: int
    level: int
    k: int

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError("odd prime required")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        m = self.group_order
        object.__setattr__(self, "k", self.k % m)

    @property
    def group_order(self) -> int:
        return phi(self.p, self.level)

    # -- evaluation -----------------------------------------------------------

    def value_exponent(self, x: Union[int, Fraction]) -> int:
        """e with chi(x) = zeta_{group_order}^e; any nonzero rational (chi(p) = 1)."""
        u = unit_part_mod(self.p, x, self.level)
        return self.k * unit_group(self.p, self.level).dlog(u) % self.group_order

    def eval(self, x: Union[int, Fraction], backend: Backend = EXACT):
        return backend.root_of_unity(self.value_exponent(x), self.group_order)

    # -- invariants -----------------------------------------------------------

    @property
    def conductor_exponent(self) -> int:
        return _conductor_exponent(self.p, self.level, self.k)

    def parity_sign(self) -> int:
        """chi(-1) as +-1: dlog(-1) = m/2 in the cyclic group of even order m,
        so chi(-1) = zeta_m^{k m/2} = (-1)^k."""
        return -1 if self.k % 2 else 1

    # -- algebra ---------------------------------------------------------------

    def induce(self, level: int) -> "MultChar":
        """The same character of Q_p^x presented at a deeper level."""
        if level < self.level:
            raise ValueError("cannot lower the presentation level; build a new character")
        if level == self.level:
            return self
        # one generator at every level: the angle k / m keeps its value
        return MultChar(self.p, level, self.k * (phi(self.p, level) // self.group_order))

    def mul(self, other: "MultChar") -> "MultChar":
        if other.p != self.p:
            raise ValueError("mixed primes")
        lvl = max(self.level, other.level)
        a, b = self.induce(lvl), other.induce(lvl)
        return MultChar(self.p, lvl, a.k + b.k)

    def inv(self) -> "MultChar":
        return MultChar(self.p, self.level, -self.k)

    def __pow__(self, n: int) -> "MultChar":
        return MultChar(self.p, self.level, self.k * n)

    def to_json(self) -> dict:
        return {"p": self.p, "level": self.level, "k": self.k}


@lru_cache(maxsize=None)
def _conductor_exponent(p: int, level: int, k: int) -> int:
    k %= phi(p, level)
    if k == 0:
        return 0
    return max(level - valuation(p, k), 1)


def trivial_char(p: int) -> MultChar:
    return MultChar(p, 1, 0)


def enumerate_chars(p: int, level: int) -> Iterator[MultChar]:
    """All characters presented at the given level (group-order many)."""
    for k in range(phi(p, level)):
        yield MultChar(p, level, k)


def conductor_ks(p: int, a: int) -> list[int]:
    """Exponents k of the characters with conductor exponent exactly a, presented
    at level max(a, 1), in increasing order: k = 0 for a = 0, every nonzero k at
    a = 1, and every k prime to p for a >= 2."""
    if a == 0:
        return [0]
    if a == 1:
        return list(range(1, p - 1))
    return [k for k in range(phi(p, a)) if k % p]


def chars_with_conductor(p: int, a: int) -> list[MultChar]:
    """All characters with conductor exponent exactly a, presented at level max(a,1).

    A fresh list on every call, so callers may mutate it; the characters in it
    are built once per (p, a).
    """
    return list(_conductor_chars(p, a))


@lru_cache(maxsize=64)
def _conductor_chars(p: int, a: int) -> tuple[MultChar, ...]:
    return tuple(MultChar(p, max(a, 1), k) for k in conductor_ks(p, a))


def represent_at_level(chi: MultChar, level: int) -> MultChar:
    """The same character of Q_p^x presented at the given level (>= its conductor).

    chi(g) = zeta_m^k keeps its angle at every level, so going up is induce and
    going down divides k by p^(chi.level - level); that division is exact
    exactly when a(chi) <= level, and otherwise the character is refused.
    """
    if chi.level == level:
        return chi
    if chi.level < level:
        return chi.induce(level)
    step = chi.p ** (chi.level - level)
    if chi.k % step:
        raise ValueError("character does not factor through level %d" % level)
    return MultChar(chi.p, level, chi.k // step)


# ---------------------------------------------------------------------------
# the unit class v_chi of a ramified character
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidueClass:
    """A unit residue mod p^m; m = 0 marks the vacuous class (every unit works)."""

    p: int
    m: int
    rep: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("negative modulus exponent")
        object.__setattr__(self, "rep", self.rep % self.p ** self.m if self.m else 0)

    @property
    def vacuous(self) -> bool:
        return self.m == 0

    def contains(self, x: int) -> bool:
        if self.vacuous:
            return x % self.p != 0
        return x % self.p ** self.m == self.rep and x % self.p != 0


@lru_cache(maxsize=4096)
def v_chi(chi: MultChar) -> ResidueClass:
    """The class v mod p^{floor(a/2)} with chi(1 + y p^{ceil(a/2)}) = zeta_{p^{floor(a/2)}}^{v y}.

    For a(chi) = 1 the condition is empty and the vacuous class is returned.
    Since 2 ceil(a/2) >= a, y -> chi(1 + y p^{ceil(a/2)}) is additive: v is read
    at y = 1, and a non-unit v or a mismatch at any y is a real inconsistency.
    Each character is checked once: a rank-one sweep pairs it with every mu.
    An inconsistency raises and is not cached.
    """
    a = chi.conductor_exponent
    if a == 0:
        raise ValueError("v_chi needs a ramified character")
    lo, hi = a // 2, a - a // 2  # floor, ceil
    if lo == 0:
        return ResidueClass(chi.p, 0, 0)
    p = chi.p
    mod_lo = p ** lo
    m = chi.group_order
    # chi(1 + y*p^hi) has values in the p-power roots; read each off as an exponent
    targets = []
    for y in range(mod_lo):
        e = chi.value_exponent((1 + y * p ** hi) % p ** chi.level)
        # e / m must equal (v*y mod p^lo) / p^lo
        num = e * mod_lo
        if num % m:
            raise ArithmeticError("character value off the expected p-power lattice")
        targets.append(num // m % mod_lo)
    v = targets[1]
    if v % p == 0 or any(v * y % mod_lo != e for y, e in enumerate(targets)):
        raise ArithmeticError("no unit class matches chi on the deep filtration step "
                              "(conductor bookkeeping is broken)")
    return ResidueClass(p, lo, v)
