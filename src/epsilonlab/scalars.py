"""Exact cyclotomic scalars and the exact/float backend pair.

Representation
--------------
An element of Q(zeta_N) is stored in the power basis 1, z, z^2, ..., z^(phi(N)-1)
(z = exp(2*pi*i/N)) as a dense vector of integer numerators plus a single positive
denominator.  The vector is always canonically reduced modulo the N-th cyclotomic
polynomial, so equality of values is literally equality of (N, numerators, denominator)
and never consults a tolerance.

Reduction uses Phi_N(x) = Phi_r(x^(N/r)) with r = rad(N): writing an exponent
e = q*(N/r) + s, the monomial x^e rewrites through the small table of
y^q mod Phi_r(y).  Those rewrite rows have O(phi(r)) entries with tiny coefficients,
which keeps reduction cheap even when phi(N) is in the thousands.

Multiplication is integer convolution (numpy int64 with an exact object-dtype
fallback when a magnitude guard trips) followed by one reduction pass.  The
reduction's own guard comes from the rewrite table: a reduced coefficient is at
most max|input| times the largest column sum of |rows|.  Nothing in the exact
path ever rounds.

ScaledScalar carries a formal rational power of q next to a scalar: (c, e) means
c * q^e.  Sums are only defined between equal exponents; a mismatch raises
QExpMismatchError, because in the identities computed here a mismatched sum is a
bug, not a request for numerics.

The float backend mirrors the same operations on complex128 with a relative
tolerance used for equality only.

The Backend is the one place that decides a scalar's type: its constants (one,
zero, rational, root_of_unity) and its root sums are CycNumbers in exact mode
and complex numbers in float mode.  Exact and float values never meet in one
operation: a product or sum of a CycNumber and a complex, or a float-mode
Backend.eq handed a CycNumber, raises TypeError instead of rounding the exact
side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Union

import numpy as np

Rational = Union[int, Fraction]

# Magnitudes above this make int64 convolution unsafe; fall back to exact object dtype.
_INT64_GUARD = 2**62

_MAX_LCM_ORDER = 10**6


class QExpMismatchError(ArithmeticError):
    """Sum of ScaledScalars with different formal q-exponents (needs a numeric fallback)."""


# ---------------------------------------------------------------------------
# cyclotomic polynomial and per-N context
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, num = q * den with den monic-ish (lc +-1).
    num = list(num)
    dlead = den[-1]
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % dlead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q[i] = c // dlead
        if q[i]:
            for j, dj in enumerate(den):
                num[i + j] -= q[i] * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n(x), low degree first."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in _divisors(n):
        if d < n:
            den = _poly_mul(den, list(cyclotomic_poly(d)))
    return tuple(_poly_divide_exact(num, den))


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _radical(n: int) -> int:
    r, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            r *= p
            while m % p == 0:
                m //= p
        p += 1
    return r * m if m > 1 else r


class CycContext:
    """Reduction tables for one cyclotomic order N.  Built once, then read-only."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("cyclotomic order must be positive")
        self.N = N
        self.rad = _radical(N)
        self.K = N // self.rad
        phi_rad = len(cyclotomic_poly(self.rad)) - 1
        self.phi = phi_rad * self.K
        self.phi_rad = phi_rad
        # pow_rows[q] = coefficients of y^q mod Phi_rad(y), q in [0, rad)
        poly = cyclotomic_poly(self.rad)
        head = [-c for c in poly[:-1]]  # y^phi_rad = head(y), lc is 1
        rows = [[0] * phi_rad for _ in range(self.rad)]
        for q in range(phi_rad):
            rows[q][q] = 1
        for q in range(phi_rad, self.rad):
            prev = rows[q - 1]
            cur = [0] * phi_rad
            carry = prev[phi_rad - 1]
            for j in range(phi_rad - 1, 0, -1):
                cur[j] = prev[j - 1]
            if carry:
                for j in range(phi_rad):
                    cur[j] += carry * head[j]
            rows[q] = cur
        self.pow_rows = np.array(rows, dtype=np.int64)
        self._pow_rows_py = [tuple(r) for r in rows]
        # |reduced coefficient| <= max|input coefficient| * reduce_gain
        self.reduce_gain = int(np.abs(self.pow_rows).sum(axis=0).max())
        self._root_sparse: dict[int, tuple[tuple[int, int], ...]] = {}
        self._recog: Optional[dict[tuple, int]] = None
        self._roots_complex: Optional[np.ndarray] = None
        self._trace_weights: Optional[tuple] = None

    # -- reduction -----------------------------------------------------------

    def fits_int64(self, max_abs: int) -> bool:
        """Whether reducing entries of size at most max_abs stays inside int64."""
        return int(max_abs) * self.reduce_gain < _INT64_GUARD

    def reduce_groupring(self, vec: np.ndarray) -> np.ndarray:
        """Length-N integer vector of exponent coefficients -> canonical length-phi vector.

        A stack of vectors (shape (..., N)) is reduced in the same single product.
        """
        if vec.dtype != object and not self.fits_int64(
                max(int(vec.max(initial=0)), -int(vec.min(initial=0)))):
            vec = vec.astype(object)
        rows = self.pow_rows.T if vec.dtype != object else self.pow_rows.T.astype(object)
        out = rows @ vec.reshape(vec.shape[:-1] + (self.rad, self.K))
        return out.reshape(vec.shape[:-1] + (self.phi,))

    def fold_conv(self, conv: np.ndarray) -> np.ndarray:
        """Fold a convolution result (length < 2N) into exponent classes mod N."""
        if len(conv) <= self.N:
            full = np.zeros(self.N, dtype=conv.dtype)
            full[: len(conv)] = conv
        else:
            full = conv[: self.N].copy()
            full[: len(conv) - self.N] += conv[self.N :]
        return full

    # -- roots of unity -------------------------------------------------------

    def root_sparse(self, e: int) -> tuple[tuple[int, int], ...]:
        """Canonical form of z^e as ((index, coeff), ...)."""
        e %= self.N
        hit = self._root_sparse.get(e)
        if hit is None:
            q, s = divmod(e, self.K)
            hit = tuple(
                (j * self.K + s, int(c)) for j, c in enumerate(self._pow_rows_py[q]) if c
            )
            self._root_sparse[e] = hit
        return hit

    def recognition_table(self) -> dict[tuple, int]:
        """Projectivized canonical sparse form -> exponent, for root recognition."""
        if self._recog is None:
            table: dict[tuple, int] = {}
            for e in range(self.N):
                key = _projectivize(self.root_sparse(e))
                table.setdefault(key, e)
            self._recog = table
        return self._recog

    def trace_weights(self) -> tuple:
        """Tr(z^i) / phi(N) for each basis index i: mu(N/g) / phi(N/g), g = gcd(i, N)."""
        if self._trace_weights is None:
            self._trace_weights = tuple(
                _primitive_root_trace(self.N // math.gcd(i, self.N)) for i in range(self.phi))
        return self._trace_weights

    def roots_complex(self) -> np.ndarray:
        if self._roots_complex is None:
            ang = 2.0 * math.pi / self.N
            ks = np.arange(self.N)
            self._roots_complex = np.exp(1j * ang * ks)
        return self._roots_complex


def _primitive_root_trace(n: int) -> Fraction:
    """mu(n) / phi(n): the normalized trace of a primitive n-th root of unity."""
    out, p = Fraction(1), 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return Fraction(0)
            out /= 1 - p
        p += 1
    if n > 1:
        out /= 1 - n
    return out


def _projectivize(sparse: tuple[tuple[int, int], ...]) -> tuple:
    lead = Fraction(sparse[0][1])
    return tuple((i, Fraction(c) / lead) for i, c in sparse)


@lru_cache(maxsize=None)
def get_context(N: int) -> CycContext:
    return CycContext(N)


# ---------------------------------------------------------------------------
# CycNumber
# ---------------------------------------------------------------------------


class CycNumber:
    """Element of Q(zeta_N), canonical in the power basis, exact.

    Elements are normalized so that rational values always demote to N = 1, and
    arithmetic and equality between different N lift to the lcm.  The hash is
    the normalized trace Tr(x) / [Q(zeta_N):Q], an exact rational that lifting
    does not change, so equal values hash equal whatever order holds them.
    """

    __slots__ = ("N", "num", "den")

    def __init__(self, N: int, num: tuple[int, ...], den: int):
        # internal: assumes canonical, normalized inputs
        self.N = N
        self.num = num
        self.den = den

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_vec(N: int, vec: np.ndarray, den: int = 1) -> "CycNumber":
        ctx = get_context(N)
        if len(vec) != ctx.phi:
            raise ValueError("canonical vector has wrong length")
        return _make(N, [int(c) for c in vec], int(den))

    @staticmethod
    def rational(value: Rational) -> "CycNumber":
        fr = Fraction(value)
        return _make(1, [fr.numerator], fr.denominator)

    @staticmethod
    def zero() -> "CycNumber":
        return _ZERO

    @staticmethod
    def one() -> "CycNumber":
        return _ONE

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def sparse(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, c) for i, c in enumerate(self.num) if c)

    def as_root_times_rational(self) -> Optional[tuple[int, Fraction]]:
        """If self = r * zeta_N^e with r rational, return (e, r); else None.

        For odd N the sign lives in r (so e.g. -zeta_5 returns (1, -1)).
        """
        sp = self.sparse()
        if not sp:
            return None
        ctx = get_context(self.N)
        e = ctx.recognition_table().get(_projectivize(sp))
        if e is None:
            return None
        row = ctx.root_sparse(e)
        if len(row) != len(sp):
            return None
        r = Fraction(sp[0][1], self.den) / row[0][1]
        for (i, c), (ri, rc) in zip(sp, row):
            if i != ri or Fraction(c, self.den) != r * rc:
                return None
        if r < 0 and self.N % 2 == 0:
            e, r = (e + self.N // 2) % self.N, -r
        return e % self.N, r

    # -- arithmetic -----------------------------------------------------------

    def _lift_vec(self, N: int) -> tuple[list[int], int]:
        """Canonical numerator vector of self inside Q(zeta_N), same denominator."""
        if N == self.N:
            return list(self.num), self.den
        if N % self.N != 0:
            raise ValueError("cannot lift Q(zeta_%d) into Q(zeta_%d)" % (self.N, N))
        scale = N // self.N
        ctx = get_context(N)
        fits = ctx.fits_int64(max(map(abs, self.num)))
        vec = np.zeros(N, dtype=np.int64 if fits else object)
        # rewrite the canonical basis monomials of the small field in the big one
        for i, c in enumerate(self.num):
            if c:
                vec[(i * scale) % N] += c
        red = ctx.reduce_groupring(vec)
        return [int(c) for c in red], self.den

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        N = _common_order(self.N, other.N)
        (anum, aden) = self._lift_vec(N)
        (bnum, bden) = other._lift_vec(N)
        den = math.lcm(aden, bden)
        fa, fb = den // aden, den // bden
        num = [fa * x + fb * y for x, y in zip(anum, bnum)]
        return _make(N, num, den)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.N, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.N == 1:
            return _make(self.N, [other.num[0] * c for c in self.num], self.den * other.den)
        if self.N == 1:
            return _make(other.N, [self.num[0] * c for c in other.num], self.den * other.den)
        N = _common_order(self.N, other.N)
        (anum, aden) = self._lift_vec(N)
        (bnum, bden) = other._lift_vec(N)
        ctx = get_context(N)
        ma = max((abs(c) for c in anum), default=0)
        mb = max((abs(c) for c in bnum), default=0)
        if ma and mb and ma * mb * min(len(anum), len(bnum)) >= _INT64_GUARD:
            conv = np.convolve(np.array(anum, dtype=object), np.array(bnum, dtype=object))
        else:
            conv = np.convolve(np.array(anum, dtype=np.int64), np.array(bnum, dtype=np.int64))
        red = ctx.reduce_groupring(ctx.fold_conv(conv))
        return _make(N, [int(c) for c in red], aden * bden)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            fr = Fraction(other)
            if fr == 0:
                raise ZeroDivisionError
            return _make(self.N, [fr.denominator * c for c in self.num], self.den * fr.numerator)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            rt = self.as_root_times_rational()
            if rt is None:
                raise ArithmeticError("inverse only available for rational multiples of roots")
            e, r = rt
            return root_of_unity((e * k) % self.N, self.N) * (r ** k)
        out = CycNumber.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.N == other.N:
            return self.num == other.num and self.den == other.den
        N = _common_order(self.N, other.N)
        (anum, aden) = self._lift_vec(N)
        (bnum, bden) = other._lift_vec(N)
        return all(x * bden == y * aden for x, y in zip(anum, bnum))

    def __hash__(self):
        if self.N == 1:
            return hash(Fraction(self.num[0], self.den))
        w = get_context(self.N).trace_weights()
        return hash(sum((c * wi for c, wi in zip(self.num, w) if c), Fraction(0)) / self.den)

    def __repr__(self):
        return "CycNumber(%d, %s)" % (self.N, self.short_str())

    def short_str(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.num):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("%+d*z" % c if terms else "%d*z" % c)
            else:
                terms.append("%+d*z^%d" % (c, i) if terms else "%d*z^%d" % (c, i))
        body = " ".join(terms) if len(terms) > 1 else terms[0]
        if self.den != 1:
            body = "(%s)/%d" % (body, self.den)
        if self.N > 1:
            body += " [z=zeta_%d]" % self.N
        return body

    # -- analytic views --------------------------------------------------------

    def conjugate(self) -> "CycNumber":
        if self.N == 1:
            return self
        ctx = get_context(self.N)
        fits = ctx.fits_int64(max(map(abs, self.num)))
        vec = np.zeros(self.N, dtype=np.int64 if fits else object)
        # z^i -> z^(-i): the canonical coordinates land on the exponents -i mod N
        vec[(-np.arange(ctx.phi)) % self.N] = self.num
        return _make(self.N, ctx.reduce_groupring(vec).tolist(), self.den)

    def norm_squared(self) -> "CycNumber":
        return self * self.conjugate()

    def to_complex(self) -> complex:
        if self.N == 1:
            return complex(self.num[0] / self.den)
        ctx = get_context(self.N)
        roots = ctx.roots_complex()
        acc = 0.0 + 0.0j
        for i, c in enumerate(self.num):
            if c:
                acc += c * roots[i]
        return acc / self.den


_ZERO = CycNumber(1, (0,), 1)
_ONE = CycNumber(1, (1,), 1)


def _common_order(n1: int, n2: int) -> int:
    N = math.lcm(n1, n2)
    if N > _MAX_LCM_ORDER:
        raise ValueError("mixed cyclotomic orders too large: lcm(%d, %d)" % (n1, n2))
    return N


def _make(N: int, num: list[int], den: int) -> CycNumber:
    if den == 0:
        raise ZeroDivisionError
    if den < 0:
        den, num = -den, [-c for c in num]
    g = den
    for c in num:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                break
    if g > 1:
        den //= g
        num = [c // g for c in num]
    if N > 1 and not any(num[1:]):
        return CycNumber(1, (num[0],), den)
    if not any(num):
        return CycNumber(1, (0,), 1)
    return CycNumber(N, tuple(num), den)


def _coerce(x) -> "CycNumber":
    if isinstance(x, CycNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNumber.rational(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# public scalar ops (exact)
# ---------------------------------------------------------------------------


def root_of_unity(e: int, N: int) -> CycNumber:
    """zeta_N^e as a canonical CycNumber."""
    ctx = get_context(N)
    vec = [0] * ctx.phi
    for i, c in ctx.root_sparse(e):
        vec[i] = c
    return _make(N, vec, 1)


def shifted_root_sums(values, mults, m: int, backend: "Backend", den: int = 1,
                      order: int = 1) -> tuple:
    """sum_k values[k] * zeta_m^(mults[k] * d) / den for every d mod m, in the backend.

    Float sums are one matrix product W @ values / den.  Exact sums live in
    Q(zeta_N), N = lcm(order, m, every value's order): the values are put
    over one common denominator as the rows of an integer group-ring matrix;
    zeta_m^(j d) = z^(j d N/m) shifts the (m, N/m) block view of a row by j*d
    block rows, so all m sums are one stack of shifted rows and one batched
    reduction.  The stack is int64 when K rows of the largest scaled
    coefficient pass the reduction guard, object dtype otherwise.
    """
    if not backend.exact:
        ds = np.arange(m)
        W = np.exp(2j * np.pi * (np.outer(ds, mults) % m) / m)
        return tuple(complex(v) for v in W @ np.array(values, dtype=complex) / den)
    N = math.lcm(order, m, *(v.N for v in values))
    ctx = get_context(N)
    lifted = [v._lift_vec(N) for v in values]
    common = math.lcm(*(d for _num, d in lifted))
    scale = [common // d for _num, d in lifted]
    biggest = max(max(map(abs, num)) * s for (num, _d), s in zip(lifted, scale))
    G = np.zeros((len(values), N),
                 dtype=np.int64 if ctx.fits_int64(len(values) * biggest) else object)
    G[:, :ctx.phi] = [num for num, _d in lifted]
    G[:, :ctx.phi] *= np.array(scale, dtype=G.dtype)[:, None]
    ds = np.arange(m)
    R = np.zeros((m, m, N // m), dtype=G.dtype)
    for j, blocks in zip(mults, G.reshape(len(values), m, N // m)):
        R += blocks[(ds - j * ds[:, None]) % m]
    red = ctx.reduce_groupring(R.reshape(m, N))
    return tuple(CycNumber.from_vec(N, r, common * den) for r in red)


def to_complex(x: Union[CycNumber, complex]) -> complex:
    if isinstance(x, CycNumber):
        return x.to_complex()
    return complex(x)


def proportionality_ratio(a: CycNumber, b: CycNumber) -> Optional[Fraction]:
    """r with a == r * b, if a and b are rationally proportional (b != 0)."""
    if b.is_zero():
        return None
    if a.is_zero():
        return Fraction(0)
    N = _common_order(a.N, b.N)
    (anum, aden) = a._lift_vec(N)
    (bnum, bden) = b._lift_vec(N)
    # a = r b with r = (anum[bi] / aden) / (bnum[bi] / bden) exactly when every
    # coordinate satisfies anum[i] bnum[bi] = anum[bi] bnum[i]: the denominators cancel
    bi = next(i for i, c in enumerate(bnum) if c)
    x0, y0 = anum[bi], bnum[bi]
    if not all(x * y0 == x0 * y for x, y in zip(anum, bnum)):
        return None
    return Fraction(x0 * bden, aden * y0)


# ---------------------------------------------------------------------------
# ScaledScalar
# ---------------------------------------------------------------------------


Scalar = Union[CycNumber, complex]


@dataclass(frozen=True)
class ScaledScalar:
    """A scalar times a formal rational power of q: (coeff, e) <-> coeff * q^e."""

    coeff: Scalar
    qexp: Fraction

    @staticmethod
    def of(coeff, qexp: Rational = 0) -> "ScaledScalar":
        if _scalar_is_exact_zero(coeff):
            return ScaledScalar(coeff, Fraction(0))
        return ScaledScalar(coeff, Fraction(qexp))

    def is_zero_exact(self) -> bool:
        return _scalar_is_exact_zero(self.coeff)

    def __mul__(self, other):
        if isinstance(other, ScaledScalar):
            return ScaledScalar.of(self.coeff * other.coeff, self.qexp + other.qexp)
        if isinstance(other, (int, Fraction, CycNumber, complex)):
            return ScaledScalar.of(self.coeff * other, self.qexp)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, ScaledScalar):
            return NotImplemented
        if self.is_zero_exact():
            return other
        if other.is_zero_exact():
            return self
        if self.qexp != other.qexp:
            raise QExpMismatchError(
                "sum of scaled scalars with q-exponents %s and %s" % (self.qexp, other.qexp)
            )
        return ScaledScalar.of(self.coeff + other.coeff, self.qexp)

    def __pow__(self, k: int):
        return ScaledScalar.of(self.coeff ** k, self.qexp * k)

    def scale_q(self, delta: Rational) -> "ScaledScalar":
        if self.is_zero_exact():
            return self
        return ScaledScalar(self.coeff, self.qexp + Fraction(delta))

    def to_complex(self, q: int) -> complex:
        return to_complex(self.coeff) * (float(q) ** float(self.qexp))

    def eq_value(self, other: "ScaledScalar", q: int, backend: "Backend") -> bool:
        """Value equality, absorbing integer q-exponent differences into the coefficient."""
        if self.is_zero_exact() and other.is_zero_exact():
            return True
        delta = self.qexp - other.qexp
        if delta.denominator == 1:
            scale = Fraction(q) ** int(delta) if backend.exact else float(q) ** int(delta)
            return backend.eq(self.coeff * scale, other.coeff)
        # a fractional q-power gap: only equal if both vanish (handled above) or the
        # backend can compare numerically
        if backend.exact:
            return False
        return backend.eq(self.to_complex(q), other.to_complex(q))


def _scalar_is_exact_zero(x: Scalar) -> bool:
    if isinstance(x, CycNumber):
        return x.is_zero()
    return x == 0


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Backend:
    """Dispatch point between exact cyclotomic and complex floating arithmetic.

    mode "exact": scalars are CycNumbers, equality is exact.
    mode "float": scalars are complex, equality is relative within `tolerance`
    (|a-b| <= tolerance * max(1, |a|, |b|)).
    """

    mode: str
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise ValueError("backend mode must be 'exact' or 'float'")

    @property
    def exact(self) -> bool:
        return self.mode == "exact"

    def root_of_unity(self, e: int, N: int) -> Scalar:
        if self.exact:
            return root_of_unity(e, N)
        return cmath.exp(2j * cmath.pi * (e % N) / N)

    def one(self) -> Scalar:
        return CycNumber.one() if self.exact else 1.0 + 0.0j

    def zero(self) -> Scalar:
        return CycNumber.zero() if self.exact else 0.0 + 0.0j

    def rational(self, value: Rational) -> Scalar:
        if self.exact:
            return CycNumber.rational(value)
        return complex(Fraction(value))

    def conjugate(self, x: Scalar) -> Scalar:
        if isinstance(x, CycNumber):
            return x.conjugate()
        return complex(x).conjugate()

    def norm_squared(self, x: Scalar) -> Scalar:
        if isinstance(x, CycNumber):
            return x.norm_squared()
        return x * complex(x).conjugate()

    def eq(self, a, b) -> bool:
        if self.exact:
            return a == b
        ca, cb = complex(a), complex(b)
        scale = max(1.0, abs(ca), abs(cb))
        return abs(ca - cb) <= self.tolerance * scale

    def is_zero(self, x: Scalar) -> bool:
        if isinstance(x, CycNumber):
            return x.is_zero()
        return abs(x) <= self.tolerance

    def root_combination(self, N: int, weights: Mapping[int, Rational]) -> Scalar:
        """sum_e weights[e] * zeta_N^e from a sparse map of rational weights, one
        term at a time (object dtype when exact): the reference root_sum is
        tested against."""
        ctx = get_context(N)
        if self.exact:
            den = math.lcm(*(Fraction(w).denominator for w in weights.values()))
            vec = np.zeros(N, dtype=object)
            for e, w in weights.items():
                vec[e % N] += int(Fraction(w) * den)
            return _make(N, ctx.reduce_groupring(vec).tolist(), den)
        roots = ctx.roots_complex()
        acc = 0.0 + 0.0j
        for e, w in weights.items():
            acc += complex(Fraction(w)) * roots[e % N]
        return acc

    def root_sum(self, pt: int, add: np.ndarray, m: int, mul: np.ndarray) -> Scalar:
        """sum_i zeta_pt^add[i] * zeta_m^mul[i] over integer exponent arrays add and
        mul (one of them may be a scalar), as one count vector in Q(zeta_lcm(pt, m))."""
        N = math.lcm(pt, m)
        e = (add % pt * (N // pt) + mul % m * (N // m)) % N
        return self.root_combination_vec(N, np.bincount(e, minlength=N))

    def root_combination_vec(self, N: int, counts: np.ndarray):
        """Same as root_combination for a dense length-N integer count vector.

        A (K, N) stack of count vectors gives a list of K values, reduced in
        one batched pass.
        """
        ctx = get_context(N)
        if not self.exact:
            vals = np.dot(counts, ctx.roots_complex())
            return complex(vals) if counts.ndim == 1 else [complex(v) for v in vals]
        red = ctx.reduce_groupring(counts.astype(np.int64, copy=False)).tolist()
        if counts.ndim == 1:
            return _make(N, red, 1)
        return [_make(N, r, 1) for r in red]


EXACT = Backend("exact")
FLOAT = Backend("float")


def backend_for(mode: str, tolerance: float = 1e-9) -> Backend:
    if mode == "exact":
        return EXACT
    return Backend("float", tolerance)
