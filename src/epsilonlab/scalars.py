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
which keeps reduction cheap even when phi(N) is in the thousands.  They are the
only description of the field: a root of unity is written by placing one row,
and recognised by finding the row it is proportional to.

Multiplication is integer convolution followed by one reduction pass.  The
kernel, _groupring_product, is one np.convolve of the two coordinate vectors,
in int64 while the bound sum|x| * max|y| stays under a guard and in exact
object dtype otherwise.  Coordinates enter numpy through _int_array: int64
where numpy infers int64, object dtype otherwise, never a cast.  The
reduction's own guard comes from the rewrite table: a reduced coefficient is
at most max|input| times the largest column sum of |rows|.  Nothing in the
exact path ever rounds.

A batched reduction returns a CycRow: a row of values of one field, held as
the reduced (K, phi(N)) stack over one denominator.  Its entries become
CycNumbers only when they are read, and two rows of one field compare on the
integers, by cross-multiplied denominators (Backend.eq_rows).

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

_TABLE_BUDGET = 4_000_000  # max entries in one dlog table or one field's rewrite table


class TableBudgetError(ValueError):
    """A requested residue table would be too large to build honestly."""


class QExpMismatchError(ArithmeticError):
    """Sum of ScaledScalars with different formal q-exponents (needs a numeric fallback)."""


# ---------------------------------------------------------------------------
# cyclotomic polynomial and per-N context
# ---------------------------------------------------------------------------


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, in increasing order."""
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


def _rewrite_table_size(N: int) -> int:
    """Entries of CycContext(N).pow_rows: rad(N) rows of phi(rad(N)) coefficients."""
    primes = _prime_factors(N)
    return math.prod(primes) * math.prod(q - 1 for q in primes)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n(x), low degree first.

    For n > 1, Phi_n(x) is the product over d | rad(n) of (1 - x^(n/d))^mu(d),
    applied to the coefficients up to degree phi(n): multiplying by 1 - x^e is
    a descending stride-e subtraction, dividing by it an ascending running sum.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomials need n >= 1, got %d" % n)
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    deg = n // math.prod(primes) * math.prod(q - 1 for q in primes)
    divisors = [(1, 1)]  # (d, mu(d)) for the squarefree divisors d of n
    for q in primes:
        divisors += [(d * q, -mu) for d, mu in divisors]
    coeffs = [1] + [0] * deg
    for d, mu in divisors:
        e = n // d
        if mu > 0:
            for i in range(deg, e - 1, -1):
                coeffs[i] -= coeffs[i - e]
        else:
            for i in range(e, deg + 1):
                coeffs[i] += coeffs[i - e]
    return tuple(coeffs)


class CycContext:
    """Reduction tables for one cyclotomic order N.  Built once, then read-only."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("cyclotomic order must be positive")
        size = _rewrite_table_size(N)
        if size > _TABLE_BUDGET:
            raise TableBudgetError("rewrite table for N = %d has %d entries, over the %d-entry "
                                   "budget" % (N, size, _TABLE_BUDGET))
        self.N = N
        self.rad = math.prod(_prime_factors(N))
        self.K = N // self.rad
        poly = cyclotomic_poly(self.rad)
        phi_rad = len(poly) - 1
        self.phi = phi_rad * self.K
        # pow_rows[q] = coefficients of y^q mod Phi_rad(y), q in [0, rad): row q is
        # row q-1 shifted up one degree, with its carry rewritten as y^phi_rad = head(y)
        head = -np.array(poly[:-1], dtype=np.int64)
        rows = np.zeros((self.rad, phi_rad), dtype=np.int64)
        rows[0, 0] = 1
        for q in range(1, self.rad):
            rows[q, 1:] = rows[q - 1, :-1]
            rows[q] += rows[q - 1, -1] * head
        self.pow_rows = rows
        # |reduced coefficient| <= max|input coefficient| * reduce_gain
        self.reduce_gain = int(np.abs(self.pow_rows).sum(axis=0).max())
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

    # -- roots of unity -------------------------------------------------------

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
    primes = _prime_factors(n)
    if math.prod(primes) != n:
        return Fraction(0)
    return math.prod((Fraction(1, 1 - q) for q in primes), start=Fraction(1))


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

    def as_root_times_rational(self) -> Optional[tuple[int, Fraction]]:
        """If self = r * zeta_N^e with r rational, return (e, r); else None.

        root_of_unity places pow_rows[q] at the indices jK + s for z^(qK + s), so a
        monomial lies on one residue s mod K, where its coordinates over their gcd
        are +-row q (rows are primitive).  The least q is taken; for even N,
        q + rad/2 also matches with the other sign, and a positive r makes the
        two agree.  For odd N the sign lives in r (-zeta_5 returns (1, -1)).
        """
        support = [i for i, c in enumerate(self.num) if c]
        if not support:
            return None
        ctx = get_context(self.N)
        s = support[0] % ctx.K
        if any(i % ctx.K != s for i in support):
            return None
        coords = self.num[s :: ctx.K]
        g = math.gcd(*coords)
        unit = [c // g for c in coords]
        if max(map(abs, unit)) > ctx.reduce_gain:
            return None  # no row has an entry that large
        sign = (ctx.pow_rows == unit).all(axis=1)
        hits = np.flatnonzero(sign | (ctx.pow_rows == np.negative(unit)).all(axis=1))
        if not len(hits):
            return None
        q = int(hits[0])
        e, r = q * ctx.K + s, Fraction(g if sign[q] else -g, self.den)
        if r < 0 and self.N % 2 == 0:
            e, r = (e + self.N // 2) % self.N, -r
        return e, r

    # -- arithmetic -----------------------------------------------------------

    def _lift_vec(self, N: int) -> tuple[list[int], int]:
        """Canonical numerator vector of self inside Q(zeta_N), same denominator."""
        if N == self.N:
            return list(self.num), self.den
        if N % self.N != 0:
            raise ValueError("cannot lift Q(zeta_%d) into Q(zeta_%d)" % (self.N, N))
        if self.N == 1:  # the basis monomial 1 is coordinate 0
            return [self.num[0]] + [0] * (get_context(N).phi - 1), self.den
        # the canonical basis monomial z_small^i is z^(i scale), with i scale < N
        scale = N // self.N
        return _reduce_at(N, slice(0, len(self.num) * scale, scale), self.num), self.den

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
        x, y = _int_array([anum, bnum])
        conv = _groupring_product(x, y, N)
        return _make(N, get_context(N).reduce_groupring(conv).tolist(), aden * bden)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            fr = Fraction(other)
            if fr == 0:
                raise ZeroDivisionError
            return _make(self.N, [fr.denominator * c for c in self.num], self.den * fr.numerator)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:  # square-and-multiply never ends on one: -1 >> 1 == -1
            raise ValueError("CycNumber powers need an exponent >= 0, got %d" % k)
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
        # z^i -> z^(-i): the canonical coordinates land on the exponents -i mod N
        index = -np.arange(len(self.num)) % self.N
        return _make(self.N, _reduce_at(self.N, index, self.num), self.den)

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


def _reduce_at(N: int, index, num) -> list[int]:
    """Canonical coordinates in Q(zeta_N) of the group-ring vector that holds
    num at the distinct exponents index and 0 elsewhere."""
    num = _int_array(num)
    vec = np.zeros(N, dtype=num.dtype)
    vec[index] = num
    return get_context(N).reduce_groupring(vec).tolist()


def _int_array(rows) -> np.ndarray:
    """Python ints (a vector or a list of rows) as an exact array: int64 when numpy
    infers int64, object dtype otherwise.  Past the int64 range numpy infers
    uint64, float64 or object, and a cast from the first two could wrap or round."""
    arr = np.array(rows)
    return arr if arr.dtype == np.int64 else np.array(rows, dtype=object)


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
    """zeta_N^e as a canonical CycNumber: z^(qK + s) = y^q z^s with y = z^K, so
    row q of the rewrite table lands on the canonical indices jK + s."""
    ctx = get_context(N)
    q, s = divmod(e % N, ctx.K)
    vec = [0] * ctx.phi
    vec[s :: ctx.K] = ctx.pow_rows[q].tolist()
    return _make(N, vec, 1)


def shifted_root_sums(values, mults, m: int, backend: "Backend", den: int = 1):
    """sum_k values[k] * zeta_m^(mults[k] * d) / den for every d mod m, in the
    backend: a tuple of complex in floats, one matrix product W @ values / den.
    Exactly, the values are lifted to one integer stack in Q(zeta_N),
    N = lcm(m, every value's order), and _shifted_stack_sums shifts and reduces
    it in one batch into a CycRow."""
    ds = np.arange(m)
    if not backend.exact:
        return _float_shifted_sums(np.array(values, dtype=complex), mults, m, ds, den)
    row = _lifted_row(values, math.lcm(m, *(v.N for v in values)))
    G = np.zeros((len(row), row.N), dtype=row.coords.dtype)
    G[:, : row.coords.shape[1]] = row.coords
    return _shifted_stack_sums(G, mults, m, backend, ds, row.den * den)


def _shifted_products(a: "CycRow", b: "CycRow", mults, m: int, den: int) -> "CycRow":
    """sum_k a[k] * b[k] * zeta_m^(mults[k] * d) / den for every d mod m, exactly:
    each product is one unreduced _groupring_product of the two rows' stacks,
    and _shifted_stack_sums shifts and reduces them in one batch.  The rows
    hold values of one field Q(zeta_N)."""
    G = np.array([_groupring_product(x, y, a.N) for x, y in zip(a.coords, b.coords, strict=True)])
    return _shifted_stack_sums(G, mults, m, EXACT, np.arange(m), a.den * b.den * den)


def _lifted_row(values, N: int) -> "CycRow":
    """The values as one CycRow of Q(zeta_N): row k of its integer stack, over
    the common denominator, is values[k] in the canonical basis.  int64 when
    every entry fits, object otherwise."""
    lifted = [v._lift_vec(N) for v in values]
    den = math.lcm(*(d for _num, d in lifted))
    stack = _int_array([v if d == den else [c * (den // d) for c in v] for v, d in lifted])
    return CycRow(N, stack, den)


def _groupring_product(x: np.ndarray, y: np.ndarray, N: int) -> np.ndarray:
    """x * y in Z[C_N], unreduced: the integer convolution of two vectors of
    canonical coordinates, folded mod N.

    Every entry of the convolution, and every partial sum of it, is at most
    sum |x| * max |y|; the product runs in int64 while that bound stays under
    the guard, and in object dtype otherwise.  The bound is read in float64,
    whose rounding is far inside the factor-two headroom between the guard
    and 2**63.
    """
    dtype = object
    if x.dtype != object and y.dtype != object:
        bound = np.abs(x, dtype=np.float64).sum() * np.abs(y, dtype=np.float64).max(initial=0)
        if bound < _INT64_GUARD:
            dtype = np.int64
    conv = np.convolve(x.astype(dtype, copy=False), y.astype(dtype, copy=False))
    full = np.zeros(2 * N, dtype=dtype)  # the convolution is shorter than 2N
    full[: len(conv)] = conv
    return full[:N] + full[N:]


def _float_shifted_sums(values: np.ndarray, mults, m: int, ds: np.ndarray,
                        den: int = 1) -> tuple:
    """sum_k values[k] * zeta_m^(mults[k] * d) / den for each d in ds, in complex128."""
    W = np.exp(2j * np.pi * (np.outer(ds, mults) % m) / m)
    return tuple(complex(v) for v in W @ values / den)


def _shifted_stack_sums(G: np.ndarray, mults, m: int, backend: "Backend",
                        ds: np.ndarray, den: int = 1) -> tuple:
    """sum_k G[k] * zeta_m^(mults[k] * d) / den for each d in ds, in the backend.

    G is a (K, N) stack of unreduced integer group-ring vectors of Z[C_N],
    m | N.  Under float each row is first evaluated at z = exp(2 pi i / N).
    Exactly, zeta_m^(j d) = z^(j d N/m) rotates the (m, N/m) block view of a
    row by j*d blocks: every rotation of a row is a window of the row written
    twice, so all the sums are one stack of gathered windows and one batched
    reduction.  The stack is int64 when K rows of the largest entry of G
    pass the reduction guard, object dtype otherwise.
    """
    K, N = G.shape
    ctx = get_context(N)
    if not backend.exact:
        return _float_shifted_sums(G @ ctx.roots_complex(), mults, m, ds, den)
    if G.dtype != object and not ctx.fits_int64(
            K * max(int(G.max(initial=0)), -int(G.min(initial=0)))):
        G = G.astype(object)
    block = N // m
    # rotations[k, w] is row k rotated by -w blocks: entry i is G[k, (i + w block) mod N]
    twice = np.concatenate([G, G[:, : N - block]], axis=1)
    rotations = np.lib.stride_tricks.sliding_window_view(twice, N, axis=1)[:, ::block]
    R = np.zeros((len(ds), N), dtype=G.dtype)
    for rows, w in zip(rotations, -np.multiply.outer(mults, ds) % m):
        R += rows[w]
    return _stack_values(N, R, den)


def _stack_values(N: int, R: np.ndarray, den: int = 1) -> "CycRow":
    """R[i] / den for each row of a (K, N) stack of unreduced group-ring vectors
    of Z[C_N], as one CycRow: one batched reduction and no per-value work."""
    return CycRow(N, get_context(N).reduce_groupring(R), den)


def _times_int(coords: np.ndarray, f: int) -> np.ndarray:
    """coords * f exactly: int64 while the product passes the guard, object otherwise."""
    if f == 1:
        return coords
    if coords.dtype == object or max(int(coords.max(initial=0)),
                                     -int(coords.min(initial=0))) * abs(f) >= _INT64_GUARD:
        coords = coords.astype(object)
    return coords * f


def _scaled_row(row, r: Rational):
    """r * row[i] for every i: a CycRow's stack times r's numerator over its
    denominator times r's, a float row's entries times complex(r)."""
    if isinstance(row, CycRow):
        r = Fraction(r)
        return CycRow(row.N, _times_int(row.coords, r.numerator), row.den * r.denominator)
    c = complex(r)
    return tuple(v * c for v in row)


class CycRow:
    """A row of values of one field Q(zeta_N): entry i is row i of the read-only
    (K, phi(N)) integer stack coords over the one positive denominator den, in
    the canonical power basis (int64, or object dtype past the guard).

    The row is what a batched reduction returns.  len, indexing and iteration
    behave as a tuple of the entries; an entry is built on demand as the same
    canonical CycNumber _make gives, so nothing is paid for the entries nobody
    reads.  Equality is value equality: of two rows it is decided on the
    integers by entries_equal, and a row equals the tuple of its entries.
    """

    __slots__ = ("N", "coords", "den")

    def __init__(self, N: int, coords: np.ndarray, den: int):
        # internal: assumes canonical coordinates and den > 0
        coords.setflags(write=False)
        self.N = N
        self.coords = coords
        self.den = den

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i) -> CycNumber:
        return _make(self.N, self.coords[i].tolist(), self.den)

    def __iter__(self):
        return (_make(self.N, c, self.den) for c in self.coords.tolist())

    def entries_equal(self, other: "CycRow") -> np.ndarray:
        """The boolean array of entries i with self[i] == other[i], from one
        comparison of the stacks: canonical coordinates make a / da == b / db
        the integer equality a * (db / g) == b * (da / g), g = gcd(da, db).
        Every row of the lab is built in its construction's field, so rows of
        different fields, or lengths, raise instead of being lifted."""
        if self.N != other.N or len(self) != len(other):
            raise ValueError("rows of %d values of Q(zeta_%d) and %d of Q(zeta_%d) do not "
                             "compare" % (len(self), self.N, len(other), other.N))
        g = math.gcd(self.den, other.den)
        a = _times_int(self.coords, other.den // g)
        b = _times_int(other.coords, self.den // g)
        return (a == b).all(axis=1)

    def __eq__(self, other):
        if isinstance(other, CycRow):
            return len(self) == len(other) and bool(self.entries_equal(other).all())
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self):
        return "CycRow(%d, %r)" % (self.N, tuple(self))


def to_complex(x: Union[CycNumber, complex]) -> complex:
    if isinstance(x, CycNumber):
        return x.to_complex()
    return complex(x)


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

    def eq(self, a, b) -> bool:
        if self.exact:
            return a == b
        ca, cb = complex(a), complex(b)
        scale = max(1.0, abs(ca), abs(cb))
        return abs(ca - cb) <= self.tolerance * scale

    def eq_rows(self, a, b) -> list:
        """eq at every entry of two rows of the same length.  Exact rows are
        CycRows, compared as whole stacks (CycRow.entries_equal); float rows
        are tuples of complex, compared entry by entry within the tolerance."""
        if self.exact:
            return a.entries_equal(b).tolist()
        return [self.eq(x, y) for x, y in zip(a, b, strict=True)]

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

    def root_combination_vec(self, N: int, counts: np.ndarray) -> Scalar:
        """Same as root_combination for a dense length-N integer count vector.
        A stack of count vectors is reduced by _stack_values instead."""
        ctx = get_context(N)
        if not self.exact:
            return complex(np.dot(counts, ctx.roots_complex()))
        return _make(N, ctx.reduce_groupring(counts.astype(np.int64, copy=False)).tolist(), 1)


EXACT = Backend("exact")
FLOAT = Backend("float")


def backend_for(mode: str, tolerance: float = 1e-9) -> Backend:
    if mode == "exact":
        return EXACT
    return Backend("float", tolerance)
