"""Twisted hyper-Kloosterman sums, evaluated two independent ways.

The object is the (n-1)-fold complete exponential sum over units mod p^t

    KL_{omega,n}(y; t) = sum_{x_1, ..., x_{n-1}}
        omega(x_1) * psi((x_1 + ... + x_{n-1} + y / (x_1 ... x_{n-1})) / p^t)

with a multiplicative twist omega on the first variable and y a unit.

The row is the unit of both engines: each returns KL(y) for every unit y at
once, indexed by d = dlog y, in one batched integer pass that ends in one
batched reduction.  An exact row is a scalars.CycRow, that reduction's
output kept as one integer stack: an entry becomes a CycNumber only when it
is read, and two rows compare as whole stacks (Backend.eq_rows), so the
suite's cross-check builds no value it does not report.  A float row is a
tuple of complex.

* kl_direct -- the definition, counted in another order: for one
  (p, t, n, omega) the whole (n-1)-dimensional grid of unit tuples is
  bincounted once into integer count vectors P_v, one per inverse product
  v = (x_1 ... x_{n-1})^{-1}, of the exponents of zeta_{p^t}^{sum x} omega(x_1).
  Then KL(y) = sum_v zeta_{p^t}^{v y} P_v for every unit y: the block shift
  of the unreduced P_v with modulus p^t and multipliers v.  It uses no Gauss
  sum and no character but omega, so it shares nothing with the other engine
  past the character layer.

* kl_via_dft -- write x_n for the constrained coordinate
  y/(x_1 ... x_{n-1}); resolving the constraint x_1 ... x_n = y by
  orthogonality over the level-t character group factorizes the sum into
  full-level Gauss sums (Katz 1988), read from local_factors:

      KL_{omega,n}(y; t) = phi(p^t)^{-1} * sum_{chi at level t}
          chi^{-1}(y) * tau_t(omega chi) * tau_t(chi)^{n-1}.

  This is an inverse discrete Fourier transform over the unit-group dual,
  evaluated for every y at once.  The Gauss-sum table is built once per
  (p, t) in Q(zeta_N), z = zeta_N, N = lcm(p^t, m), m = phi(p^t).  With
  chi_k(g) = zeta_m^k and d = dlog y, chi_k^{-1}(y) = z^{-k d N/m}, and
  A_k = tau_t(omega chi_k) tau_t(chi_k)^{n-1}.

  - At t >= 2 every nonzero tau_t(chi) has conductor t, so it is a Gauss-sum
    form, p^{t/2} z^angle for even t and p^{(t-1)/2} z^angle g for odd t, g
    the quadratic Gauss sum, whose angle is read from the level table
    local_factors._level_forms(p, t), recognised once per (p, t) and shared
    with the stability checks.  Each nonzero A_k is then one rational times
    z^{angle_k}, times g when t and n are both odd, and the row is one
    bincount of the m x m exponents angle_k - k d N/m, one multiplication by
    g where it is left over, and one batched reduction.
  - At t = 1 the table lifts its values and each power tau^{n-1} once, as
    one stack each; a twist rolls the value stack, and the products A_k
    stay unreduced until one batched reduction (scalars._shifted_products).
    Float rows multiply the A_k out and hand them to
    scalars.shifted_root_sums, as Bessel's float rows do.

The two engines are cross-checked exhaustively in the test and acceptance
suites; the factorization above is treated as correct only because of that
cross-check, not by fiat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .characters import MultChar, represent_at_level
from .local_factors import _form_product, _form_sums, _gauss_sum_at_level, _level_forms
from .padic import phi, unit_group
from .scalars import (EXACT, Backend, CycRow, _lifted_row, _shifted_products,
                      _shifted_stack_sums, shifted_root_sums)


DEFAULT_BUDGET = 2_000_000  # the work budget of one case, in terms or operations


class BudgetError(RuntimeError):
    """The requested computation exceeds the configured work budget."""


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KLQuery:
    """One row of hyper-Kloosterman sums over y: twist omega, dimension n, level t."""

    omega: MultChar
    n: int
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("level t must be >= 1")
        if self.n < 2:
            raise ValueError(
                "hyper-Kloosterman sums need n >= 2 (n-1 summation variables)")
        if self.omega.conductor_exponent > self.t:
            raise ValueError(
                "twist of conductor %d does not factor through level %d"
                % (self.omega.conductor_exponent, self.t))

    @property
    def p(self) -> int:
        return self.omega.p

    def to_json(self) -> dict:
        om = represent_at_level(self.omega, self.t)
        return {"p": self.p, "t": self.t, "n": self.n,
                "omega": {"level": om.level, "k": om.k}}


def direct_term_count(query: KLQuery) -> int:
    """Grid size of the direct evaluation."""
    return phi(query.p, query.t) ** (query.n - 1)


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _direct_profile(p: int, t: int, n: int):
    """The unit grid of (x_1, ..., x_{n-1}), x_i = g^{d_i}, flattened, one
    entry per point, in powers of z = zeta_N, N = lcm(p^t, m): the exponent
    of zeta_{p^t}^{x_1 + ... + x_{n-1}}; the dlog j = -(d_1 + ... + d_{n-1})
    mod m of the inverse product (x_1 ... x_{n-1})^{-1} = g^j; and d_1 N/m,
    so that omega(x_1) = z^{k d_1 N/m} for the twist of exponent k.  Last
    come the units g^d mod p^t in dlog order.  A row only counts points, so
    grid order is free."""
    by_dlog = unit_group(p, t).powers  # g^d mod p^t
    m = len(by_dlog)
    N = math.lcm(p ** t, m)
    d = np.indices((m,) * (n - 1)).reshape(n - 1, -1)
    s_exp = by_dlog[d].sum(axis=0) % p ** t * (N // p ** t)
    inv_dlog = -d.sum(axis=0) % m
    x1_exp = d[0] * (N // m)
    for arr in (s_exp, inv_dlog, x1_exp):
        arr.setflags(write=False)
    return s_exp, inv_dlog, x1_exp, by_dlog


@lru_cache(maxsize=8)
def _direct_row(p: int, t: int, n: int, k: int, backend: Backend):
    """KL_{omega,n}(y; t) for every unit y = g^d, indexed by d, where omega has
    exponent k at level t: the grid is counted once into one vector P_j of
    exponents of z = zeta_N per inverse product v_j = g^j, and
    KL(y) = sum_j zeta_{p^t}^{v_j y} P_j is the block shift of those unreduced
    count vectors, reduced in one batch.  Only the last few rows are kept:
    bessel_closedform reads one point of a row per call."""
    m = phi(p, t)
    N = math.lcm(p ** t, m)
    s_exp, inv_dlog, x1_exp, by_dlog = _direct_profile(p, t, n)
    P = np.bincount(inv_dlog * N + (s_exp + k * x1_exp) % N, minlength=m * N)
    return _shifted_stack_sums(P.reshape(m, N), by_dlog, p ** t, backend, by_dlog)


def kl_direct(
    query: KLQuery,
    backend: Backend = EXACT,
    term_budget: Optional[int] = DEFAULT_BUDGET,
):
    """KL_{omega,n}(y; t) straight from the definition for every unit y mod p^t,
    indexed by d = dlog y, a CycRow when exact and a tuple of complex in
    floats: the whole unit grid counted once.  The budget is
    checked before the memo of the last few rows is read."""
    terms = direct_term_count(query)
    if term_budget is not None and terms > term_budget:
        raise BudgetError("direct sum has %d terms, budget is %d" % (terms, term_budget))
    k = represent_at_level(query.omega, query.t).k
    return _direct_row(query.p, query.t, query.n, k, backend)


# ---------------------------------------------------------------------------
# the Gauss-sum table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussTable:
    """All full-level Gauss sums tau_t(chi), indexed by the character exponent k,
    with the backend they were computed in.  The exact rows at t >= 2 read the
    level table of forms instead (see _form_row).  The table keeps no rows:
    kl_via_dft computes each row afresh."""

    p: int
    t: int
    values: tuple
    backend: Backend
    # exponent e -> tau_t(chi_k)^e for every k (see _power_row); t = 1 and float
    # tables only: the values (e = 1, exact) and e = n - 1 for each rank n read
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.values)


def build_gauss_table(
    p: int,
    t: int,
    backend: Backend = EXACT,
    budget: int = DEFAULT_BUDGET,
) -> GaussTable:
    """tau_t(chi) for every level-t character chi.

    Each entry is local_factors' Gauss sum at level t, the sum over units
    x mod p^t of chi(x) zeta_{p^t}^x, so the table shares one cache with the
    root numbers.  The tests compare it with that sum written out term by term.
    """
    m = phi(p, t)
    if m * m > budget:
        raise BudgetError("Gauss table needs %d operations, budget is %d" % (m * m, budget))
    return GaussTable(p, t, tuple(_gauss_sum_at_level(p, k, t, backend) for k in range(m)),
                      backend)


# ---------------------------------------------------------------------------
# factorized evaluation
# ---------------------------------------------------------------------------


def kl_via_dft(omega: MultChar, n: int, table: GaussTable):
    """KL_{omega,n}(y; t) for every unit y mod p^t, indexed by d = dlog y:
    m^{-1} sum_k zeta_m^{-k d} A_k with A_k = tau(omega chi_k) tau(chi_k)^{n-1},
    in the table's backend: a CycRow when exact, a tuple of complex in floats.

    Exactly at t >= 2, each nonzero A_k is a product of Gauss-sum forms read
    from the level table (see _form_row): one count of angles and one reduction.
    Exactly at t = 1, the A_k are the products of two stacks the table lifts
    once, its values rolled by the twist and the (n-1)-th powers, kept
    unreduced until one batched reduction (scalars._shifted_products).  In
    floats they are multiplied out and handed to shifted_root_sums.
    """
    if n < 2:
        raise ValueError("hyper-Kloosterman sums need n >= 2 (n-1 summation variables)")
    if omega.p != table.p:
        raise ValueError("twist is a character of Q_%d, table is for p=%d" % (omega.p, table.p))
    m = table.order
    k_om = represent_at_level(omega, table.t).k % m
    if table.backend.exact and table.t >= 2:
        return _form_row(k_om, n, table)
    powers = _power_row(table, n - 1)
    if table.backend.exact:
        values = _power_row(table, 1)
        shifted = CycRow(values.N, np.roll(values.coords, -k_om, axis=0), values.den)
        return _shifted_products(shifted, powers, -np.arange(m), m, m)
    products = [table.values[(k + k_om) % m] * powers[k] for k in range(m)]
    return shifted_root_sums(products, -np.arange(m), m, table.backend, den=m)


def _power_row(table: GaussTable, e: int):
    """tau_t(chi_k)^e for every k, computed once per table and exponent: one
    CycRow of Q(zeta_N), N = lcm(m, the values' orders), when exact, and a
    tuple of complex in floats."""
    row = table._powers.get(e)
    if row is None:
        values = table.values
        if table.backend.exact:
            powers = values if e == 1 else [v ** e for v in values]
            row = _lifted_row(powers, math.lcm(table.order, *(v.N for v in values)))
        else:
            row = tuple(v ** e for v in values)
        table._powers[e] = row
    return row


def _form_row(k_om: int, n: int, table: GaussTable) -> CycRow:
    """The exact kl_via_dft row at t >= 2, read from the level table
    _level_forms(p, t), not from table.values.  tau_t(chi_k) is nonzero where a(chi_k) = t, and
    there it is the form p^(t // 2) zeta_N^angle_k g^(t mod 2), so each
    nonzero A_k is r zeta_N^(angle_{k+k_om} + (n-1) angle_k + c) g^F with one
    (c, r, F) for the whole row, from the form product (c, s = t n) of its n
    factors.  With zeta_m = zeta_N^(N/m), the row's m sums
    are the rows d of one (m, N) count of the exponents
    angle(A_k) - k d N/m over the nonzero A_k, times r g^F / m: one bincount,
    one multiplication by g = sum_x (x/p) zeta_p^x when F = 1 (t and n odd),
    and one batched reduction (local_factors._form_sums)."""
    p, t, m = table.p, table.t, table.order
    N = math.lcm(p ** t, m)
    conductors, angles, _atoms = _level_forms(p, t)
    c, s = _form_product(p, N, [(0, t, n)])
    live = conductors == t
    ks = np.flatnonzero(live & np.roll(live, -k_om))
    exps = angles[(ks + k_om) % m] + (n - 1) * angles[ks] + c
    return _form_sums(p, N, m, ks, exps, -1, s, m)
