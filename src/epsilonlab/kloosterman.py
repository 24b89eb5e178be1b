"""Twisted hyper-Kloosterman sums, evaluated two independent ways.

The object is the (n-1)-fold complete exponential sum over units mod p^t

    KL_{omega,n}(y; t) = sum_{x_1, ..., x_{n-1}}
        omega(x_1) * psi((x_1 + ... + x_{n-1} + y / (x_1 ... x_{n-1})) / p^t)

with a multiplicative twist omega on the first variable and y a unit.

Both engines compute a whole row over y at once, in one batched integer pass
that ends in scalars' block shift and one batched reduction.

* kl_direct -- the definition, counted in another order: for one
  (p, t, n, omega) the whole (n-1)-dimensional grid of unit tuples is
  bincounted once into integer count vectors P_v, one per inverse product
  v = (x_1 ... x_{n-1})^{-1}, of the exponents of zeta_{p^t}^{sum x} omega(x_1).
  Then KL(y) = sum_v zeta_{p^t}^{v y} P_v for every unit y: the block shift
  of the unreduced P_v with modulus p^t and multipliers v.  It uses no Gauss
  sum and no character but omega, so it shares nothing with the other engine
  past the character layer.

* kl_row / kl_via_dft -- write x_n for the constrained coordinate
  y/(x_1 ... x_{n-1}); resolving the constraint x_1 ... x_n = y by
  orthogonality over the level-t character group factorizes the sum into
  full-level Gauss sums (Katz 1988), read from local_factors:

      KL_{omega,n}(y; t) = phi(p^t)^{-1} * sum_{chi at level t}
          chi^{-1}(y) * tau_t(omega chi) * tau_t(chi)^{n-1}.

  This is an inverse discrete Fourier transform over the unit-group dual.  The
  Gauss-sum table is built once per (p, t) and keeps tau_t(chi) and
  tau_t(chi)^{n-1} as integer stacks in Q(zeta_N), N = lcm(p^t, m),
  m = phi(p^t); the m products A_k = tau_t(omega chi_k) tau_t(chi_k)^{n-1}
  of one (omega, n) are one stacked integer convolution, folded mod N.  With
  chi_k(g) = zeta_m^k and d = dlog y, chi_k^{-1}(y) = z^{-k d N/m}, so the
  transform is the block shift of the unreduced A_k, evaluated for every d at
  once (kl_row); kl_via_dft is one entry of it.

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
from .local_factors import _gauss_sum_at_level
from .padic import phi, unit_group
from .scalars import (EXACT, Backend, Scalar, _lifted_stack, _shifted_stack_sums,
                      _stacked_products, shifted_root_sums)


DEFAULT_BUDGET = 2_000_000  # the work budget of one case, in terms or operations


class BudgetError(RuntimeError):
    """The requested computation exceeds the configured work budget."""


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KLQuery:
    """One hyper-Kloosterman evaluation: twist omega, dimension n, argument y, level t."""

    omega: MultChar
    n: int
    y: int
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
        modulus = self.p ** self.t
        if self.y % self.p == 0:
            raise ValueError("argument y must be a unit")
        object.__setattr__(self, "y", self.y % modulus)

    @property
    def p(self) -> int:
        return self.omega.p

    def to_json(self) -> dict:
        om = represent_at_level(self.omega, self.t)
        return {"p": self.p, "t": self.t, "n": self.n,
                "omega": {"level": om.level, "k": om.k}, "y": self.y}


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
def _direct_row(p: int, t: int, n: int, k: int, backend: Backend) -> tuple:
    """KL_{omega,n}(y; t) for every unit y = g^d, indexed by d, where omega has
    exponent k at level t: the grid is counted once into one vector P_j of
    exponents of z = zeta_N per inverse product v_j = g^j, and
    KL(y) = sum_j zeta_{p^t}^{v_j y} P_j is the block shift of those unreduced
    count vectors, reduced in one batch.  Only the last few rows are kept:
    callers run through every y of one twist in a row."""
    m = phi(p, t)
    N = math.lcm(p ** t, m)
    s_exp, inv_dlog, x1_exp, by_dlog = _direct_profile(p, t, n)
    P = np.bincount(inv_dlog * N + (s_exp + k * x1_exp) % N, minlength=m * N)
    return _shifted_stack_sums(P.reshape(m, N), by_dlog, p ** t, backend, by_dlog)


def kl_direct(
    query: KLQuery,
    backend: Backend = EXACT,
    term_budget: Optional[int] = DEFAULT_BUDGET,
) -> Scalar:
    """KL_{omega,n}(y; t) straight from the definition: one entry of the
    twist's direct row, which is counted over the whole unit grid once and
    kept while the next few rows are computed."""
    terms = direct_term_count(query)
    if term_budget is not None and terms > term_budget:
        raise BudgetError("direct sum has %d terms, budget is %d" % (terms, term_budget))
    p, t = query.p, query.t
    k = represent_at_level(query.omega, t).k
    return _direct_row(p, t, query.n, k, backend)[unit_group(p, t).dlog(query.y)]


# ---------------------------------------------------------------------------
# the Gauss-sum table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussTable:
    """All full-level Gauss sums tau_t(chi), indexed by the character exponent k,
    with the backend they were computed in."""

    p: int
    t: int
    values: tuple
    backend: Backend
    # exponent e -> (tau_t(chi_k)^e for every k as an integer stack in Q(zeta_N), denominator)
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (omega exponent k at level t, n) -> the kl_row of that twist
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.values)

    @property
    def _N(self) -> int:
        return math.lcm(self.p ** self.t, self.order)

    def _stack(self, e: int) -> tuple:
        """tau_t(chi_k)^e for every k, raised and lifted once per table and
        exponent to Q(zeta_N), N = lcm(p^t, m), as rows of canonical
        coordinates over one common denominator."""
        hit = self._stacks.get(e)
        if hit is None:
            hit = self._stacks[e] = _lifted_stack(
                self.values if e == 1 else [v ** e for v in self.values], self._N)
        return hit


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


def kl_row(omega: MultChar, n: int, table: GaussTable) -> tuple:
    """KL_{omega,n}(y; t) for every unit y mod p^t, indexed by d = dlog y:
    m^{-1} sum_k zeta_m^{-k d} A_k with A_k = tau(omega chi_k) tau(chi_k)^{n-1},
    in the table's backend.

    Exactly, the A_k are one stacked integer convolution of the table's
    stacks of tau and tau^{n-1}, folded mod N = lcm(p^t, m) and block-shifted
    unreduced, so the row costs one reduction.  In floats the A_k are complex
    products.  Always computed afresh; the row is left on the table for
    kl_via_dft.
    """
    if n < 2:
        raise ValueError("hyper-Kloosterman sums need n >= 2 (n-1 summation variables)")
    if omega.p != table.p:
        raise ValueError("twist is a character of Q_%d, table is for p=%d" % (omega.p, table.p))
    m = table.order
    k_om = represent_at_level(omega, table.t).k % m
    ks = np.arange(m)
    if table.backend.exact:
        (X, dx), (Y, dy) = table._stack(1), table._stack(n - 1)
        A = _stacked_products(np.roll(X, -k_om, axis=0), Y, table._N)
        row = _shifted_stack_sums(A, -ks, m, table.backend, ks, den=m * dx * dy)
    else:
        A = [table.values[(k + k_om) % m] * table.values[k] ** (n - 1) for k in range(m)]
        row = shifted_root_sums(A, -ks, m, table.backend, den=m)
    table._rows[k_om, n] = row
    return row


def kl_via_dft(query: KLQuery, table: GaussTable) -> Scalar:
    """KL_{omega,n}(y; t) through the Gauss-sum factorization: one entry of the
    twist's kl_row, which the table keeps, so every y of one (omega, n) shares it."""
    p, t = query.p, query.t
    if (table.p, table.t) != (p, t):
        raise ValueError("Gauss table is for (p,t)=(%d,%d)" % (table.p, table.t))
    k_om = represent_at_level(query.omega, t).k % table.order
    row = table._rows.get((k_om, query.n))
    if row is None:
        row = kl_row(query.omega, query.n, table)
    return row[unit_group(p, t).dlog(query.y)]
