"""Twisted hyper-Kloosterman sums, evaluated two independent ways.

The object is the (n-1)-fold complete exponential sum over units mod p^t

    KL_{omega,n}(y; t) = sum_{x_1, ..., x_{n-1}}
        omega(x_1) * psi((x_1 + ... + x_{n-1} + y / (x_1 ... x_{n-1})) / p^t)

with a multiplicative twist omega on the first variable and y a unit.

Two evaluation engines that share nothing past the character layer:

* kl_direct -- the definition, vectorized: the whole (n-1)-dimensional grid of
  unit tuples is folded into one integer histogram of root-of-unity exponents
  and handed to the scalar backend in a single combination call.

* kl_row / kl_via_dft -- write x_n for the constrained coordinate
  y/(x_1 ... x_{n-1}); resolving the constraint x_1 ... x_n = y by
  orthogonality over the level-t character group factorizes the sum into
  full-level Gauss sums (Katz 1988):

      KL_{omega,n}(y; t) = phi(p^t)^{-1} * sum_{chi at level t}
          chi^{-1}(y) * tau_t(omega chi) * tau_t(chi)^{n-1}.

  This is an inverse discrete Fourier transform over the unit-group dual.  The
  Gauss-sum table is built once per (p, t) and keeps tau_t(chi)^{n-1} for
  every twist; each (omega, n) then costs m = phi(p^t) products
  A_k = tau_t(omega chi_k) tau_t(chi_k)^{n-1}.  With chi_k(g) = zeta_m^k and
  d = dlog y, chi_k^{-1}(y) = z^{-k d N/m} in Q(zeta_N), N = lcm(p^t, m), so
  the transform is a sum of cyclically shifted integer group-ring vectors,
  evaluated for every d at once (kl_row) and reduced in one batched pass;
  kl_via_dft is the same computation at a single d.

The two engines are cross-checked exhaustively in the test and acceptance
suites; the factorization above is treated as correct only because of that
cross-check, not by fiat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .characters import MultChar, represent_at_level
from .padic import unit_group
from .scalars import EXACT, Backend, Scalar, shifted_root_sums


DEFAULT_TERM_BUDGET = 2_000_000


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

    @property
    def modulus(self) -> int:
        return self.p ** self.t

    def to_json(self) -> dict:
        om = represent_at_level(self.omega, self.t)
        return {"p": self.p, "t": self.t, "n": self.n,
                "omega": {"level": om.level, "k": om.k}, "y": self.y}


def direct_term_count(query: KLQuery) -> int:
    """Grid size of the direct evaluation."""
    m = unit_group(query.p, query.t).order
    return m ** (query.n - 1)


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _direct_profile(p: int, t: int, n: int):
    """Flattened (sum, inverse-product, dlog-of-x1) profile of the unit grid."""
    ug = unit_group(p, t)
    pt = p ** t
    units = ug.units().astype(np.int64)
    dl = ug.dlog_table()[units].astype(np.int64)
    m = ug.order
    # residue -> inverse residue, as a dense lookup
    inv_lookup = np.zeros(pt, dtype=np.int64)
    exp_by_dlog = np.zeros(m, dtype=np.int64)
    exp_by_dlog[dl] = units
    inv_lookup[units] = exp_by_dlog[(-dl) % m]
    grids = np.meshgrid(*([units] * (n - 1)), indexing="ij")
    total = grids[0].astype(np.int64).copy()
    prod = grids[0].astype(np.int64).copy()
    for g in grids[1:]:
        total += g
        prod = prod * g % pt
    s_flat = (total % pt).ravel()
    invp_flat = inv_lookup[prod.ravel()]
    dlx1_flat = ug.dlog_table()[grids[0].ravel()].astype(np.int64)
    for arr in (s_flat, invp_flat, dlx1_flat):
        arr.setflags(write=False)
    return s_flat, invp_flat, dlx1_flat


def kl_direct(
    query: KLQuery,
    backend: Backend = EXACT,
    term_budget: Optional[int] = DEFAULT_TERM_BUDGET,
) -> Scalar:
    """KL_{omega,n}(y; t) straight from the definition."""
    p, t, n = query.p, query.t, query.n
    pt = query.modulus
    ug = unit_group(p, t)
    m = ug.order
    if term_budget is not None and m ** (n - 1) > term_budget:
        raise BudgetError(
            "direct sum has %d terms, budget is %d" % (m ** (n - 1), term_budget))
    s_flat, invp_flat, dlx1_flat = _direct_profile(p, t, n)
    omega_t = represent_at_level(query.omega, t)
    return backend.root_sum(pt, s_flat + query.y * invp_flat, m, omega_t.k * dlx1_flat)


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
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (omega exponent k at level t, n) -> the kl_row of that twist
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.values)

    def powers(self, e: int) -> tuple:
        """tau_t(chi_k)^e for every k, computed once per table and exponent."""
        hit = self._powers.get(e)
        if hit is None:
            hit = self._powers[e] = tuple(v ** e for v in self.values)
        return hit


def build_gauss_table(
    p: int,
    t: int,
    backend: Backend = EXACT,
    budget: int = 10 ** 7,
) -> GaussTable:
    """tau_t(chi) for every level-t character chi.

    The whole table is read off the discrete-logarithm reindexing of
    x -> psi(x / p^t) (Rader 1968): with x = g^j, tau_t(chi_k) =
    sum_j zeta_m^{kj} zeta_{p^t}^{g^j}, exact in the exact backend and an FFT
    in the float backend.  The tests compare it with the sums computed one
    character at a time.
    """
    ug = unit_group(p, t)
    m = ug.order
    if m * m > budget:
        raise BudgetError("Gauss table needs %d operations, budget is %d" % (m * m, budget))
    pt = p ** t
    powers = np.array([pow(ug.gen, j, pt) for j in range(m)], dtype=np.int64)
    if not backend.exact:
        f = np.exp(2j * np.pi * powers / pt)
        vals = tuple(complex(z) for z in np.fft.ifft(f) * m)
        return GaussTable(p, t, vals, backend)
    js = np.arange(m, dtype=np.int64)
    vals = tuple(backend.root_sum(pt, powers, m, k * js) for k in range(m))
    return GaussTable(p, t, vals, backend)


# ---------------------------------------------------------------------------
# factorized evaluation
# ---------------------------------------------------------------------------


def kl_row(omega: MultChar, n: int, table: GaussTable) -> tuple:
    """KL_{omega,n}(y; t) for every unit y mod p^t, indexed by d = dlog y:
    m^{-1} sum_k zeta_m^{-k d} A_k with A_k = tau(omega chi_k) tau(chi_k)^{n-1},
    in the table's backend.

    Always computed afresh; the row is left on the table for kl_via_dft.
    """
    if n < 2:
        raise ValueError("hyper-Kloosterman sums need n >= 2 (n-1 summation variables)")
    if omega.p != table.p:
        raise ValueError("twist is a character of Q_%d, table is for p=%d" % (omega.p, table.p))
    m = table.order
    k_om = represent_at_level(omega, table.t).k % m
    tau_n1 = table.powers(n - 1)
    A = [table.values[(k + k_om) % m] * tau_n1[k] for k in range(m)]
    row = shifted_root_sums(A, [-k for k in range(m)], m, table.backend, den=m,
                            order=table.p ** table.t)
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
