"""Gauss sums, root numbers, epsilon factors, and the stability checks.

An epsilon factor here is always the monomial  value * q^{xexp*(1/2-s)}  in the
complex variable s: `value` is a ScaledScalar pinned at the central point and
`xexp` is an integer.  All identities the lab verifies are identities of such
monomials, so comparing them is two exact comparisons and never a limit.

Representations enter as block data: a block (tau, d, shift) is the d-dimensional
twist-of-Steinberg built on the finite-order character tau times |.|^shift, and a
representation is a product of blocks.  Epsilon factors of blocks are computed
blockwise from GL(1); the one configuration where that formula is not a theorem
(an unramified factor inside a block of size >= 2) is refused, not guessed.

The stability theorem is checked by two engines, each with one entry point:

* stability_check(pi, chi) -- the direct engine: build both sides as monomials
  and compare; any conductor pattern, either backend.
* CertificateTable(p, a).check_pairs(pi, rows) -- the certificate engine,
  exact only: divide both sides by the invertible eps(chi)^n; each side
  collapses to a root of unity whose exponent is computed from a short sum of
  phi(p^{a(mu)}) terms, tabulated once per conductor a for every chi at once,
  making million-pair sweeps feasible.  Every value is recognized exactly:
  each distinct multiset of exponents is summed once in its own small
  cyclotomic field and must be +-q^{a(mu)} times a root of unity; anything
  else raises ArithmeticError and is never repaired.

The two engines are cross-checked against each other in the test suite, and
in the CLI's stability suite, where under the exact backend the certificate
engine decides every asserted pair of rank >= 2, with one table per conductor
shared by every rank, and the direct engine re-decides a fixed stride of them
and every pair the certificate rejects.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .characters import (
    MultChar,
    QuasiChar,
    as_quasi,
    chars_with_conductor,
    conductor_ks,
    represent_at_level as _represent_at_level,
    trivial_char,
    v_chi,
)
from .padic import phi, unit_group, valuation, unit_part_mod
from .scalars import (
    EXACT,
    Backend,
    Rational,
    ScaledScalar,
    get_context,
)


class RegimeError(ValueError):
    """The requested configuration is outside the regime the formulas cover."""


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def gauss_sum(chi: MultChar, backend: Backend = EXACT):
    """tau(chi) = sum over units x mod p^a of chi(x) zeta_{p^a}^x, a = a(chi) >= 1."""
    a = chi.conductor_exponent
    if a == 0:
        raise ValueError("Gauss sum needs a ramified character")
    return _gauss_sum_at_level(chi.p, _represent_at_level(chi, a).k, a, backend)


@functools.lru_cache(maxsize=8192)
def _gauss_sum_at_level(p: int, k: int, t: int, backend: Backend):
    """The sum over units x mod p^t of chi(x) zeta_{p^t}^x, for the character
    chi(g) = zeta_m^k presented at level t: keyed by the character, so every
    presentation of one character shares one entry.  The units are read as
    x = g^d in dlog order, so chi(x) = zeta_m^{k d}."""
    ug = unit_group(p, t)
    return backend.root_sum(p ** t, ug.powers, ug.order, k * np.arange(ug.order))


def root_number(chi: MultChar, backend: Backend = EXACT) -> ScaledScalar:
    """W(chi) = chi(-1) tau(chi) / q^{a/2}, the modulus-one part of the epsilon factor.

    Equivalently the Gauss sum against the conjugate additive character.  This
    orientation is the one under which the stability lemma reads
    eps(mu chi) = mu(v_chi) eps(chi) with v_chi as defined in characters.v_chi;
    the conjugate-sum convention flips that to mu^{-1}(v_chi).
    """
    a = chi.conductor_exponent
    if a == 0:
        return ScaledScalar.of(backend.one())
    val = gauss_sum(chi, backend)
    if chi.parity_sign() < 0:
        val = backend.rational(-1) * val
    return ScaledScalar.of(val, Fraction(-a, 2))


# ---------------------------------------------------------------------------
# epsilon monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsMonomial:
    """value * q^{xexp * (1/2 - s)}; value itself is a ScaledScalar (coeff * q^qexp)."""

    value: ScaledScalar
    xexp: int

    def reflect(self) -> "EpsMonomial":
        """The monomial for s -> 1-s (what the dual side of a functional equation sees)."""
        return EpsMonomial(self.value, -self.xexp)

    def __mul__(self, other: "EpsMonomial") -> "EpsMonomial":
        return EpsMonomial(self.value * other.value, self.xexp + other.xexp)

    def __pow__(self, k: int) -> "EpsMonomial":
        return EpsMonomial(self.value ** k, self.xexp * k)

    def scale(self, s: ScaledScalar) -> "EpsMonomial":
        return EpsMonomial(self.value * s, self.xexp)

    def equals(self, other: "EpsMonomial", q: int, backend: Backend = EXACT) -> bool:
        if self.value.is_zero_exact() and other.value.is_zero_exact():
            return True
        return self.xexp == other.xexp and self.value.eq_value(other.value, q, backend)


def eps_gl1(
    chi: Union[MultChar, QuasiChar],
    psi_scale: Rational = 1,
    backend: Backend = EXACT,
) -> EpsMonomial:
    """Epsilon monomial of a quasi-character against psi(psi_scale * x).

    The additive twist enters through the standard axiom: rescaling psi by a
    multiplies the factor by chi(a)|a|^{s-1/2}.
    """
    chi = as_quasi(chi)
    fin, s0 = chi.finite, chi.shift
    a = fin.conductor_exponent
    out = EpsMonomial(root_number(fin, backend).scale_q(-a * s0), a)
    scale = Fraction(psi_scale)
    if scale != 1:
        p = fin.p
        v = valuation(p, scale)
        u = unit_part_mod(p, scale, max(fin.level, 1))
        tw = ScaledScalar.of(fin.eval(u, backend), -v * s0)
        out = EpsMonomial(out.value * tw, out.xexp + v)
    return out


# ---------------------------------------------------------------------------
# GL(1) stability (the two-character lemma)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gl1StabilityResult:
    holds: bool
    lhs: ScaledScalar
    rhs: ScaledScalar
    vclass_rep: int


def gl1_stability_check(
    mu: MultChar, chi: MultChar, backend: Backend = EXACT, vclass_rep: Optional[int] = None
) -> Gl1StabilityResult:
    """Check eps(mu*chi) = mu(v_chi) * eps(chi) at the central point.

    Requires 2 a(mu) <= a(chi) (the lemma's hypothesis); a specific unit
    representative of the v_chi class may be supplied to probe independence.
    """
    a_chi = chi.conductor_exponent
    if a_chi < 1 or 2 * mu.conductor_exponent > a_chi:
        raise RegimeError(
            "stability needs 2 a(mu) <= a(chi): got a(mu)=%d, a(chi)=%d"
            % (mu.conductor_exponent, a_chi)
        )
    rc = v_chi(chi)
    rep = vclass_rep if vclass_rep is not None else (1 if rc.vacuous else rc.rep)
    if not rc.contains(rep):
        raise ValueError("representative %d is not in the v_chi class" % rep)
    lhs = eps_gl1(mu.mul(chi), backend=backend).value
    rhs = ScaledScalar.of(mu.eval(rep, backend)) * eps_gl1(chi, backend=backend).value
    return Gl1StabilityResult(lhs.eq_value(rhs, chi.p, backend), lhs, rhs, rep)


# ---------------------------------------------------------------------------
# representations as block data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """The d-dimensional Steinberg-type block on tau * |.|^shift (d = 1: just the character)."""

    tau: MultChar
    size: int = 1
    shift: Fraction = Fraction(0)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("block size must be >= 1")
        object.__setattr__(self, "shift", Fraction(self.shift))

    @property
    def conductor_contribution(self) -> int:
        a = self.tau.conductor_exponent
        return self.size * a if a >= 1 else self.size - 1


@dataclass(frozen=True)
class RepnData:
    """A representation given by its blocks, stored largest-shift-first.

    dim and conductor_exponent are read from the blocks once, at construction.
    """

    blocks: tuple[Block, ...]
    dim: int = field(init=False, repr=False, compare=False)
    conductor_exponent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", sum(b.size for b in self.blocks))
        object.__setattr__(self, "conductor_exponent",
                           sum(b.conductor_contribution for b in self.blocks))

    @staticmethod
    def of(*blocks: Block) -> "RepnData":
        if not blocks:
            raise ValueError("a representation needs at least one block")
        p = blocks[0].tau.p
        if any(b.tau.p != p for b in blocks):
            raise ValueError("mixed primes in one representation")
        key = lambda b: (-b.shift, b.tau.conductor_exponent, b.tau.level, b.tau.k, b.size)
        return RepnData(tuple(sorted(blocks, key=key)))

    @property
    def p(self) -> int:
        return self.blocks[0].tau.p

    def central_char(self) -> QuasiChar:
        fin = trivial_char(self.p)
        shift = Fraction(0)
        for b in self.blocks:
            fin = fin.mul(b.tau ** b.size)
            shift += b.size * b.shift
        return QuasiChar(fin, shift)

    def describe(self) -> dict:
        return {
            "p": self.p,
            "dim": self.dim,
            "conductor": self.conductor_exponent,
            "blocks": [
                {"tau": b.tau.to_json(), "size": b.size, "shift": str(b.shift)}
                for b in self.blocks
            ],
        }


def steinberg(tau: MultChar, size: int) -> RepnData:
    return RepnData.of(Block(tau, size))


def eps_rep_twisted(
    pi: RepnData,
    chi: Union[MultChar, QuasiChar],
    backend: Backend = EXACT,
) -> EpsMonomial:
    """Epsilon monomial of chi tensor pi, blockwise.

    Within a block of size d the parameter contributes unramified shifts
    (d-1)/2 - j; when the twisted character is ramified those cancel in the
    value and the block is a clean d-th power.  An unramified twisted character
    inside a d >= 2 block is refused (RegimeError): the blockwise product is not
    the epsilon factor of the special representation there.
    """
    chi = as_quasi(chi)
    out = EpsMonomial(ScaledScalar.of(backend.one()), 0)
    for b in pi.blocks:
        fused = chi.finite.mul(b.tau)
        if fused.conductor_exponent == 0 and b.size >= 2:
            raise RegimeError(
                "unramified character inside a size-%d block: blockwise epsilon "
                "is not valid there" % b.size
            )
        block_eps = eps_gl1(QuasiChar(fused, chi.shift + b.shift), backend=backend) ** b.size
        out = out * block_eps
    return out


# ---------------------------------------------------------------------------
# the stability theorem comparator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    holds: bool
    lhs: EpsMonomial
    rhs: EpsMonomial


def stability_rhs(pi: RepnData, chi: MultChar, backend: Backend = EXACT) -> EpsMonomial:
    """eps(omega*chi) * eps(chi)^{n-1}: the stable shape the theorem predicts."""
    omega = pi.central_char()
    first = eps_gl1(QuasiChar(omega.finite.mul(chi), omega.shift), backend=backend)
    rest = eps_gl1(chi, backend=backend) ** (pi.dim - 1)
    return first * rest


def stability_check(
    pi: RepnData,
    chi: MultChar,
    backend: Backend = EXACT,
) -> StabilityReport:
    """Does eps(chi tensor pi) collapse to eps(omega chi) eps(chi)^{n-1}?

    Hypothesis a(chi) >= max(a(pi), 1) is enforced; the verdict is computed,
    never assumed.
    """
    if chi.conductor_exponent < max(pi.conductor_exponent, 1):
        raise RegimeError(
            "stability sweep requires a(chi) >= max(a(pi), 1): got a(chi)=%d, a(pi)=%d"
            % (chi.conductor_exponent, pi.conductor_exponent)
        )
    lhs = eps_rep_twisted(pi, chi, backend=backend)
    rhs = stability_rhs(pi, chi, backend=backend)
    return StabilityReport(lhs.equals(rhs, pi.p, backend), lhs, rhs)


# ---------------------------------------------------------------------------
# certificate engine
# ---------------------------------------------------------------------------


class CertificateTable:
    """Root-of-unity exponents e(chi, mu) with tau(mu chi) conj(tau(chi))
    = q^a zeta_M^e, tabulated for every chi of conductor a at once.

    Rows are indexed by the exponent k of chi at level a.  M = phi(p^a) is the
    order of the root group of the ambient cyclotomic field, so e lives in Z/M.
    The ratio eps(mu chi)/eps(chi) of central epsilon values equals
    mu(-1) zeta_M^e; the mu(-1) parities multiply out to the same factor on
    both sides of every comparison check_pairs performs, so the checks can
    work with the exponents alone.  A column is keyed by mu's exponent k at
    level a and sums each distinct row once (see exponents); check_pairs
    decides each cell on the blocks' integer exponents at level a.
    fallback_count counts the distinct rows whose reduction the int64 guard
    sent to object dtype.
    """

    def __init__(self, p: int, a: int):
        if a < 1:
            raise ValueError("conductor must be >= 1")
        self.p = p
        self.a = a
        self.M = phi(p, a)
        self.modulus = p ** a
        self._ug = unit_group(p, a)
        self.row_ks = np.array(conductor_ks(p, a), dtype=np.int64)
        # exponent k -> row, -1 for the k of conductor below a
        self._row_of = np.full(self.M, -1, dtype=np.int64)
        self._row_of[self.row_ks] = np.arange(len(self.row_ks))
        self._mu_cache: dict[int, np.ndarray] = {}  # columns, by mu's k at level a
        self._block_ks: dict[tuple[int, int], tuple[int, int]] = {}
        self._fallbacks = 0

    # -- indexing -------------------------------------------------------------

    def index_of(self, chi: MultChar) -> int:
        """Row of a conductor-a character chi."""
        if chi.conductor_exponent != self.a or chi.p != self.p:
            raise ValueError("character does not belong to this table")
        k = _represent_at_level(chi, self.a).k
        return int(self._row_of[k % self.M])

    # -- certificates ----------------------------------------------------------

    def exponents(self, k: int) -> np.ndarray:
        """e(chi, mu) for every row chi, for the character mu with exponent k at
        level a; mu must satisfy 2 a(mu) <= a.

        Outside that range the inner-sum factorization used below picks up
        extra mu- and chi-curvature terms, so the table refuses rather than
        returning something subtly wrong.  Columns are cached by k, so every
        presentation of one character shares one column.

        With s = a(mu), e is the exponent of tau(mu) D(chi) = +-p^s zeta_M^e,
        D(chi) = sum over units c mod p^s of chi(1 + c p^{a-s}) mu^{-1}(c).
        Every D(chi) lies in Q(zeta_L), L = lcm(p^s, phi(p^s)), and depends
        on chi only through the multiset of its exponents there, so each
        distinct multiset is summed once, in one batched reduction, and
        recognised; a value that is not +-p^s times a root of unity raises
        ArithmeticError.
        """
        k %= self.M
        hit = self._mu_cache.get(k)
        if hit is None:
            mu = MultChar(self.p, self.a, k)
            s = mu.conductor_exponent
            if 2 * s > self.a:
                raise RegimeError("certificate columns need 2 a(mu) <= a")
            hit = self._mu_cache[k] = (
                self._exponents_uncached(_represent_at_level(mu, s), s) if s
                else np.zeros(len(self.row_ks), dtype=np.int64))
        return hit

    def _exponents_uncached(self, mu_s: MultChar, s: int) -> np.ndarray:
        p, a, M = self.p, self.a, self.M
        # the units c = g^d mod p^s in dlog order, so mu^{-1}(c) = zeta_{m_s}^{-k d}
        cs = unit_group(p, s).powers
        m_s = len(cs)
        mu_exps = -mu_s.k * np.arange(m_s) % m_s
        w_dlogs = self._ug.dlog_table()[(1 + cs * p ** (a - s)) % self.modulus]
        # exponents in zeta_M of the terms of D(chi): rows chi, cols c
        E = (self.row_ks[:, None] * w_dlogs[None, :] + (M // m_s) * mu_exps[None, :]) % M
        # 1 + c p^{a-s} has order dividing p^s and mu^{-1}(c) is an m_s-th root,
        # so every D(chi) lies in Q(zeta_L)
        L = math.lcm(p ** s, m_s)
        if M % L or (E % (M // L)).any():
            raise ArithmeticError("certificate sums leave Q(zeta_%d)" % L)
        # a row's sum depends only on its multiset of exponents: sum each
        # distinct one once
        rows, inverse = np.unique(np.sort(E // (M // L), axis=1), axis=0, return_inverse=True)
        n = len(rows)
        counts = np.bincount((np.arange(n)[:, None] * L + rows).ravel(),
                             minlength=n * L).reshape(n, L)
        if not get_context(L).fits_int64(counts.max()):
            self._fallbacks += n
        tau = gauss_sum(mu_s)
        exps = np.empty(n, dtype=np.int64)
        for i, d in enumerate(EXACT.root_combination_vec(L, counts)):
            full = tau * d
            rt = full.as_root_times_rational()
            if rt is None or abs(rt[1]) != p ** s:
                raise ArithmeticError(
                    "certificate value is not q^{a(mu)} times a root of unity for "
                    "mu=%r; the modulus identities are broken" % (mu_s,))
            e, r = rt
            # an odd order keeps the sign in the rational part
            exps[i] = (e * (M // full.N) + (M // 2 if r < 0 else 0)) % M
        return exps[inverse.ravel()]  # the inverse's shape varies across numpy versions

    # -- pair checking ----------------------------------------------------------

    def check_pairs(self, pi: RepnData, rows: np.ndarray) -> np.ndarray:
        """Vector of booleans: stability verdict for (pi, chi_row) over given rows.

        Each tau enters as its exponent k at level a (read once per table) and
        omega as sum d_j k_j mod M.  With every block in the lemma regime
        (2 a(tau) <= a) the claim is
          sum_j d_j e(chi, tau_j)  ==  e(chi, omega),
        every column in regime since a(omega) <= max a(tau_j).  One deep block
        of size 1 is cancelled against the omega side: with nu = chi tau_big
        the claim becomes
          sum_small d_j e(chi, tau_j)  ==  e(nu, sigma),
        sigma = omega tau_big^{-1} the product of the small blocks, whose
        conductor is at most the largest small one's; the nu rows are a
        permutation of the chi rows.  The structural shortcut answers first
        when both sides are literally the same multiset.
        """
        a, M = self.a, self.M
        if any(b.shift != 0 for b in pi.blocks):
            raise RegimeError("certificate engine handles shiftless blocks only")
        blocks = []  # (k at level a, a(tau), d)
        for b in pi.blocks:
            hit = self._block_ks.get((b.tau.level, b.tau.k))
            if hit is None:
                hit = self._block_ks[b.tau.level, b.tau.k] = (
                    _represent_at_level(b.tau, a).k, b.tau.conductor_exponent)
            blocks.append(hit + (b.size,))
        omega_k = sum(d * k for k, _s, d in blocks) % M
        # structural shortcut: if the twisted multiset {tau_i x d_i} equals the
        # stable multiset {omega, trivial x (n-1)}, both sides are literally the
        # same product of monomials
        if sorted(k for k, _s, d in blocks for _ in range(d)) == sorted(
                [omega_k] + [0] * (pi.dim - 1)):
            return np.ones(len(rows), dtype=bool)
        bigs = [blk for blk in blocks if 2 * blk[1] > a]
        sigma_k, target_rows = omega_k, rows
        if bigs:
            if len(bigs) != 1 or bigs[0][2] != 1:
                raise RegimeError("certificate engine expects at most one deep block of size 1")
            k_big, s_big, _d = bigs[0]
            if s_big >= a:
                raise RegimeError("deep block must still sit strictly below a(chi)")
            sigma_k = omega_k - k_big
            # nu = chi * tau_big: a row permutation of the table
            target_rows = self._row_of[(self.row_ks[rows] + k_big) % M]
            if (target_rows < 0).any():
                raise ArithmeticError("chi * tau_big left conductor %d" % a)
        acc = sum(d * self.exponents(k)[rows] for k, s, d in blocks if 2 * s <= a) % M
        return acc == self.exponents(sigma_k)[target_rows]

    @property
    def fallback_count(self) -> int:
        return self._fallbacks


# ---------------------------------------------------------------------------
# sweep helper: enumerate block-built representations
# ---------------------------------------------------------------------------


def enumerate_reps(p: int, n_max: int, a_max: int) -> list[RepnData]:
    """All representations with dim <= n_max and conductor <= a_max whose blocks
    draw from the trivial character and every character of conductor <= a_max,
    shifts zero.  Deterministic order.
    """
    tau_pool = [trivial_char(p)]
    for c in range(1, a_max + 1):
        tau_pool += chars_with_conductor(p, c)
    # candidate blocks, and their (size, conductor cost) read once.  The blocks
    # of one tau are contiguous, start at size 1 and grow in size and cost;
    # next_tau[i] is the index of the next tau's first block.
    blocks, next_tau = [], []
    for tau in tau_pool:
        first = len(blocks)
        for d in range(1, n_max + 1):
            b = Block(tau, d)
            if b.conductor_contribution <= a_max and d <= n_max:
                blocks.append(b)
        next_tau += [len(blocks)] * (len(blocks) - first)
    n_blocks = len(blocks)
    costs = [(b.size, b.conductor_contribution) for b in blocks]
    out = []

    # Enumerate index combinations i1 <= ... <= ir lexicographically, pruning
    # on the two monotone budgets (every block has size >= 1 and cost >= 0),
    # so the output order matches a filtered combinations_with_replacement.
    # The blocks are distinct (tau, d) pairs, so distinct index multisets give
    # distinct representations.
    def extend(bs: list, start: int, size: int, cost: int, r: int) -> None:
        if len(bs) == r:
            out.append(RepnData.of(*bs))
            return
        pad = r - len(bs) - 1  # later slots still need size >= 1 each
        i = start
        while i < n_blocks:
            d, c = costs[i]
            if size + d + pad > n_max or cost + c > a_max:
                # the rest of this tau is over budget too; a first block (size
                # 1, cost a(tau)) over budget ends the walk, since the pool is
                # ordered by conductor and every later tau costs at least as much
                if d == 1:
                    break
                i = next_tau[i]
                continue
            bs.append(blocks[i])
            extend(bs, i, size + d, cost + c, r)
            bs.pop()
            i += 1

    for r in range(1, n_max + 1):
        extend([], 0, 0, 0, r)
    return out
