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
  making million-pair sweeps feasible.  Every collapsed value is re-recognized
  in the cyclotomic field: recognition compares dense int64 coordinate rows,
  keyed by their bytes (a miss, or a row that only fits object dtype, falls
  back to the slow exact computation, and a genuine mismatch is reported,
  never repaired).

The two engines are cross-checked against each other in the test suite, and
in the CLI's stability suite, where under the exact backend the certificate
engine decides every asserted pair of rank >= 2, with one table per conductor
shared by every rank, and the direct engine re-decides a fixed stride of them
and every pair the certificate rejects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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
    CycNumber,
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


def gauss_sum_full_level(chi: MultChar, t: int, backend: Backend = EXACT):
    """Same sum but over units mod p^t for any t >= a(chi).

    Vanishes for a(chi) < t unless t = 1, where the trivial character gives -1.
    """
    if t < 1:
        raise ValueError("level must be >= 1")
    if chi.conductor_exponent > t:
        raise ValueError("character does not factor through level %d" % t)
    return _gauss_sum_at_level(chi.p, _represent_at_level(chi, t).k, t, backend)


@functools.lru_cache(maxsize=8192)
def _gauss_sum_at_level(p: int, k: int, t: int, backend: Backend):
    """The sum over units x mod p^t of chi(x) zeta_{p^t}^x, for the character
    chi(g) = zeta_m^k presented at level t: keyed by the character, so every
    presentation of one character shares one entry."""
    ug = unit_group(p, t)
    units = ug.units()
    return backend.root_sum(p ** t, units, ug.order, k * ug.dlog_table()[units])


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
    """A representation given by its blocks, stored largest-shift-first."""

    blocks: tuple[Block, ...]

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

    @property
    def dim(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def conductor_exponent(self) -> int:
        return sum(b.conductor_contribution for b in self.blocks)

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
    psi_scale: Rational = 1,
    backend: Backend = EXACT,
) -> EpsMonomial:
    """Epsilon monomial of chi tensor pi against psi(psi_scale * x), blockwise.

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
    scale = Fraction(psi_scale)
    if scale != 1:
        omega = pi.central_char()
        omega = QuasiChar(omega.finite.mul(chi.finite ** pi.dim),
                          omega.shift + pi.dim * chi.shift)
        p = pi.p
        v = valuation(p, scale)
        u = unit_part_mod(p, scale, max(omega.finite.level, 1))
        tw = ScaledScalar.of(omega.finite.eval(u, backend), -v * omega.shift)
        out = EpsMonomial(out.value * tw, out.xexp + pi.dim * v)
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
    work with the exponents alone.
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
        self._mu_cache: dict[tuple[int, int], np.ndarray] = {}
        self._fallbacks = 0

    # -- indexing -------------------------------------------------------------

    def index_of(self, chi: MultChar) -> int:
        """Row of a conductor-a character chi."""
        if chi.conductor_exponent != self.a or chi.p != self.p:
            raise ValueError("character does not belong to this table")
        k = _represent_at_level(chi, self.a).k
        return int(self._row_of[k % self.M])

    def chi_of_row(self, row: int) -> MultChar:
        return MultChar(self.p, self.a, int(self.row_ks[row]))

    # -- certificates ----------------------------------------------------------

    def exponents(self, mu: MultChar) -> np.ndarray:
        """e(chi, mu) for every row chi; mu must satisfy 2 a(mu) <= a.

        Outside that range the inner-sum factorization used below picks up
        extra mu- and chi-curvature terms, so the table refuses rather than
        returning something subtly wrong.
        """
        s = mu.conductor_exponent
        if 2 * s > self.a:
            raise RegimeError("certificate columns need 2 a(mu) <= a")
        if s == 0:
            return np.zeros(len(self.row_ks), dtype=np.int64)
        mu_s = _represent_at_conductor(mu)
        key = (mu_s.k, s)
        hit = self._mu_cache.get(key)
        if hit is None:
            hit = self._exponents_uncached(mu_s, s)
            self._mu_cache[key] = hit
        return hit

    def _exponents_uncached(self, mu_s: MultChar, s: int) -> np.ndarray:
        p, a, M = self.p, self.a, self.M
        # D(chi) = sum over units c mod p^s of chi(1 + c p^{a-s}) mu^{-1}(c),
        # computed for all chi simultaneously; then
        # e = exponent of  p^{a-s} tau(mu) D(chi) / q^a.
        ug_s = unit_group(p, s)
        cs = [int(c) for c in ug_s.units()]
        m_s = ug_s.order
        mu_exps = np.array([(-mu_s.value_exponent(c)) % m_s for c in cs], dtype=np.int64)
        w_dlogs = np.array(
            [self._ug.dlog((1 + c * p ** (a - s)) % self.modulus) for c in cs],
            dtype=np.int64,
        )
        # exponent matrix in zeta_M: rows chi, cols c
        E = (self.row_ks[:, None] * w_dlogs[None, :] + (M // m_s) * mu_exps[None, :]) % M
        D = _batch_root_sums(M, E)
        lookup = _collapsed_certificates(mu_s, M)
        # the bytes of an object-dtype row are pointers, so such rows are
        # never keyed: they take the slow path
        keyed = D.dtype == np.int64
        out = np.empty(len(self.row_ks), dtype=np.int64)
        for i in range(len(D)):
            e = lookup.get(D[i].tobytes()) if keyed else None
            if e is None:
                e = self._fallback_exponent(mu_s, i)
            out[i] = e
        return out

    def _fallback_exponent(self, mu: MultChar, row: int) -> int:
        """Honest slow path: build the certificate value and recognize it."""
        self._fallbacks += 1
        p, a, M = self.p, self.a, self.M
        s = mu.conductor_exponent
        chi = self.chi_of_row(row)
        mu_inv = mu.inv()
        acc = CycNumber.zero()
        for c in unit_group(p, s).units():
            c = int(c)
            acc = acc + chi.eval((1 + c * p ** (a - s)) % self.modulus) * mu_inv.eval(c)
        full = gauss_sum(mu) * acc  # = tau(mu) * D; must be (+-)p^s times a root
        rt = full.as_root_times_rational()
        if rt is None or abs(rt[1]) != p ** s:
            raise ArithmeticError(
                "certificate value is not q^{a(mu)} times a root of unity for "
                "chi=%r, mu=%r; the modulus identities are broken" % (chi, mu)
            )
        e, r = rt
        L = full.N
        if M % L:
            raise ArithmeticError("certificate root lies outside the expected field")
        e = e * (M // L) % M
        if r < 0:  # odd sub-order kept the sign in the rational part
            e = (e + M // 2) % M
        return e

    # -- pair checking ----------------------------------------------------------

    def check_pairs(self, pi: RepnData, rows: np.ndarray) -> np.ndarray:
        """Vector of booleans: stability verdict for (pi, chi_row) over given rows.

        Dispatches between the plain certificate (all ingredients small), the
        nu-reduction when one block is too deep for the lemma regime, and the
        structural shortcut when both sides are literally the same multiset.
        """
        a = self.a
        if any(b.shift != 0 for b in pi.blocks):
            raise RegimeError("certificate engine handles shiftless blocks only")
        omega = pi.central_char().finite
        taus = [(b.tau, b.size) for b in pi.blocks]
        # structural shortcut: if the twisted multiset {tau_i x d_i} equals the
        # stable multiset {omega, trivial x (n-1)}, both sides are literally the
        # same product of monomials
        lhs_multiset = sorted(_represent_at_level(t, a).k for t, d in taus for _ in range(d))
        rhs_multiset = sorted([_represent_at_level(omega, a).k] + [0] * (pi.dim - 1))
        if lhs_multiset == rhs_multiset:
            return np.ones(len(rows), dtype=bool)
        big = [t for t, d in taus if 2 * t.conductor_exponent > a]
        if not big:
            # a(omega) <= max a(tau_i) <= a/2, so every column is in regime
            acc = np.zeros(len(rows), dtype=np.int64)
            for t, d in taus:
                acc = (acc + d * self.exponents(t)[rows]) % self.M
            target = self.exponents(omega)[rows]
            return acc == target
        return self._check_pairs_nu(pi, rows)

    def _check_pairs_nu(self, pi: RepnData, rows: np.ndarray) -> np.ndarray:
        """One block sits past the lemma regime: cancel it against the omega side.

        With nu = chi tau_big, the claim is equivalent to
          sum_small d_j e(chi, tau_j)  ==  e(nu, sigma),
        sigma the product of the small blocks; every ingredient is back in the
        lemma regime, and the nu rows are a permutation of the chi rows.
        """
        p, a = self.p, self.a
        bigs = [b for b in pi.blocks if 2 * b.tau.conductor_exponent > a]
        if len(bigs) != 1 or bigs[0].size != 1:
            raise RegimeError("certificate engine expects at most one deep block of size 1")
        if bigs[0].tau.conductor_exponent >= a:
            raise RegimeError("deep block must still sit strictly below a(chi)")
        tau_big = _represent_at_level(bigs[0].tau, a)
        smalls = [(b.tau, b.size) for b in pi.blocks if 2 * b.tau.conductor_exponent <= a]
        sigma = trivial_char(p)
        for t, d in smalls:
            sigma = sigma.mul(t ** d)
        if 2 * sigma.conductor_exponent > a:
            raise RegimeError("small-product conductor left the lemma regime")
        acc = np.zeros(len(rows), dtype=np.int64)
        for t, d in smalls:
            acc = (acc + d * self.exponents(t)[rows]) % self.M
        # nu = chi * tau_big: a row permutation of the table
        target_rows = self._row_of[(self.row_ks[rows] + tau_big.k) % self.M]
        if (target_rows < 0).any():
            raise ArithmeticError("chi * tau_big left conductor %d" % a)
        target = self.exponents(sigma)[target_rows]
        return acc == (target % self.M)

    @property
    def fallback_count(self) -> int:
        return self._fallbacks


def _represent_at_conductor(mu: MultChar) -> MultChar:
    return _represent_at_level(mu, max(mu.conductor_exponent, 1))


def _batch_root_sums(M: int, E: np.ndarray) -> np.ndarray:
    """Canonical length-phi(M) coordinate rows of sum_j zeta_M^{E[i, j]}, one per row i."""
    n = E.shape[0]
    counts = np.zeros((n, M), dtype=np.int64)
    np.add.at(counts, (np.arange(n)[:, None], E), 1)
    return get_context(M).reduce_groupring(counts)


def _coordinate_key(vec) -> bytes:
    """Key of a canonical coordinate vector: the bytes of its dense int64 form."""
    return np.asarray(vec, dtype=np.int64).tobytes()


def _collapsed_certificates(mu: MultChar, M: int) -> dict:
    """Expected values of D: mu(v) tau(mu^{-1}) for units v; keys are the
    _coordinate_key of their canonical vectors in Q(zeta_M), values the
    certificate exponents e.

    e is the zeta_M-exponent of mu(v) mu(-1) (= p^{a-s} tau(mu) D / q^a when D
    collapses as predicted).
    """
    p, s = mu.p, mu.conductor_exponent
    tau_inv = gauss_sum(mu.inv())
    m_s = mu.group_order
    table: dict = {}
    minus_one = mu.value_exponent(-1 % p ** s)
    for v in unit_group(p, s).units():
        v = int(v)
        val = mu.eval(v) * tau_inv
        lifted, lden = val._lift_vec(M)
        if lden != 1:
            raise ArithmeticError("Gauss-sum values must have integral coordinates")
        table[_coordinate_key(lifted)] = (mu.value_exponent(v) + minus_one) * (M // m_s) % M
    return table


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
    seen = set()

    def emit(bs: list) -> None:
        rep = RepnData.of(*bs)
        key = tuple(sorted((b.tau.level, b.tau.k, b.size) for b in rep.blocks))
        if key not in seen:
            seen.add(key)
            out.append(rep)

    # Enumerate index combinations i1 <= ... <= ir lexicographically, pruning
    # on the two monotone budgets (every block has size >= 1 and cost >= 0),
    # so the output order matches a filtered combinations_with_replacement.
    def extend(bs: list, start: int, size: int, cost: int, r: int) -> None:
        if len(bs) == r:
            emit(bs)
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
