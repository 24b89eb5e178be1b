"""Gauss sums, root numbers, epsilon factors, and the stability checks.

An epsilon factor here is always the monomial  value * q^{xexp*(1/2-s)}  in the
complex variable s: `value` is a ScaledScalar pinned at the central point and
`xexp` is an integer.  All identities the lab verifies are identities of such
monomials, so comparing them is two exact comparisons and never a limit.

Representations enter as block data: a block (tau, d) is the d-dimensional
twist-of-Steinberg built on the finite-order character tau, and a
representation is a product of blocks.  Epsilon factors of blocks are computed
blockwise from GL(1); the one configuration where that formula is not a
theorem (an unramified factor inside a block of size >= 2) is refused, not
guessed.

The stability theorem is checked by two engines, each with one entry point:

* stability_check(pi, chi) -- the direct engine: build both sides as monomials
  and compare; any conductor pattern, either backend.
* CertificateTable(p, a).check_pairs(pi, rows) -- the certificate engine,
  exact only: divide both sides by the invertible eps(chi)^n; each side
  collapses to a root of unity whose exponent is computed from a short sum of
  phi(p^{a(mu)}) terms, tabulated once per conductor a for every chi at once,
  making million-pair sweeps feasible.  A cell depends on chi only through
  its exponent mod p^{a//2}, so it is decided once per residue class.  Every
  value is recognized exactly: each distinct multiset of exponents is summed
  once in its own small cyclotomic field and must be +-q^{a(mu)} times a root
  of unity; anything else raises ArithmeticError and is never repaired.

The two engines are cross-checked against each other in the test suite, and
in the CLI's stability suite, where under the exact backend the certificate
engine decides every asserted pair of rank >= 2, with one table per conductor
shared by every rank, and the direct comparison re-decides a fixed stride of
them and every pair the certificate rejects.

Under the exact backend the suite makes its direct comparisons on
RootNumberForms(p, t), which reads the level table _level_forms(p, t), shared
with the Kloosterman rows and the Bessel profile: each literal Gauss sum is
recognised there once per (p, t) as a Gauss-sum form, held as its angle,
wherever it must be one -- every conductor but one, and the quadratic
character.  A pair is integer
arithmetic on angles and conductors; only the other root numbers of
conductor one that do not cancel are multiplied.  stability_key decides the in-regime cross-slice and the
out-of-regime tallies (a(chi) < a(pi), recorded, never asserted), and
gl1_verdict the rank-one lemma.  stability_check and gl1_stability_check,
which build the monomials, stay the float backend's engines and the tests'
oracles; the exact suite calls them only to report a failing row.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Optional

import numpy as np

from .characters import (
    MultChar,
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
    CycRow,
    Rational,
    ScaledScalar,
    _int_array,
    _stack_values,
    get_context,
    root_of_unity,
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


# ---------------------------------------------------------------------------
# Gauss sums as monomials
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _quadratic_gauss_sum(p: int):
    """g = sum over units x mod p of (x/p) zeta_p^x, the Gauss sum of the
    quadratic character, whose exponent is (p-1)/2 at level 1;
    g^2 = p* = (-1)^((p-1)/2) p."""
    return _gauss_sum_at_level(p, (p - 1) // 2, 1, EXACT)


def _times_g(R: np.ndarray, p: int) -> np.ndarray:
    """R g for a stack (..., N) of unreduced group-ring vectors of Z[C_N], p | N.
    g sums (-1)^d zeta_p^x over the units x = h^d mod p, h the generator, so
    R g is one signed rotation of R by x N/p per unit: p - 1 rotations, in
    object dtype where their sum could leave int64."""
    N = R.shape[-1]
    if R.dtype != object and not get_context(N).fits_int64(
            (p - 1) * int(np.abs(R).max(initial=0))):
        R = R.astype(object)
    return sum((-1) ** d * np.roll(R, int(x) * (N // p), axis=-1)
               for d, x in enumerate(unit_group(p, 1).powers))


def _gauss_form(value, p: int, a: int, A: int) -> int:
    """The angle of value = p^(a // 2) zeta_A^angle g^(a mod 2) in Z/A, for a
    value the size of a Gauss sum of conductor a: its form.

    For a >= 2, and for the quadratic character at a = 1, tau is +-p^(a/2)
    times a root of unity when a is even, and tau g is +-p^((a+1)/2) times one
    when a is odd (Berndt, Evans and Williams, Gauss and Jacobi Sums, ch. 1).
    The angle is read from value (times g when a is odd) by
    as_root_times_rational, the sign folded into it (A is even, so -1 is
    zeta_A^(A/2)), and 1 / g = g / p*; a value that is not of that shape in
    Q(zeta_A) raises ArithmeticError.  The form is canonical: |g| = sqrt p
    is no rational multiple of a root of unity."""
    if A % value.N:
        raise ArithmeticError("%r does not lie in Q(zeta_%d)" % (value, A))
    flag = a % 2
    full = value
    if flag:
        num, den = value._lift_vec(A)
        R = np.zeros((1, A), dtype=_int_array(num).dtype)
        R[0, :len(num)] = num
        full = _stack_values(A, _times_g(R, p), den)[0]
    rt = full.as_root_times_rational()
    if rt is None or abs(rt[1]) != p ** ((a + flag) // 2):
        raise ArithmeticError("%r is not p^(%d/2) times a root of unity%s"
                              % (value, a, " over g" if flag else ""))
    e, r = rt
    if flag and p % 4 == 3:
        r = -r  # value = (r / p*) zeta^e g, and here p* = -p
    return (e * (A // full.N) + (A // 2 if r < 0 else 0)) % A


def _form_product(p: int, A: int, factors) -> tuple:
    """(angle, s) of the product of the forms f^d over the factors (angle, a, d),
    f = p^(a // 2) zeta_A^angle g^(a mod 2): angles add and s = sum a d, so the
    product is p^(s // 2) zeta_A^angle g^(s mod 2), with the sign of each
    g^2 = p* folded into the angle."""
    angle, s, flags = 0, 0, 0
    for f_angle, a, d in factors:
        angle, s, flags = angle + d * f_angle, s + a * d, flags + d * (a % 2)
    if p % 4 == 3:
        angle += flags // 2 * (A // 2)
    return angle % A, s


def _form_sums(p: int, N: int, m: int, ks: np.ndarray, angles: np.ndarray, sign: int,
               s: int, den: int = 1) -> CycRow:
    """p^(s // 2) g^(s mod 2) / den * sum_i zeta_N^(angles[i] + sign ks[i] d N/m)
    for every d mod m, m | N: the length-m DFT of forms that share one power of
    p and one g-flag, as the CycRow of one (m, N) bincount of the exponents,
    one multiplication by g when s is odd, and one batched reduction."""
    ds = np.arange(m)
    exps = (angles + sign * np.multiply.outer(ds, ks) * (N // m)) % N + (ds * N)[:, None]
    R = np.bincount(exps.ravel(), minlength=m * N).reshape(m, N)
    if s % 2:
        R = _times_g(R, p)
    r = p ** (s // 2)
    if not get_context(N).fits_int64(r * int(np.abs(R).max(initial=0))):
        R = R.astype(object)
    return _stack_values(N, R * r, den)


@functools.lru_cache(maxsize=16)
def _level_forms(p: int, t: int) -> tuple:
    """(conductors, angles, atoms), indexed by the exponent k of chi_k at
    level t: the only place a Gauss sum at level t is read as a form, exactly.

    conductors[k] = a(chi_k), and tau(chi_k) = p^(a // 2) zeta_A^angles[k]
    g^(a mod 2), A = lcm(p^t, phi(p^t)) (see _gauss_form), a = 0 and angle 0
    for the trivial character.  The atoms, of conductor one and not
    quadratic, are no forms: atoms maps their k to tau(chi_k).  All three are
    read-only, since the cache hands them to every caller."""
    m = phi(p, t)
    A = math.lcm(p ** t, m)
    conductors, angles, atoms = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64), {}
    for k in range(1, m):
        c = MultChar(p, t, k)
        a = conductors[k] = c.conductor_exponent
        if a == 1 and 2 * k != m:
            atoms[k] = gauss_sum(c)
        else:
            angles[k] = _gauss_form(gauss_sum(c), p, a, A)
    for arr in (conductors, angles):
        arr.setflags(write=False)
    return conductors, angles, MappingProxyType(atoms)


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


def eps_gl1(chi: MultChar, psi_scale: Rational = 1, backend: Backend = EXACT) -> EpsMonomial:
    """Epsilon monomial of a character against psi(psi_scale * x).

    The additive twist enters through the standard axiom: rescaling psi by a
    multiplies the factor by chi(a)|a|^{s-1/2}.
    """
    out = EpsMonomial(root_number(chi, backend), chi.conductor_exponent)
    scale = Fraction(psi_scale)
    if scale != 1:
        p = chi.p
        v = valuation(p, scale)
        u = unit_part_mod(p, scale, max(chi.level, 1))
        out = EpsMonomial(out.value * ScaledScalar.of(chi.eval(u, backend)), out.xexp + v)
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


def _gl1_vclass_rep(mu: MultChar, chi: MultChar, vclass_rep: Optional[int]) -> int:
    """The unit at which the lemma reads mu(v_chi): vclass_rep, else the v_chi
    class's own rep (1 for the vacuous class).  Refuses a pair outside the
    lemma's hypothesis 2 a(mu) <= a(chi) and a rep outside the class."""
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
    return rep


def gl1_stability_check(
    mu: MultChar, chi: MultChar, backend: Backend = EXACT, vclass_rep: Optional[int] = None
) -> Gl1StabilityResult:
    """Check eps(mu*chi) = mu(v_chi) * eps(chi) at the central point.

    Requires 2 a(mu) <= a(chi) (the lemma's hypothesis); a specific unit
    representative of the v_chi class may be supplied to probe independence.
    """
    rep = _gl1_vclass_rep(mu, chi, vclass_rep)
    lhs = eps_gl1(mu.mul(chi), backend=backend).value
    rhs = ScaledScalar.of(mu.eval(rep, backend)) * eps_gl1(chi, backend=backend).value
    return Gl1StabilityResult(lhs.eq_value(rhs, chi.p, backend), lhs, rhs, rep)


# ---------------------------------------------------------------------------
# representations as block data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """The d-dimensional Steinberg-type block on tau (d = 1: just the character)."""

    tau: MultChar
    size: int = 1

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("block size must be >= 1")

    @property
    def conductor_contribution(self) -> int:
        a = self.tau.conductor_exponent
        return self.size * a if a >= 1 else self.size - 1


@dataclass(frozen=True)
class RepnData:
    """A representation given by its blocks, stored in (conductor, level, k, size) order.

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
        key = lambda b: (b.tau.conductor_exponent, b.tau.level, b.tau.k, b.size)
        return RepnData(tuple(sorted(blocks, key=key)))

    @property
    def p(self) -> int:
        return self.blocks[0].tau.p

    def central_char(self) -> MultChar:
        omega = trivial_char(self.p)
        for b in self.blocks:
            omega = omega.mul(b.tau ** b.size)
        return omega

    def describe(self) -> dict:
        return {
            "p": self.p,
            "dim": self.dim,
            "conductor": self.conductor_exponent,
            # "shift" stays in the report format; every block is unshifted
            "blocks": [
                {"tau": b.tau.to_json(), "size": b.size, "shift": "0"}
                for b in self.blocks
            ],
        }


def steinberg(tau: MultChar, size: int) -> RepnData:
    return RepnData.of(Block(tau, size))


def eps_rep_twisted(pi: RepnData, chi: MultChar, backend: Backend = EXACT) -> EpsMonomial:
    """Epsilon monomial of chi tensor pi, blockwise.

    Within a block of size d the parameter contributes the exponents
    (d-1)/2 - j, which sum to zero; when the twisted character chi tau is
    ramified the block is the clean d-th power eps(chi tau)^d.  An unramified
    twisted character inside a d >= 2 block is refused (RegimeError): the
    blockwise product is not the epsilon factor of the special representation
    there.
    """
    out = EpsMonomial(ScaledScalar.of(backend.one()), 0)
    for b in pi.blocks:
        fused = chi.mul(b.tau)
        if fused.conductor_exponent == 0 and b.size >= 2:
            raise RegimeError(
                "unramified character inside a size-%d block: blockwise epsilon "
                "is not valid there" % b.size
            )
        out = out * eps_gl1(fused, backend=backend) ** b.size
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
    first = eps_gl1(pi.central_char().mul(chi), backend=backend)
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
# out-of-regime tallies on recognised root numbers
# ---------------------------------------------------------------------------


class RootNumberForms:
    """The root numbers of the characters presented at level t, read from
    _level_forms(p, t), and the stability checks decided on them (exact
    only): the key of a pair (pi, chi) in or out of regime, and rank one.

    W(c) = c(-1) tau(c) q^{-a/2}, and c(-1) = (-1)^k for c of exponent k at
    level t.  Where tau(c) is a Gauss-sum form it is held as the table's
    angle in Z/A, its conductor fixing the rest; an atom as its exact tau.
    """

    def __init__(self, p: int, t: int):
        self.p, self.t = p, t
        self.m = phi(p, t)
        self.A = math.lcm(p ** t, self.m)
        conductors, angles, self._atoms = _level_forms(p, t)
        # as Python ints: the checks read them one pair at a time
        self.conductors, self.angles = conductors.tolist(), angles.tolist()

    def _side(self, factors) -> tuple:
        """(xexp, angle, s, atoms) of the product of the coefficients
        c(-1) tau(c) of W(c)^d over (k, d): the forms multiply to
        p^(s // 2) zeta_A^angle g^(s mod 2), each c(-1)^d = (-1)^(k d) turns
        the angle by A/2, and the atoms are counted by k."""
        xexp, parity, forms, atoms = 0, 0, [], Counter()
        for k, d in factors:
            a = self.conductors[k]
            xexp += a * d
            parity += k * d
            if k in self._atoms:
                atoms[k] += d
            else:
                forms.append((self.angles[k], a, d))
        angle, s = _form_product(self.p, self.A, forms)
        return xexp, (angle + parity % 2 * (self.A // 2)) % self.A, s, atoms

    def _atom_product(self, atoms: Counter, start):
        for k, d in atoms.items():
            start = start * self._atoms[k] ** d
        return start

    def _key(self, left, right, turn: int = 0) -> str:
        """"equal" or "unequal": the product of the W(c)^d over the factors
        (k, d) of left against that of right times zeta_A^turn.  The
        q-exponents agree whenever the xexp sums do, so the values decide.
        If the atoms of the two sides cancel, so do the powers of p and g (the
        xexp sums are equal), and the angles decide; otherwise only the
        leftover atoms are multiplied, exactly, against the rest."""
        lx, l_angle, l_s, l_atoms = self._side(left)
        rx, r_angle, r_s, r_atoms = self._side(right)
        if lx != rx:
            return "unequal"
        diff = (l_angle - r_angle - turn) % self.A
        if l_atoms == r_atoms:
            return "equal" if diff == 0 else "unequal"
        p, g = self.p, math.gcd(diff, self.A)
        root = root_of_unity(diff // g, self.A // g) * Fraction(p ** (l_s // 2), p ** (r_s // 2))
        quad = _quadratic_gauss_sum(p)
        lhs = self._atom_product(l_atoms - r_atoms, root * (quad if l_s % 2 > r_s % 2 else 1))
        rhs = self._atom_product(r_atoms - l_atoms, quad if r_s % 2 > l_s % 2 else 1)
        return "equal" if lhs == rhs else "unequal"

    def stability_key(self, pi: RepnData, chi: MultChar) -> str:
        """The key "equal", "unequal" or "incomparable": the verdict of
        eps_rep_twisted(pi, chi) against stability_rhs(pi, chi) under
        EpsMonomial.equals, "incomparable" where eps_rep_twisted refuses.

        Each block's fused character chi tau_j and omega chi are integer
        exponents at level t, and _key compares the two sides.
        """
        m = self.m
        kc = _represent_at_level(chi, self.t).k
        blocks = []  # (k of chi tau_j at level t, d_j)
        omega = 0
        for b in pi.blocks:
            kt = _represent_at_level(b.tau, self.t).k
            omega += b.size * kt
            blocks.append(((kc + kt) % m, b.size))
        if any(d >= 2 and self.conductors[k] == 0 for k, d in blocks):
            return "incomparable"
        return self._key(blocks, [((omega + kc) % m, 1), (kc, pi.dim - 1)])

    def gl1_verdict(self, mu: MultChar, chi: MultChar,
                    vclass_rep: Optional[int] = None) -> tuple[bool, int]:
        """(holds, rep): the verdict of gl1_stability_check(mu, chi, vclass_rep)
        and the unit rep of the v_chi class it reads mu at.

        With 2 a(mu) <= a(chi), mu chi has conductor a(chi), so the q-exponents
        agree, and W(mu chi) is compared with W(chi) turned by mu(rep), whose
        angle in Z/A is A/m times mu's value exponent at level t.  An atom has
        conductor one, where mu is trivial, mu chi = chi and the atoms cancel.
        """
        rep = _gl1_vclass_rep(mu, chi, vclass_rep)
        mu_t = _represent_at_level(mu, self.t)
        kc = _represent_at_level(chi, self.t).k
        turn = mu_t.value_exponent(rep) * (self.A // self.m)
        return self._key([((mu_t.k + kc) % self.m, 1)], [(kc, 1)], turn) == "equal", rep


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

    Every column check_pairs reads has 2 a(mu) <= a, and e(chi, mu) depends on
    chi only through k mod p^{a(mu)} (see exponents).  So a cell's verdict
    depends on chi only through k mod p^h, h = a // 2: the rows fall into at
    most phi(p^h) residue classes (20 classes for the 2,000 rows at p = 5,
    a = 5), row_class maps each row to its class, and columns and cells are
    computed per class.  A column is keyed by mu's exponent k at level a;
    check_pairs decides each cell on the blocks' integer exponents at level a
    and expands the classes to the requested rows once.  fallback_count
    counts the distinct multisets whose reduction the int64 guard sent to
    object dtype.
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
        # the classes of k mod p^(a // 2), each presented by its first row's k
        _, first, row_class = np.unique(
            self.row_ks % p ** (a // 2), return_index=True, return_inverse=True)
        self._class_ks = self.row_ks[first]
        self.row_class = row_class.ravel()  # the inverse's shape varies across numpy versions
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
        """e(chi, mu) for every residue class of chi (row r reads entry
        row_class[r]), for the character mu with exponent k at level a; mu must
        satisfy 2 a(mu) <= a.

        Outside that range the inner-sum factorization used below picks up
        extra mu- and chi-curvature terms, so the table refuses rather than
        returning something subtly wrong.  Columns are cached by k, so every
        presentation of one character shares one column.

        With s = a(mu), e is the exponent of tau(mu) D(chi) = +-p^s zeta_M^e,
        D(chi) = sum over units c mod p^s of chi(1 + c p^{a-s}) mu^{-1}(c).
        Each 1 + c p^{a-s} has order dividing p^s, so its discrete log is a
        multiple of M / p^s and chi's exponent in each term depends only on
        k mod p^s: one D per class.  Every D lies in Q(zeta_L),
        L = lcm(p^s, phi(p^s)), and depends only on the multiset of its
        exponents there, so each distinct multiset is summed once, in one
        batched reduction.  tau(mu) D(chi) has the form of a Gauss sum of
        conductor 2s, so _gauss_form recognises it; a value that is not
        +-p^s times a root of unity raises ArithmeticError.
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
                else np.zeros(len(self._class_ks), dtype=np.int64))
        return hit

    def _exponents_uncached(self, mu_s: MultChar, s: int) -> np.ndarray:
        p, a, M = self.p, self.a, self.M
        # the units c = g^d mod p^s in dlog order, so mu^{-1}(c) = zeta_{m_s}^{-k d}
        cs = unit_group(p, s).powers
        m_s = len(cs)
        mu_exps = -mu_s.k * np.arange(m_s) % m_s
        w_dlogs = self._ug.dlog_table()[(1 + cs * p ** (a - s)) % self.modulus]
        if (w_dlogs % (M // p ** s)).any():
            raise ArithmeticError("1 + c p^{a-s} has order above p^s")
        # exponents in zeta_M of the terms of D(chi): one row per class, cols c
        E = (self._class_ks[:, None] * w_dlogs[None, :] + (M // m_s) * mu_exps[None, :]) % M
        # 1 + c p^{a-s} has order dividing p^s and mu^{-1}(c) is an m_s-th root,
        # so every D(chi) lies in Q(zeta_L)
        L = math.lcm(p ** s, m_s)
        if M % L or (E % (M // L)).any():
            raise ArithmeticError("certificate sums leave Q(zeta_%d)" % L)
        # a class's sum depends only on its multiset of exponents: sum each
        # distinct one once
        rows, inverse = np.unique(np.sort(E // (M // L), axis=1), axis=0, return_inverse=True)
        n = len(rows)
        counts = np.bincount((np.arange(n)[:, None] * L + rows).ravel(),
                             minlength=n * L).reshape(n, L)
        if not get_context(L).fits_int64(counts.max()):
            self._fallbacks += n
        # tau(mu) D(chi) = +-p^s zeta_M^e is the form of a conductor-2s Gauss sum
        tau = gauss_sum(mu_s)
        try:
            exps = [_gauss_form(tau * d, p, 2 * s, M) for d in _stack_values(L, counts)]
        except ArithmeticError as err:
            raise ArithmeticError("certificate value is not q^{a(mu)} times a root of unity for "
                                  "mu=%r; the modulus identities are broken" % (mu_s,)) from err
        return np.array(exps, dtype=np.int64)[inverse.ravel()]

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
        conductor is at most the largest small one's; nu's class is chi's
        class shifted by tau_big.  Every column read has 2 a(mu) <= a, so the
        cell is decided once per residue class of chi and expanded to rows
        once.  The structural shortcut answers first when both sides are
        literally the same multiset.
        """
        a, M = self.a, self.M
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
        sigma_k, nu_class = omega_k, slice(None)
        if bigs:
            if len(bigs) != 1 or bigs[0][2] != 1:
                raise RegimeError("certificate engine expects at most one deep block of size 1")
            k_big, s_big, _d = bigs[0]
            if s_big >= a:
                raise RegimeError("deep block must still sit strictly below a(chi)")
            sigma_k = omega_k - k_big
            # nu = chi * tau_big: a permutation of the classes
            nu_rows = self._row_of[(self._class_ks + k_big) % M]
            if (nu_rows < 0).any():
                raise ArithmeticError("chi * tau_big left conductor %d" % a)
            nu_class = self.row_class[nu_rows]
        acc = sum(d * self.exponents(k) for k, s, d in blocks if 2 * s <= a) % M
        ok = acc == self.exponents(sigma_k)[nu_class]
        return ok[self.row_class[rows]]

    @property
    def fallback_count(self) -> int:
        return self._fallbacks


# ---------------------------------------------------------------------------
# sweep helper: enumerate block-built representations
# ---------------------------------------------------------------------------


def enumerate_reps(p: int, n_max: int, a_max: int) -> list[RepnData]:
    """All representations with dim <= n_max and conductor <= a_max whose blocks
    draw from the trivial character and every character of conductor <= a_max.
    Deterministic order.
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
