"""Bessel transforms of GL(n) representations against multiplicative shells.

The object of study is the Bessel function B_pi attached to a representation
pi (given as block data), evaluated against the test vectors

    Phi_z(x) = psi(z x) * 1_{Z_p^x}(x),        z in Q_p^x,

and characterized by a duality relation: for every character chi of the units,
the Mellin coefficient of B_pi( . ; Phi_z) against chi on the support shell
equals a GL(1) x GL(n) product of epsilon factors times the integral of
chi * Phi_z.  ``duality_check`` evaluates both sides of that relation -- the
integral as a literal finite sum, the Mellin side by orthogonality, which
leaves at most chi's own profile entry -- and is the normative oracle for
everything else here.

Two concrete expressions for B_pi( . ; Phi_z) are implemented:

* ``bessel_charsum``  - the character-sum expansion over all chi with
  conductor exponent exactly t = -v(z), with the sign (-1)^{n-1} and the
  prefactor of the lemma41 statement.  On the shell it is a length-phi(p^t)
  DFT of one fixed profile of epsilon values, so each call reads one entry of
  a memoised whole-shell row, computed once per (pi, t, backend);
* ``bessel_closedform`` - the collapsed form: an explicit constant times a
  hyper-Kloosterman sum KL_{omega^{-1}, n-1}(a(y, z); t), where omega is the
  central character of pi.

The constant in the collapsed form is exactly the sort of thing that
accumulates typos in print: three mutually inconsistent versions of its
q-power circulate under the labels ``lemma41``, ``prop42`` and ``cor13``.
The closed form takes its constant only from the report of
``measure_prefactor``, passed in by the caller, which determines it by exact
division of the character-sum values by the Kloosterman sums (and verifies on
the way that the ratio really is a constant across the whole support shell).
The report keeps the three printed exponents as ``candidates``, and
``matches`` records which of them, if any, agrees with the measured exponent.

Orientation note.  Two mutually conjugate normalizations of the GL(1) root
number circulate.  ``local_factors`` pins W(chi) = chi(-1) tau(chi) q^{-a/2},
the orientation in which the subgroup-twist identity
eps(mu chi) = mu(v_chi) eps(chi) holds literally.  The duality relation and
the Kloosterman closed form are traditionally displayed in the conjugate
orientation W(chi) = tau(chi^{-1}) q^{-a/2}.  Rather than maintain two
root-number functions, every epsilon value used inside this module is
transposed by conjugating its coefficient (exact on cyclotomic numbers,
complex conjugation in float mode).  The transposition is involutive and
module-local; nothing outside this file sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import MultChar, chars_with_conductor, represent_at_level
from .kloosterman import KLQuery, kl_direct
from .local_factors import EpsMonomial, RepnData, eps_gl1, eps_rep_twisted
from .padic import PadicNumber, psi_eval, unit_group, valuation
from .scalars import (EXACT, Backend, QExpMismatchError, ScaledScalar, proportionality_ratio,
                      shifted_root_sums)


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BesselValue:
    """One sample B(y); value is 0 with support_flag False off the support shell."""

    y: PadicNumber
    value: ScaledScalar
    support_flag: bool


@dataclass(frozen=True)
class DualityReport:
    """Both sides of the duality relation at one character, and the verdict."""

    chi: MultChar
    lhs: EpsMonomial
    rhs: EpsMonomial
    both_vanish: bool
    passed: bool


@dataclass(frozen=True)
class PrefactorReport:
    """The measured charsum/Kloosterman constant against the printed candidates.

    measured_exponent and cofactor describe the exact constant
    cofactor * q^{measured_exponent}; the candidates are the three q-exponents
    in circulation for it, and matches flags which of them (if any) agree with
    the measurement.  to_json writes every field, each rational as an int when
    it is integral and as "num/den" otherwise.
    """

    n: int
    t: int
    p: int
    measured_exponent: Fraction
    cofactor: Fraction
    candidates: dict
    matches: dict

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "p": self.p,
            "measured_exponent": _frac_json(self.measured_exponent),
            "cofactor": _frac_json(self.cofactor),
            "candidates": {name: _frac_json(e) for name, e in sorted(self.candidates.items())},
            "matches": {name: bool(self.matches[name]) for name in ("lemma41", "prop42", "cor13")},
        }


def _frac_json(fr: Fraction):
    return int(fr) if fr.denominator == 1 else str(fr)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _dual_scalar(s: ScaledScalar) -> ScaledScalar:
    """Transpose to the conjugate root-number orientation (see module docstring)."""
    return ScaledScalar(s.coeff.conjugate(), s.qexp)


@lru_cache(maxsize=64)
def _standing_assumptions(pi: RepnData, z: PadicNumber):
    """Validate the regime every transform here lives in; return (n, t, omega).

    Each rejection names the specific condition that failed.  Every public
    entry calls this once and passes the result on; the result is kept per
    (pi, z), and a rejection raises again on every call.
    """
    if z.p != pi.p:
        raise ValueError("mixed primes: pi lives over p=%d, z over p=%d" % (pi.p, z.p))
    n = pi.dim
    if n < 2:
        raise ValueError("representation must have dimension >= 2, got dim=%d" % n)
    omega = pi.central_char()
    a_pi = pi.conductor_exponent
    if a_pi <= 1:
        raise ValueError(
            "conductor exponent of the representation must exceed 1, got a(pi)=%d" % a_pi)
    if omega.conductor_exponent >= a_pi:
        raise ValueError(
            "central character conductor must sit strictly below the representation "
            "conductor: a(omega)=%d, a(pi)=%d" % (omega.conductor_exponent, a_pi))
    if z.is_zero():
        raise ValueError("test vector parameter z must be nonzero")
    t = -z.val
    if t < a_pi:
        raise ValueError(
            "test vector must be deep enough: -v(z)=%d is below a(pi)=%d" % (t, a_pi))
    return n, t, omega


def _prefactor_scalar(n: int, t: int, q: int, backend: Backend) -> ScaledScalar:
    """The constant in front of the character sum, as the lemma41 statement
    displays it: q^{t((n-1)^2-2)/2} / (1 - q^{-1}).  The duality relation
    certifies it."""
    return ScaledScalar.of(backend.rational(Fraction(q, q - 1)),
                           Fraction(t * ((n - 1) ** 2 - 2), 2))


@lru_cache(maxsize=1024)
def _dual_twisted_eps(pi: RepnData, chi: MultChar, backend: Backend) -> EpsMonomial:
    """eps*(chi x pi): the twisted epsilon monomial with its coefficient
    conjugated (the module's orientation transposition).  The profile and the
    duality check both read it here, so each (pi, chi) is evaluated once while
    a sweep over the characters of one level runs."""
    eps = eps_rep_twisted(pi, chi, backend=backend)
    return EpsMonomial(_dual_scalar(eps.value), eps.xexp)


@lru_cache(maxsize=64)
def _charsum_profile(pi: RepnData, t: int, backend: Backend) -> dict:
    """chi.k -> eps*(chi^{-1}) eps*(chi x pi) over all chi of conductor exactly t.

    eps* is the coefficient-conjugated epsilon value (the module's orientation
    transposition).  Under the standing assumptions every fused character
    chi tau_i keeps conductor t, so all values share the q-exponent
    -(n+1)t/2; _charsum_row re-checks that.  Characters of conductor below t
    contribute nothing: their full-level Gauss sums vanish for t >= 2.
    """
    coeffs = {}
    for chi in chars_with_conductor(pi.p, t):
        e1 = eps_gl1(chi.inv(), backend=backend).value
        coeffs[chi.k] = _dual_scalar(e1) * _dual_twisted_eps(pi, chi, backend).value
    return coeffs


@lru_cache(maxsize=64)
def _charsum_row(pi: RepnData, t: int, backend: Backend) -> tuple:
    """sum_{a(chi) = t} chi(u) eps*(chi^{-1}) eps*(chi x pi) for every unit u mod p^t,
    indexed by d = dlog u: the length-m DFT sum_k c_k zeta_m^{k d} of the profile.

    Every nonzero profile value must carry the same q-exponent, which the sum
    keeps; a mix raises QExpMismatchError, as the strict ScaledScalar addition
    would.  The row is one call of scalars.shifted_root_sums.
    """
    m = unit_group(pi.p, t).order
    terms = [(k, c) for k, c in _charsum_profile(pi, t, backend).items()
             if not c.is_zero_exact()]
    qexps = sorted({c.qexp for _k, c in terms})
    if len(qexps) > 1:
        raise QExpMismatchError("charsum profile mixes q-exponents %s" % qexps)
    if not terms:
        return (ScaledScalar.of(backend.zero()),) * m
    sums = shifted_root_sums([c.coeff for _k, c in terms], [k for k, _c in terms], m, backend)
    return tuple(ScaledScalar.of(v, qexps[0]) for v in sums)


def _charsum_at(pi: RepnData, n: int, t: int, u: int, backend: Backend) -> ScaledScalar:
    """pref * sum_{a(chi) = t} chi(u) eps*(chi^{-1}) eps*(chi x pi) at a unit u mod p^t."""
    du = unit_group(pi.p, t).dlog(u)
    return _prefactor_scalar(n, t, pi.p, backend) * _charsum_row(pi, t, backend)[du]


def _kl_value(omega: MultChar, n: int, a0: int, t: int, backend: Backend):
    """KL_{omega^{-1}, n-1}(a0; t), the closed form's Kloosterman factor.

    n = 2 needs the one-dimensional sum, which the Kloosterman engine does not
    define; the inversion formula that underlies its DFT engine extends to
        KL_{w,1}(v; t) = w(v) psi(v / p^t),
    and that is the convention used here.
    """
    p = omega.p
    if n == 2:
        w = omega.inv()
        return w.eval(a0, backend) * psi_eval(p, Fraction(a0, p ** t), backend)
    return kl_direct(KLQuery(omega.inv(), n - 1, t), backend)[unit_group(p, t).dlog(a0)]


# ---------------------------------------------------------------------------
# the twisted unit-circle integral
# ---------------------------------------------------------------------------


def gauss_integral(chi: MultChar, z: PadicNumber, backend: Backend = EXACT) -> ScaledScalar:
    """integral over |x| = 1 of chi(x) psi(z x) dx, with vol(Z_p^x) = 1.

    Computed as the exact average over units mod p^T, T = max(a(chi), -v(z), 1).
    The value is chi(z)^{-1} tau(chi) / phi(p^t) when a(chi) = -v(z) = t, and
    0 whenever a(chi) != max(-v(z), 0) except in the shallow corners:
    1 for unramified chi with v(z) >= 0, and -1/(q-1) at v(z) = -1.
    """
    p = chi.p
    if z.p != p:
        raise ValueError("mixed primes: chi lives over p=%d, z over p=%d" % (p, z.p))
    tz = 0 if (z.is_zero() or z.val >= 0) else -z.val
    T = max(chi.conductor_exponent, tz, 1)
    ug = unit_group(p, T)
    chi_T = represent_at_level(chi, T)
    z0 = z.unit_mod(tz) if tz else 0  # psi(z x) = zeta_{p^tz}^{z0 x}, trivial at tz = 0
    total = backend.root_sum(p ** tz, z0 * ug.powers, chi_T.group_order,
                             chi_T.k * np.arange(ug.order))
    return ScaledScalar.of(total) * ScaledScalar.of(backend.rational(Fraction(1, ug.order)))


# ---------------------------------------------------------------------------
# the two expressions for the transform
# ---------------------------------------------------------------------------


def bessel_charsum(pi: RepnData, z: PadicNumber, y: PadicNumber,
                   backend: Backend = EXACT) -> BesselValue:
    """B(y; Phi_z) as the character sum over conductor-t characters, t = -v(z).

    B(y) = pref * sum_{a(chi) = t} chi((-1)^{n-1} y z^{-1}) eps*(chi^{-1}) eps*(chi x pi)

    The value is supported on the shell v(y) = n v(z); off the shell the
    result is 0 with support_flag False.
    """
    n, t, _ = _standing_assumptions(pi, z)
    if y.p != pi.p:
        raise ValueError("mixed primes: pi lives over p=%d, y over p=%d" % (pi.p, y.p))
    if y.is_zero() or y.val != n * z.val:
        return BesselValue(y, ScaledScalar.of(backend.zero()), False)
    pm = pi.p ** t
    u = (-1) ** (n - 1) * y.unit_mod(t) * pow(z.unit_mod(t), -1, pm) % pm
    return BesselValue(y, _charsum_at(pi, n, t, u, backend), True)


def bessel_closedform(pi: RepnData, z: PadicNumber, y: PadicNumber,
                      report: PrefactorReport, backend: Backend = EXACT) -> BesselValue:
    """B(y; Phi_z) as constant * KL_{omega^{-1}, n-1}((-1)^n y z^{-1}; t).

    The constant is cofactor * q^{measured_exponent} of the PrefactorReport
    that measure_prefactor gives for (pi, z); a report measured for another
    (p, n, t) raises ValueError.
    """
    n, t, omega = _standing_assumptions(pi, z)
    if (report.p, report.n, report.t) != (pi.p, n, t):
        raise ValueError("prefactor report is for (p, n, t) = (%d, %d, %d), not (%d, %d, %d)"
                         % (report.p, report.n, report.t, pi.p, n, t))
    if y.p != pi.p:
        raise ValueError("mixed primes: pi lives over p=%d, y over p=%d" % (pi.p, y.p))
    if y.is_zero() or y.val != n * z.val:
        return BesselValue(y, ScaledScalar.of(backend.zero()), False)
    const = ScaledScalar.of(backend.rational(report.cofactor), report.measured_exponent)
    pm = pi.p ** t
    a0 = (-1) ** n * y.unit_mod(t) * pow(z.unit_mod(t), -1, pm) % pm
    return BesselValue(y, const * _kl_value(omega, n, a0, t, backend), True)


def _candidate_exponents(n: int, t: int) -> dict:
    """The three q-exponents in circulation for the closed-form constant."""
    return {
        "lemma41": Fraction(t * ((n - 1) ** 2 - 2), 2),
        "prop42": Fraction(t * (n - 4) * (n - 1), 2),
        "cor13": Fraction(t * (n - 4) * (n - 2), 2),
    }


# ---------------------------------------------------------------------------
# the duality relation (the normative oracle)
# ---------------------------------------------------------------------------


def _mellin_lhs(pi: RepnData, z: PadicNumber, chi: MultChar, n: int, t: int,
                backend: Backend) -> EpsMonomial:
    """Mellin coefficient of B( . ; Phi_z) against chi on the shell v(y) = n v(z).

    This is the literal double sum

        |y|^{s - (n-1)/2} * (1/phi(p^T)) sum_{y0} B(y0 pi^{n v(z)}) chi^{-1}(y0)

    over units y0 mod p^T, T = max(t, a(chi)), evaluated with the summation
    order exchanged.  The y0-sum of a profile character chi_k against chi is
    phi(p^T) chi_k((-1)^{n-1} z0^{-1}) if chi_k = chi and 0 otherwise
    (orthogonality).  Every profile character has conductor exactly t, so only
    a chi with a(chi) = t has a term, its own profile entry, and its phi(p^t)
    cancels the average's 1/phi(p^T); every other chi gets the exact zero.
    (n, t) come from the caller's _standing_assumptions.
    """
    if chi.conductor_exponent != t:
        return EpsMonomial(ScaledScalar.of(backend.zero()), -n * t)
    pm = pi.p ** t
    chi_t = represent_at_level(chi, t)
    sign_z0inv = (-1) ** (n - 1) * pow(z.unit_mod(t), -1, pm) % pm
    c = _charsum_profile(pi, t, backend)[chi_t.k]
    pref = _prefactor_scalar(n, t, pi.p, backend)
    # |y| = q^{nt}: |y|^{s-(n-1)/2} = q^{nt(2-n)/2} * q^{-nt(1/2-s)}
    shell = ScaledScalar.of(chi_t.eval(sign_z0inv, backend), Fraction(n * t * (2 - n), 2))
    return EpsMonomial(pref * c * shell, -n * t)


def duality_check(pi: RepnData, z: PadicNumber, chi: MultChar,
                  backend: Backend = EXACT) -> DualityReport:
    """Evaluate both sides of the duality relation at chi and compare.

    LHS: the Mellin coefficient of the character-sum transform on the shell.
    RHS: chi(-1)^{n-1} * eps*(chi x pi)|_{s -> 1-s} * gauss_integral(chi, z).

    For a(chi) != t both sides vanish (the unit-circle integral by conductor
    mismatch, the shell sum by orthogonality); the report then has
    both_vanish True and passes iff the LHS really vanished.  The RHS epsilon
    factor is only evaluated when the integral is nonzero, which keeps the
    check away from the unramified-twist regime the blockwise factor refuses.
    """
    n, t, _ = _standing_assumptions(pi, z)
    if chi.p != pi.p:
        raise ValueError("mixed primes: pi lives over p=%d, chi over p=%d" % (pi.p, chi.p))
    g = gauss_integral(chi, z, backend)
    lhs = _mellin_lhs(pi, z, chi, n, t, backend)
    if backend.is_zero(g.coeff):
        zero = EpsMonomial(ScaledScalar.of(backend.zero()), -n * t)
        return DualityReport(chi, lhs, zero, True, lhs.value.is_zero_exact())
    rhs = _dual_twisted_eps(pi, chi, backend).reflect()
    rhs = rhs.scale(g * chi.parity_sign() ** (n - 1))
    passed = lhs.equals(rhs, pi.p, backend)
    return DualityReport(chi, lhs, rhs, False, passed)


# ---------------------------------------------------------------------------
# measuring the closed-form constant
# ---------------------------------------------------------------------------


def measure_prefactor(pi: RepnData, z: PadicNumber) -> PrefactorReport:
    """Determine the constant B(y) / KL_{omega^{-1}, n-1}(a(y, z); t) exactly.

    Walks the whole support shell, divides the character-sum value by the
    Kloosterman sum in the cyclotomic field, and insists on one single ratio:
    y-independence is part of the claim being verified, not an assumption.
    Shell points where the Kloosterman sum vanishes must have vanishing
    transform too, and are excluded from the division.  The division is in the
    cyclotomic field, so the measurement is always exact.
    """
    n, t, omega = _standing_assumptions(pi, z)
    p = pi.p
    pm = p ** t
    z0inv = pow(z.unit_mod(t), -1, pm)
    ratios = set()
    for y0 in map(int, unit_group(p, t).powers):
        # y = y0 p^{n v(z)}: the charsum reads (-1)^{n-1} y0 / z0, the closed form (-1)^n y0 / z0
        u = (-1) ** (n - 1) * y0 * z0inv % pm
        value = _charsum_at(pi, n, t, u, EXACT)
        kl = _kl_value(omega, n, -u % pm, t, EXACT)
        if kl.is_zero():
            if not value.is_zero_exact():
                raise ArithmeticError(
                    "transform does not vanish at y0=%d where the Kloosterman sum does" % y0)
            continue
        r = proportionality_ratio(value.coeff, kl)
        if r is None or r == 0:
            raise ArithmeticError(
                "charsum/Kloosterman ratio at y0=%d is not a nonzero rational" % y0)
        ratios.add((r, value.qexp))
    if len(ratios) != 1:
        raise ArithmeticError(
            "charsum/Kloosterman ratio is not constant on the shell: %s" % sorted(ratios))
    (r, qexp), = ratios
    vp = valuation(p, r)
    r /= Fraction(p) ** vp
    candidates = _candidate_exponents(n, t)
    measured = qexp + vp
    return PrefactorReport(
        n=n, t=t, p=p, measured_exponent=measured, cofactor=r, candidates=candidates,
        matches={name: e == measured for name, e in candidates.items()})
