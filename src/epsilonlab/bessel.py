"""Bessel transforms of GL(n) representations against multiplicative shells.

The object of study is the Bessel function B_pi attached to a representation
pi (given as block data), evaluated against the test vectors

    Phi_z(x) = psi(z x) * 1_{Z_p^x}(x),        z in Q_p^x,

and characterized by a duality relation: for every character chi of the units,
the Mellin coefficient of B_pi( . ; Phi_z) against chi on the support shell
equals a GL(1) x GL(n) product of epsilon factors times the integral of
chi * Phi_z.  ``duality_check`` evaluates both sides of that relation as
literal finite sums and is the normative oracle for everything else here.

Two concrete expressions for B_pi( . ; Phi_z) are implemented:

* ``bessel_charsum``  - the character-sum expansion over all chi with
  conductor exponent exactly t = -v(z).  On the shell it is a length-phi(p^t)
  DFT of one fixed profile of epsilon values, so each call reads one entry of
  a memoised whole-shell row, computed once per (pi, t, backend);
* ``bessel_closedform`` - the collapsed form: an explicit constant times a
  hyper-Kloosterman sum KL_{omega^{-1}, n-1}(a(y, z); t), where omega is the
  central character of pi.

The constant in the collapsed form is exactly the sort of thing that
accumulates typos in print: three mutually inconsistent versions of its
q-power circulate under the labels ``lemma41``, ``prop42`` and ``cor13``.
We expose all three as presets, but the default preset ``measured`` takes the
constant from ``measure_prefactor``, which determines it by exact division of
the character-sum values by the Kloosterman sums (and verifies on the way
that the ratio really is a constant across the whole support shell).
``PrefactorReport.to_json`` records which printed candidate, if any, agrees
with the measured exponent.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .characters import MultChar, QuasiChar, as_quasi, chars_with_conductor, represent_at_level
from .kloosterman import KLQuery, kl_direct
from .local_factors import EpsMonomial, RepnData, eps_gl1, eps_rep_twisted
from .padic import PadicNumber, psi_eval, unit_group
from .scalars import (EXACT, Backend, QExpMismatchError, Rational, ScaledScalar,
                      proportionality_ratio, shifted_root_sums)

SIGN_CONVENTIONS = ("lemma41", "prop42")  # chi((-1)^{n-1} ...) vs chi((-1)^n ...)
CHARSUM_PREFACTORS = ("lemma41", "lemma41_proof")
CLOSEDFORM_PRESETS = ("lemma41", "prop42", "cor13", "measured")


# ---------------------------------------------------------------------------
# test vectors and result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Phi_z(x) = psi(z x) restricted to the unit circle |x| = 1."""

    __test__ = False  # not a pytest container, despite the name

    z: PadicNumber

    @property
    def p(self) -> int:
        return self.z.p

    @property
    def level(self) -> int:
        """-v(z) clipped at 0: the additive depth psi(z .) reaches on units."""
        if self.z.is_zero() or self.z.val >= 0:
            return 0
        return -self.z.val

    def eval(self, x: Union[PadicNumber, Rational], backend: Backend = EXACT):
        xp = x if isinstance(x, PadicNumber) else PadicNumber(self.p, Fraction(x))
        if xp.val != 0:
            return backend.zero()
        return psi_eval(self.p, self.z * xp, backend)


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
    sign_convention: str
    prefactor: str


@dataclass(frozen=True)
class PrefactorReport:
    """The measured charsum/Kloosterman constant against the printed candidates.

    measured_exponent and cofactor describe the exact constant
    cofactor * q^{measured_exponent}; the candidates are the three q-exponents
    in circulation for it, and matches flags which of them (if any) agree with
    the measurement.  The rational cofactor is kept on the dataclass but is
    deliberately absent from the JSON: the printed displays disagree already
    at the level of the q-power.
    """

    n: int
    t: int
    p: int
    measured_exponent: Fraction
    cofactor: Fraction
    candidates: dict
    matches: dict

    def to_json(self) -> dict:
        me = self.measured_exponent
        return {
            "n": self.n,
            "t": self.t,
            "p": self.p,
            "measured_exponent": int(me) if me.denominator == 1 else str(me),
            "matches": {name: bool(self.matches[name]) for name in ("lemma41", "prop42", "cor13")},
        }


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _as_z(z: Union[PadicNumber, TestFunction]) -> PadicNumber:
    if isinstance(z, TestFunction):
        return z.z
    if isinstance(z, PadicNumber):
        return z
    raise TypeError("expected a PadicNumber or TestFunction, got %r" % type(z).__name__)


def _dual_scalar(s: ScaledScalar, backend: Backend) -> ScaledScalar:
    """Transpose to the conjugate root-number orientation (see module docstring)."""
    return ScaledScalar(backend.conjugate(s.coeff), s.qexp)


def _standing_assumptions(pi: RepnData, z: PadicNumber):
    """Validate the regime every transform here lives in; return (n, t, omega).

    Each rejection names the specific condition that failed.
    """
    if z.p != pi.p:
        raise ValueError("mixed primes: pi lives over p=%d, z over p=%d" % (pi.p, z.p))
    n = pi.dim
    if n < 2:
        raise ValueError("representation must have dimension >= 2, got dim=%d" % n)
    omega = pi.central_char()
    if omega.shift != 0:
        raise ValueError(
            "central character must be of finite order: it carries the "
            "unramified shift |.|^%s" % omega.shift)
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
    return n, t, omega.finite


def _sign_unit(n: int, sign_convention: str, modulus: int) -> int:
    """(-1)^{n-1} (convention lemma41) or (-1)^n (prop42) as a unit mod p^t."""
    if sign_convention not in SIGN_CONVENTIONS:
        raise ValueError("unknown sign convention %r; pick one of %s"
                         % (sign_convention, list(SIGN_CONVENTIONS)))
    e = n - 1 if sign_convention == "lemma41" else n
    return 1 if e % 2 == 0 else modulus - 1


def _prefactor_scalar(n: int, t: int, q: int, prefactor: str, backend: Backend) -> ScaledScalar:
    """The constant in front of the character sum.

    ``lemma41`` is the displayed statement, q^{t((n-1)^2-2)/2} / (1 - q^{-1});
    it is the one the duality relation certifies.  ``lemma41_proof`` is the
    variant read off a displayed intermediate step, |z|^{(n^2+1)/2} in place of
    the statement's power; it fails the duality relation by q^{t(n+1)} and is
    kept only so that the discrepancy stays measurable.
    """
    if prefactor not in CHARSUM_PREFACTORS:
        raise ValueError("unknown charsum prefactor %r; pick one of %s"
                         % (prefactor, list(CHARSUM_PREFACTORS)))
    if prefactor == "lemma41":
        e = Fraction(t * ((n - 1) ** 2 - 2), 2)
    else:
        e = Fraction(t * (n * n + 1), 2)
    return ScaledScalar.of(backend.rational(Fraction(q, q - 1)), e)


@lru_cache(maxsize=64)
def _charsum_profile(pi: RepnData, t: int, backend: Backend) -> dict:
    """chi.k -> eps*(chi^{-1}) eps*(chi x pi) over all chi of conductor exactly t.

    eps* is the coefficient-conjugated epsilon value (the module's orientation
    transposition).  Under the standing assumptions every fused character
    chi tau_i keeps conductor t, so all values share the q-exponent
    -(n+1)t/2; _charsum_row and the strict ScaledScalar addition in
    _mellin_lhs re-check that.  Characters of conductor below t contribute
    nothing: their full-level Gauss sums vanish for t >= 2.
    """
    coeffs = {}
    for chi in chars_with_conductor(pi.p, t):
        e1 = eps_gl1(chi.inv(), backend=backend)
        e2 = eps_rep_twisted(pi, chi, backend=backend)
        coeffs[chi.k] = _dual_scalar(e1.value, backend) * _dual_scalar(e2.value, backend)
    return coeffs


@lru_cache(maxsize=64)
def _charsum_row(pi: RepnData, t: int, backend: Backend) -> tuple:
    """sum_{a(chi) = t} chi(u) eps*(chi^{-1}) eps*(chi x pi) for every unit u mod p^t,
    indexed by d = dlog u: the length-m DFT sum_k c_k zeta_m^{k d} of the profile.

    Every nonzero profile value must carry the same q-exponent, which the sum
    keeps; a mix raises QExpMismatchError, as the strict ScaledScalar addition
    would.  Exact rows come from one shifted group-ring stack and one batched
    reduction (scalars.shifted_root_sums); float rows are one matrix product.
    """
    m = unit_group(pi.p, t).order
    terms = [(k, c) for k, c in _charsum_profile(pi, t, backend).items()
             if not c.is_zero_exact()]
    qexps = sorted({c.qexp for _k, c in terms})
    if len(qexps) > 1:
        raise QExpMismatchError("charsum profile mixes q-exponents %s" % qexps)
    if not terms:
        return (ScaledScalar.of(backend.zero()),) * m
    ks = [k for k, _c in terms]
    coeffs = [c.coeff for _k, c in terms]
    if backend.exact:
        N = math.lcm(m, *(c.N for c in coeffs))
        sums = shifted_root_sums(N, coeffs, ks, m)
    else:
        ds = np.arange(m)
        W = np.exp(2j * np.pi * (np.outer(ds, ks) % m) / m)
        sums = [complex(v) for v in W @ np.array(coeffs, dtype=complex)]
    return tuple(ScaledScalar.of(v, qexps[0]) for v in sums)


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
    return kl_direct(KLQuery(omega=omega.inv(), n=n - 1, y=a0, t=t), backend)


# ---------------------------------------------------------------------------
# the twisted unit-circle integral
# ---------------------------------------------------------------------------


def gauss_integral(chi: Union[MultChar, QuasiChar], z: Union[PadicNumber, TestFunction],
                   backend: Backend = EXACT) -> ScaledScalar:
    """integral over |x| = 1 of chi(x) psi(z x) dx, with vol(Z_p^x) = 1.

    Computed as the exact average over units mod p^T, T = max(a(chi), -v(z), 1).
    The value is chi(z)^{-1} tau(chi) / phi(p^t) when a(chi) = -v(z) = t, and
    0 whenever a(chi) != max(-v(z), 0) except in the shallow corners:
    1 for unramified chi with v(z) >= 0, and -1/(q-1) at v(z) = -1.
    """
    fin = as_quasi(chi).finite  # the unramified part is invisible on units
    p = fin.p
    z = _as_z(z)
    if z.p != p:
        raise ValueError("mixed primes: chi lives over p=%d, z over p=%d" % (p, z.p))
    tz = 0 if (z.is_zero() or z.val >= 0) else -z.val
    a = fin.conductor_exponent
    T = max(a, tz, 1)
    ug = unit_group(p, T)
    units = ug.units()
    chi_T = represent_at_level(fin, T)
    z0 = z.unit_mod(tz) if tz else 0  # psi(z x) = zeta_{p^tz}^{z0 x}, trivial at tz = 0
    total = backend.root_sum(p ** tz, z0 * units, chi_T.group_order,
                             chi_T.k * ug.dlog_table()[units])
    return ScaledScalar.of(total) * ScaledScalar.of(backend.rational(Fraction(1, ug.order)))


# ---------------------------------------------------------------------------
# the two expressions for the transform
# ---------------------------------------------------------------------------


def bessel_charsum(pi: RepnData, z: Union[PadicNumber, TestFunction], y: PadicNumber,
                   sign_convention: str = "lemma41", prefactor: str = "lemma41",
                   backend: Backend = EXACT) -> BesselValue:
    """B(y; Phi_z) as the character sum over conductor-t characters, t = -v(z).

    B(y) = pref * sum_{a(chi) = t} chi(sgn * y z^{-1}) eps*(chi^{-1}) eps*(chi x pi)

    with sgn = (-1)^{n-1} under the default sign convention.  The value is
    supported on the shell v(y) = n v(z); off the shell the result is 0 with
    support_flag False.
    """
    z = _as_z(z)
    n, t, _ = _standing_assumptions(pi, z)
    if y.p != pi.p:
        raise ValueError("mixed primes: pi lives over p=%d, y over p=%d" % (pi.p, y.p))
    pref = _prefactor_scalar(n, t, pi.p, prefactor, backend)
    pm = pi.p ** t
    sgn = _sign_unit(n, sign_convention, pm)
    if y.is_zero() or y.val != n * z.val:
        return BesselValue(y, ScaledScalar.of(backend.zero()), False)
    u = sgn * y.unit_mod(t) * pow(z.unit_mod(t), -1, pm) % pm
    du = unit_group(pi.p, t).dlog(u)
    return BesselValue(y, pref * _charsum_row(pi, t, backend)[du], True)


def bessel_closedform(pi: RepnData, z: Union[PadicNumber, TestFunction], y: PadicNumber,
                      preset: str = "measured", report: Optional[PrefactorReport] = None,
                      backend: Backend = EXACT) -> BesselValue:
    """B(y; Phi_z) as constant * KL_{omega^{-1}, n-1}((-1)^n y z^{-1}; t).

    The three printed presets use (1 - q^{-1})^{-(n-1)} q^E with E the labeled
    candidate exponent; ``measured`` (the default) uses the constant from
    ``measure_prefactor`` -- pass a precomputed report to skip re-measuring.
    Only ``measured`` reproduces ``bessel_charsum``; that is the point.
    """
    if preset not in CLOSEDFORM_PRESETS:
        raise ValueError("unknown preset %r; pick one of %s" % (preset, list(CLOSEDFORM_PRESETS)))
    z = _as_z(z)
    n, t, omega = _standing_assumptions(pi, z)
    if y.p != pi.p:
        raise ValueError("mixed primes: pi lives over p=%d, y over p=%d" % (pi.p, y.p))
    if y.is_zero() or y.val != n * z.val:
        return BesselValue(y, ScaledScalar.of(backend.zero()), False)
    q = pi.p
    if preset == "measured":
        if report is None:
            report = measure_prefactor(pi, z)
        const = ScaledScalar.of(backend.rational(report.cofactor), report.measured_exponent)
    else:
        const = ScaledScalar.of(backend.rational(Fraction(q, q - 1) ** (n - 1)),
                                _candidate_exponents(n, t)[preset])
    pm = q ** t
    a0 = _sign_unit(n + 1, "lemma41", pm) * y.unit_mod(t) * pow(z.unit_mod(t), -1, pm) % pm
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


def _mellin_lhs(pi: RepnData, z: PadicNumber, chi: MultChar, sign_convention: str,
                prefactor: str, backend: Backend):
    """Mellin coefficient of B( . ; Phi_z) against chi on the shell v(y) = n v(z).

    This is the literal double sum

        |y|^{s - (n-1)/2} * (1/phi(p^T)) sum_{y0} B(y0 pi^{n v(z)}) chi^{-1}(y0)

    with the summation order exchanged: for each character in the charsum
    profile the y0-sum is a pure root-of-unity combination; all of them are
    counted in one histogram and reduced by the backend in one batched pass.
    T = max(t, a(chi)) so that the shell parametrization resolves chi.
    Returns (monomial, float_scale); float_scale is the natural magnitude of
    the sum, used by the float backend to decide vanishing.
    """
    n, t, _ = _standing_assumptions(pi, z)
    p = pi.p
    pm = p ** t
    T2 = max(t, chi.conductor_exponent)
    ug_t, ug2 = unit_group(p, t), unit_group(p, T2)
    m, m2 = ug_t.order, ug2.order
    k2 = represent_at_level(chi, T2).k
    d_s = ug_t.dlog(_sign_unit(n, sign_convention, pm) * pow(z.unit_mod(t), -1, pm) % pm)
    units2 = ug2.units()
    dl_t = ug_t.dlog_table()[units2 % pm]  # y0 class at level t (drives B)
    j2 = ug2.dlog_table()[units2]          # y0 class at level T2 (drives chi)
    profile = _charsum_profile(pi, t, backend)
    ks = np.fromiter(profile, dtype=np.int64, count=len(profile))
    # row i holds the zeta_{m2}-exponents of the i-th y0-sum, offset by i * m2
    # so that one bincount histograms every row
    E = ((ks[:, None] * (d_s + dl_t)) % m * (m2 // m) - k2 * j2) % m2
    E += m2 * np.arange(len(ks))[:, None]
    counts = np.bincount(E.ravel(), minlength=len(ks) * m2).reshape(len(ks), m2)
    acc = ScaledScalar.of(backend.zero())
    for c, inner in zip(profile.values(), backend.root_combination_vec(m2, counts)):
        if backend.exact and inner.is_zero():
            continue
        acc = acc + c * inner
    pref = _prefactor_scalar(n, t, p, prefactor, backend)
    # |y| = q^{nt}: |y|^{s-(n-1)/2} = q^{nt(2-n)/2} * q^{-nt(1/2-s)}
    shell = ScaledScalar.of(backend.rational(Fraction(1, m2)), Fraction(n * t * (2 - n), 2))
    mon = EpsMonomial(pref * acc * shell, -n * t)
    if backend.exact:
        scale = 1.0
    else:
        scale = max(1.0, sum(abs(complex(c.coeff)) for c in profile.values()))
    return mon, scale


def duality_check(pi: RepnData, z: Union[PadicNumber, TestFunction], chi: MultChar,
                  sign_convention: str = "lemma41", prefactor: str = "lemma41",
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
    z = _as_z(z)
    n, t, _ = _standing_assumptions(pi, z)
    if chi.p != pi.p:
        raise ValueError("mixed primes: pi lives over p=%d, chi over p=%d" % (pi.p, chi.p))
    g = gauss_integral(chi, z, backend)
    lhs, scale = _mellin_lhs(pi, z, chi, sign_convention, prefactor, backend)
    g_zero = g.is_zero_exact() if backend.exact else abs(complex(g.coeff)) <= backend.tolerance
    if g_zero:
        if backend.exact:
            passed = lhs.value.is_zero_exact()
        else:
            passed = abs(complex(lhs.value.coeff)) <= backend.tolerance * scale
        zero = EpsMonomial(ScaledScalar.of(backend.zero()), -n * t)
        return DualityReport(chi, lhs, zero, True, passed, sign_convention, prefactor)
    eps = eps_rep_twisted(pi, chi, backend=backend)
    rhs = EpsMonomial(_dual_scalar(eps.value, backend), eps.xexp).reflect()
    rhs = rhs.scale(g * chi.parity_sign() ** (n - 1))
    passed = lhs.equals(rhs, pi.p, backend)
    return DualityReport(chi, lhs, rhs, False, passed, sign_convention, prefactor)


# ---------------------------------------------------------------------------
# measuring the closed-form constant
# ---------------------------------------------------------------------------


def measure_prefactor(pi: RepnData, z: Union[PadicNumber, TestFunction],
                      sign_convention: str = "lemma41", prefactor: str = "lemma41",
                      backend: Backend = EXACT) -> PrefactorReport:
    """Determine the constant B(y) / KL_{omega^{-1}, n-1}(a(y, z); t) exactly.

    Walks the whole support shell, divides the character-sum value by the
    Kloosterman sum in the cyclotomic field, and insists on one single ratio:
    y-independence is part of the claim being verified, not an assumption.
    Shell points where the Kloosterman sum vanishes must have vanishing
    transform too, and are excluded from the division.
    """
    if not backend.exact:
        raise ValueError("prefactor measurement divides in the cyclotomic field; "
                         "use the exact backend")
    z = _as_z(z)
    n, t, omega = _standing_assumptions(pi, z)
    p = pi.p
    pm = p ** t
    z0inv = pow(z.unit_mod(t), -1, pm)
    sgn = _sign_unit(n + 1, "lemma41", pm)  # (-1)^n: the closed form's argument
    ratios = set()
    for y0 in map(int, unit_group(p, t).units()):
        y = PadicNumber(p, Fraction(y0) * Fraction(p) ** (n * z.val))
        value = bessel_charsum(pi, z, y, sign_convention, prefactor, backend).value
        kl = _kl_value(omega, n, sgn * y0 * z0inv % pm, t, backend)
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
    vp = 0
    while r.numerator % p == 0:
        r, vp = r / p, vp + 1
    while r.denominator % p == 0:
        r, vp = r * p, vp - 1
    candidates = _candidate_exponents(n, t)
    measured = qexp + vp
    return PrefactorReport(
        n=n, t=t, p=p, measured_exponent=measured, cofactor=r, candidates=candidates,
        matches={name: e == measured for name, e in candidates.items()})
