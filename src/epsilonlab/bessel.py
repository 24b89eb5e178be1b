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

B_pi( . ; Phi_z) vanishes off the support shell v(y) = n v(z), and the row
is the unit of both of its concrete expressions: each returns (row, qexp),
B(y) = row[d] q^qexp at every y = y0 p^{n v(z)}, y0 = g^d, indexed by d as
the Kloosterman rows are, a CycRow when exact and a tuple of complex in floats.

* ``bessel_charsum``  - the character-sum expansion over all chi with
  conductor exponent exactly t = -v(z), with the sign (-1)^{n-1} and the
  prefactor of the lemma41 statement.  On the shell it is a length-phi(p^t)
  DFT of one fixed profile of epsilon values, a row memoised once per
  (pi, t, backend) and read along the shell by one roll;
* ``bessel_closedform`` - the collapsed form: an explicit constant times a
  hyper-Kloosterman sum KL_{omega^{-1}, n-1}(a(y, z); t), where omega is the
  central character of pi: one kl_direct row at n >= 3, rolled the same way.

Each profile entry eps*(chi^{-1}) eps*(chi x pi) is a product of n + 1 Gauss
sums of conductor t >= 2, so the exact backend holds the profile as Gauss-sum
forms (local_factors._level_forms): an angle per character and one power of
p and g-flag for all.  Its row is then one count of angles, and the duality
check compares forms, the integral recognised as one from its literal sum.
The float backend multiplies every value out.

The constant in the collapsed form is exactly the sort of thing that
accumulates typos in print: three mutually inconsistent versions of its
q-power circulate under the labels ``lemma41``, ``prop42`` and ``cor13``.
The closed form takes its constant only from the report of
``measure_prefactor``, passed in by the caller, which determines it as the
one rational ratio of the character-sum row to the Kloosterman row, decided
on their integer stacks (and so verifies that the ratio really is a constant
across the whole support shell).
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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .characters import MultChar, chars_with_conductor, represent_at_level
from .kloosterman import KLQuery, kl_direct
from .local_factors import (EpsMonomial, RepnData, _form_product, _form_sums, _gauss_form,
                            _level_forms, eps_gl1, eps_rep_twisted)
from .padic import PadicNumber, phi, unit_group, valuation
from .scalars import (EXACT, Backend, CycRow, QExpMismatchError, ScaledScalar, _scaled_row,
                      _stack_values, get_context, shifted_root_sums)


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualityReport:
    """The duality verdict at one character; its sides are built on first read."""

    chi: MultChar
    both_vanish: bool
    passed: bool
    _lhs: Callable[[], EpsMonomial] = field(repr=False, compare=False)
    _rhs: Callable[[], EpsMonomial] = field(repr=False, compare=False)

    @cached_property
    def lhs(self) -> EpsMonomial:
        return self._lhs()

    @cached_property
    def rhs(self) -> EpsMonomial:
        return self._rhs()


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
                           _candidate_exponents(n, t)["lemma41"])


@lru_cache(maxsize=1024)
def _dual_twisted_eps(pi: RepnData, chi: MultChar, backend: Backend) -> EpsMonomial:
    """eps*(chi x pi): the twisted epsilon monomial with its coefficient
    conjugated (the module's orientation transposition).  The multiplied-out
    profile entries and the duality check's right-hand side both read it here,
    so each (pi, chi) is evaluated once while a sweep over the characters of
    one level runs."""
    eps = eps_rep_twisted(pi, chi, backend=backend)
    return EpsMonomial(_dual_scalar(eps.value), eps.xexp)


def _profile_entry(pi: RepnData, chi: MultChar, backend: Backend) -> ScaledScalar:
    """eps*(chi^{-1}) eps*(chi x pi), multiplied out from the epsilon factors."""
    e1 = eps_gl1(chi.inv(), backend=backend).value
    return _dual_scalar(e1) * _dual_twisted_eps(pi, chi, backend).value


@lru_cache(maxsize=64)
def _charsum_profile(pi: RepnData, t: int, backend: Backend):
    """eps*(chi^{-1}) eps*(chi x pi) over all chi of conductor exactly t; those
    below t contribute nothing, their full-level Gauss sums vanish for t >= 2.

    In floats: a dict chi.k -> value.  Exactly: (live, angles, s) over the
    exponents k at level t.  As conj(c(-1) tau(c)) = tau(c^{-1}), entry k is
    tau(chi_k) prod_j tau((chi_k tau_j)^{-1})^{d_j} q^{-s/2}, s = (n + 1) t,
    a product of forms from _level_forms(p, t): p^(s // 2) zeta_A^angles[k]
    g^(s mod 2) q^{-s/2}, A = lcm(p^t, phi(p^t)), where live[k], a(chi_k) = t.
    A fused chi_k tau_j below conductor t, which the standing assumptions
    exclude, would mix q-exponents and raises QExpMismatchError.
    """
    if not backend.exact:
        return {chi.k: _profile_entry(pi, chi, backend) for chi in chars_with_conductor(pi.p, t)}
    p = pi.p
    conductors, angles, _atoms = _level_forms(p, t)
    m = len(conductors)
    live = conductors == t
    total = angles.copy()  # tau(chi_k), times the blocks' tau((chi_k tau_j)^{-1})^{d_j}
    for b in pi.blocks:
        inv = (-np.arange(m) - represent_at_level(b.tau, t).k) % m
        if (conductors[inv][live] != t).any():
            raise QExpMismatchError("charsum profile mixes q-exponents: a fused character "
                                    "has conductor below %d" % t)
        total += b.size * angles[inv]
    A = math.lcm(p ** t, m)
    c, s = _form_product(p, A, [(0, t, pi.dim + 1)])
    total = (total + c) % A
    for arr in (live, total):
        arr.setflags(write=False)
    return live, total, s


@lru_cache(maxsize=64)
def _charsum_row(pi: RepnData, t: int, backend: Backend) -> tuple:
    """(row, qexp): sum_{a(chi) = t} chi(u) eps*(chi^{-1}) eps*(chi x pi) is
    row[d] q^qexp at each unit u mod p^t, d = dlog u: the length-m DFT
    sum_k c_k zeta_m^{k d} of the profile.

    Exactly, a CycRow of Q(zeta_A) whose entries are built when read: one
    bincount of the exponents angles[k] + k d A/m over the live k, times g
    where the flag is left over, and one batched reduction
    (local_factors._form_sums).  In floats, a tuple of complex from
    shifted_root_sums; a profile that mixes q-exponents raises
    QExpMismatchError, as the strict ScaledScalar addition would.
    """
    p, m = pi.p, unit_group(pi.p, t).order
    if backend.exact:
        live, angles, s = _charsum_profile(pi, t, backend)
        ks = np.flatnonzero(live)
        return _form_sums(p, math.lcm(p ** t, m), m, ks, angles[ks], 1, s), Fraction(-s, 2)
    terms = [(k, c) for k, c in _charsum_profile(pi, t, backend).items()
             if not c.is_zero_exact()]
    qexps = sorted({c.qexp for _k, c in terms})
    if len(qexps) > 1:
        raise QExpMismatchError("charsum profile mixes q-exponents %s" % qexps)
    if not terms:
        return (backend.zero(),) * m, Fraction(0)
    sums = shifted_root_sums([c.coeff for _k, c in terms], [k for k, _c in terms], m, backend)
    return sums, qexps[0]


def _shell_unit(z: PadicNumber, n: int, t: int) -> int:
    """(-1)^{n-1} z0^{-1} mod p^t, z = z0 p^{-t}: the character sum at
    y = y0 p^{n v(z)} reads its characters at y0 times this unit."""
    pm = z.p ** t
    return (-1) ** (n - 1) * pow(z.unit_mod(t), -1, pm) % pm


def _on_shell(row, shift: int, r: Fraction):
    """r * row[(d + shift) mod m] for every d: a row over the units u = g^j
    read along the shell, at u = y0 g^shift for y0 = g^d."""
    if isinstance(row, CycRow):
        row = CycRow(row.N, np.roll(row.coords, -shift, axis=0), row.den)
    else:
        row = row[shift:] + row[:shift]
    return _scaled_row(row, r)


def _kl1_row(w: MultChar, t: int, backend: Backend):
    """KL_{w,1}(v; t) = w(v) psi(v / p^t) at every unit v = g^d, indexed by d:
    the one-dimensional sum n = 2 needs, which the Kloosterman engine does not
    define (the inversion formula under its DFT engine extends to it).  Each
    entry is one root zeta_A^e, A = lcm(p^t, phi(p^t)): one one-hot (m, A)
    stack and one batched reduction when exact, the complex roots in floats."""
    ug = unit_group(w.p, t)
    m, pm = ug.order, w.p ** t
    A = math.lcm(pm, m)
    d = np.arange(m)
    e = (represent_at_level(w, t).k * d * (A // m) + ug.powers * (A // pm)) % A
    if not backend.exact:
        return tuple(complex(v) for v in get_context(A).roots_complex()[e])
    onehot = np.zeros((m, A), dtype=np.int64)
    onehot[d, e] = 1
    return _stack_values(A, onehot)


def _kl_shell_row(omega: MultChar, n: int, t: int, z: PadicNumber, r: Fraction,
                  backend: Backend):
    """r * KL_{omega^{-1}, n-1}((-1)^n y0 z0^{-1}; t) at every y0 = g^d,
    indexed by d: the Kloosterman row read at -u for the character sum's unit
    u, and -1 = g^{m/2}.  kl_direct's row at n >= 3, _kl1_row's at n = 2."""
    ug = unit_group(omega.p, t)
    w = omega.inv()
    row = _kl1_row(w, t, backend) if n == 2 else kl_direct(KLQuery(w, n - 1, t), backend)
    return _on_shell(row, (ug.dlog(_shell_unit(z, n, t)) + ug.order // 2) % ug.order, r)


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


def bessel_charsum(pi: RepnData, z: PadicNumber, backend: Backend = EXACT) -> tuple:
    """(row, qexp): B(y; Phi_z) = row[d] q^qexp at y = y0 p^{n v(z)}, y0 = g^d,
    as the character sum over the characters of conductor t = -v(z):

        B(y) = pref * sum_{a(chi) = t} chi((-1)^{n-1} y0 z0^{-1}) eps*(chi^{-1}) eps*(chi x pi)

    _charsum_row read at the units y0 times _shell_unit, times q / (q - 1),
    with the lemma41 q-power added to qexp.
    """
    n, t, _ = _standing_assumptions(pi, z)
    return _charsum_on_shell(pi, z, n, t, backend)


def _charsum_on_shell(pi: RepnData, z: PadicNumber, n: int, t: int, backend: Backend) -> tuple:
    """bessel_charsum's (row, qexp), for the (n, t) of its standing assumptions."""
    row, qexp = _charsum_row(pi, t, backend)
    shift = unit_group(pi.p, t).dlog(_shell_unit(z, n, t))
    return (_on_shell(row, shift, Fraction(pi.p, pi.p - 1)),
            qexp + _candidate_exponents(n, t)["lemma41"])


def bessel_closedform(pi: RepnData, z: PadicNumber, report: PrefactorReport,
                      backend: Backend = EXACT) -> tuple:
    """(row, qexp): B(y; Phi_z) as constant * KL_{omega^{-1}, n-1}((-1)^n y0 z0^{-1}; t)
    on the support shell, indexed as bessel_charsum's row.

    The constant is cofactor * q^{measured_exponent} of the PrefactorReport
    that measure_prefactor gives for (pi, z): the row is the cofactor times
    the Kloosterman row, qexp the measured exponent.  A report measured for
    another (p, n, t) raises ValueError.
    """
    n, t, omega = _standing_assumptions(pi, z)
    if (report.p, report.n, report.t) != (pi.p, n, t):
        raise ValueError("prefactor report is for (p, n, t) = (%d, %d, %d), not (%d, %d, %d)"
                         % (report.p, report.n, report.t, pi.p, n, t))
    return _kl_shell_row(omega, n, t, z, report.cofactor, backend), report.measured_exponent


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
    a chi with a(chi) = t has a term, its own profile entry, multiplied out
    from the epsilon factors, and its phi(p^t) cancels the average's
    1/phi(p^T); every other chi gets the exact zero.  (n, t) come from the
    caller's _standing_assumptions.
    """
    if chi.conductor_exponent != t:
        return EpsMonomial(ScaledScalar.of(backend.zero()), -n * t)
    chi_t = represent_at_level(chi, t)
    c = _profile_entry(pi, chi_t, backend)
    pref = _prefactor_scalar(n, t, pi.p, backend)
    # |y| = q^{nt}: |y|^{s-(n-1)/2} = q^{nt(2-n)/2} * q^{-nt(1/2-s)}
    shell = ScaledScalar.of(chi_t.eval(_shell_unit(z, n, t), backend),
                            Fraction(n * t * (2 - n), 2))
    return EpsMonomial(pref * c * shell, -n * t)


def _forms_verdict(pi: RepnData, z: PadicNumber, chi_t: MultChar, integral: ScaledScalar,
                   n: int, t: int) -> bool:
    """The exact verdict at a(chi) = t, with both sides as Gauss-sum forms.

    Each side is q^e p^(s // 2) g^(s mod 2) zeta_A^angle / (q - 1), which is
    canonical (|g| = sqrt p is no rational multiple of a root of unity), so the
    sides are equal when e, s mod 2 and the angle agree.  LHS: _mellin_lhs's
    prefactor, profile entry and chi((-1)^{n-1} z0^{-1}) q^{nt(2-n)/2}.  RHS:
    chi(-1)^{n-1} eps*(chi x pi), read blockwise from the level table as
    prod_j tau((chi tau_j)^{-1})^{d_j} q^{-nt/2} (xexp -nt, as the profile
    checked every fused conductor), times the integral I, whose multiple
    phi(p^t) I = chi(z0)^{-1} tau(chi) is recognised as a form; an I that is
    no such multiple of a form fails.
    """
    p, k = pi.p, chi_t.k
    _live, l_angles, l_s = _charsum_profile(pi, t, EXACT)
    m = len(l_angles)
    A = math.lcm(p ** t, m)
    try:
        i_angle = _gauss_form(integral.coeff * phi(p, t), p, t, A)
    except ArithmeticError:
        return False
    angles = _level_forms(p, t)[1]
    r_angle, r_s = _form_product(p, A, [(i_angle, t, 1)] + [
        (int(angles[(-k - represent_at_level(b.tau, t).k) % m]), t, b.size) for b in pi.blocks])
    r_angle += k * (n - 1) % 2 * (A // 2)  # chi(-1)^{n-1}, chi(-1) = (-1)^k
    l_angle = l_angles[k] + chi_t.value_exponent(_shell_unit(z, n, t)) * (A // m)
    # q / (q - 1) q^e' on the left, q^e' / phi(q^t) = q^(e' - t + 1) / (q - 1) on the right
    l_e = (_candidate_exponents(n, t)["lemma41"] + 1 - Fraction(l_s, 2) + l_s // 2
           + Fraction(n * t * (2 - n), 2))
    r_e = integral.qexp - Fraction(n * t, 2) + r_s // 2 - t + 1
    return l_e == r_e and l_s % 2 == r_s % 2 and (l_angle - r_angle) % A == 0


def duality_check(pi: RepnData, z: PadicNumber, chi: MultChar,
                  backend: Backend = EXACT) -> DualityReport:
    """Evaluate both sides of the duality relation at chi and compare.

    LHS: the Mellin coefficient of the character-sum transform on the shell.
    RHS: chi(-1)^{n-1} * eps*(chi x pi)|_{s -> 1-s} * gauss_integral(chi, z),
    the integral always the literal sum.

    Where the integral vanishes, both sides do when a(chi) != t (the Mellin
    side by orthogonality); the report then has both_vanish True and passes
    iff the LHS really vanished.  Otherwise, exactly at a(chi) = t, the
    verdict is decided on forms (_forms_verdict) and the report's lhs and rhs
    are multiplied out only when read; in floats, or where the integral
    survives at a(chi) != t, they are built and compared as monomials.  The
    RHS epsilon factor is only evaluated where the integral is nonzero, away
    from the unramified-twist regime the blockwise factor refuses.
    """
    n, t, _ = _standing_assumptions(pi, z)
    if chi.p != pi.p:
        raise ValueError("mixed primes: pi lives over p=%d, chi over p=%d" % (pi.p, chi.p))
    g = gauss_integral(chi, z, backend)
    vanish = backend.is_zero(g.coeff)

    def build_rhs():
        if vanish:
            return EpsMonomial(ScaledScalar.of(backend.zero()), -n * t)
        rhs = _dual_twisted_eps(pi, chi, backend).reflect()
        return rhs.scale(g * chi.parity_sign() ** (n - 1))
    if backend.exact and not vanish and chi.conductor_exponent == t:
        passed = _forms_verdict(pi, z, represent_at_level(chi, t), g, n, t)
        return DualityReport(chi, False, passed,
                             lambda: _mellin_lhs(pi, z, chi, n, t, backend), build_rhs)
    lhs, rhs = _mellin_lhs(pi, z, chi, n, t, backend), build_rhs()
    return DualityReport(chi, vanish, lhs.equals(rhs, pi.p, backend), lambda: lhs, lambda: rhs)


# ---------------------------------------------------------------------------
# measuring the closed-form constant
# ---------------------------------------------------------------------------


def _entry_ratio(a: CycRow, b: CycRow, i: int) -> Optional[Fraction]:
    """r with a[i] == r b[i] if the two entries are rationally proportional,
    b[i] != 0: the coordinates cross-multiply at b's first nonzero one."""
    x, y = a.coords[i].tolist(), b.coords[i].tolist()
    j = next(j for j, c in enumerate(y) if c)
    if any(xi * y[j] != x[j] * yi for xi, yi in zip(x, y)):
        return None
    return Fraction(x[j] * b.den, a.den * y[j])


def measure_prefactor(pi: RepnData, z: PadicNumber) -> PrefactorReport:
    """Determine the constant B(y) / KL_{omega^{-1}, n-1}(a(y, z); t) exactly.

    Reads the character-sum and Kloosterman rows over the whole shell once
    each, and insists on one single ratio: y-independence is part of the
    claim being verified, not an assumption.  The rational r is read at the
    first nonvanishing Kloosterman entry, and charsum = r * KL is decided on
    the integer stacks (CycRow.entries_equal), so a vanishing Kloosterman sum
    needs a vanishing transform.  Each refusal is an ArithmeticError naming
    the first shell point y0 at fault.
    """
    n, t, omega = _standing_assumptions(pi, z)
    p = pi.p
    charsum, qexp = _charsum_on_shell(pi, z, n, t, EXACT)
    kl = _kl_shell_row(omega, n, t, z, Fraction(1), EXACT)
    live = kl.coords.any(axis=1)
    if not live.any():
        raise ArithmeticError("the Kloosterman sum vanishes on the whole shell")
    i0 = int(np.argmax(live))
    r = _entry_ratio(charsum, kl, i0)
    off = ~charsum.entries_equal(_scaled_row(kl, r or 0))
    if not r:
        off[i0] = True
    if off.any():
        i = int(np.argmax(off))
        y0s = unit_group(p, t).powers
        if not live[i]:
            raise ArithmeticError("transform does not vanish at y0=%d where the Kloosterman "
                                  "sum does" % y0s[i])
        ri = _entry_ratio(charsum, kl, i)
        if not ri:
            raise ArithmeticError(
                "charsum/Kloosterman ratio at y0=%d is not a nonzero rational" % y0s[i])
        raise ArithmeticError("charsum/Kloosterman ratio is not constant on the shell: %s at "
                              "y0=%d, %s at y0=%d" % (ri, y0s[i], r, y0s[i0]))
    vp = valuation(p, r)
    r /= Fraction(p) ** vp
    candidates = _candidate_exponents(n, t)
    measured = qexp + vp
    return PrefactorReport(
        n=n, t=t, p=p, measured_exponent=measured, cofactor=r, candidates=candidates,
        matches={name: e == measured for name, e in candidates.items()})
