"""Bessel transforms: duality oracle, support, and the closed-form constant."""
from dataclasses import replace
from fractions import Fraction

import pytest

from epsilonlab import bessel, cli
from epsilonlab.bessel import (
    PrefactorReport,
    bessel_charsum,
    bessel_closedform,
    duality_check,
    gauss_integral,
    measure_prefactor,
)
from epsilonlab.characters import (
    MultChar,
    chars_with_conductor,
    enumerate_chars,
    trivial_char,
)
from epsilonlab.kloosterman import KLQuery, kl_direct
from epsilonlab.local_factors import (
    Block,
    EpsMonomial,
    RepnData,
    eps_gl1,
    eps_rep_twisted,
    gauss_sum,
    steinberg,
)
from epsilonlab.padic import PadicNumber, psi_eval, unit_group
from epsilonlab.scalars import (
    EXACT,
    FLOAT,
    CycContext,
    CycRow,
    QExpMismatchError,
    ScaledScalar,
    root_of_unity,
    shifted_root_sums,
)


def zvec(p, t, unit=1):
    """z = unit * p^{-t}."""
    return PadicNumber(p, Fraction(unit, p ** t))


def shell_point(p, y0, n, t):
    """y = y0 * p^{n v(z)} for -v(z) = t: a point on the support shell."""
    return PadicNumber(p, Fraction(y0) * Fraction(p) ** (-n * t))


def shell_units(p, t):
    return [x for x in range(p ** t) if x % p]


def on_shell(row_qexp, p, t):
    """y0 -> row[d] q^qexp, y0 = g^d: a transform's row read as shell samples."""
    row, qexp = row_qexp
    return {y0: ScaledScalar.of(row[d], qexp)
            for d, y0 in enumerate(unit_group(p, t).powers.tolist())}


def charsum_at(pi, z, backend=EXACT):
    return on_shell(bessel_charsum(pi, z, backend), pi.p, -z.val)


def closedform_at(pi, z, report, backend=EXACT):
    return on_shell(bessel_closedform(pi, z, report, backend), pi.p, -z.val)


def kl_at(omega, n, a0, t):
    """KL_{omega^{-1}, n-1}(a0; t), one unit at a time: kl_direct's row read at
    dlog a0, and at n = 2 the one-dimensional sum w(a0) psi(a0 / p^t)."""
    p = omega.p
    if n == 2:
        return omega.inv().eval(a0) * psi_eval(p, Fraction(a0, p ** t))
    return kl_direct(KLQuery(omega.inv(), n - 1, t))[unit_group(p, t).dlog(a0)]


# the representation zoo: (p, pi) with a(pi) = 2 unless noted
def st2(p, k=1):
    return steinberg(MultChar(p, 1, k), 2)


PI_N2 = [(3, st2(3)), (5, st2(5, 2)),
         (5, RepnData.of(Block(MultChar(5, 1, 1)), Block(MultChar(5, 1, 3))))]
PI_N3 = [(3, steinberg(trivial_char(3), 3)),
         (3, RepnData.of(Block(MultChar(3, 1, 1), 2), Block(trivial_char(3)))),
         (5, steinberg(trivial_char(5), 3))]
PI_N4 = [(3, RepnData.of(Block(trivial_char(3), 3), Block(trivial_char(3)))),
         (5, RepnData.of(Block(trivial_char(5), 3), Block(trivial_char(5))))]


# ---------------------------------------------------------------------------
# the twisted unit-circle integral
# ---------------------------------------------------------------------------


def brute_gauss_integral(chi, z, T):
    """The same average as its own scalar loop: the vectorization oracle."""
    p = chi.p
    acc, count = ScaledScalar.of(0), 0
    for x in range(1, p ** T):
        if x % p == 0:
            continue
        count += 1
        acc = acc + ScaledScalar.of(chi.eval(x) * psi_eval(p, z.value * x))
    return acc * ScaledScalar.of(Fraction(1, count))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("a", [0, 1, 2])
@pytest.mark.parametrize("vz", [1, 0, -1, -2, -3])
def test_gauss_integral_matches_brute_loop(p, a, vz):
    z = PadicNumber(p, Fraction(p) ** vz)
    T = max(a, -min(vz, 0), 1)
    for chi in chars_with_conductor(p, a)[:3]:
        got = gauss_integral(chi, z)
        assert got.eq_value(brute_gauss_integral(chi, z, T), p, EXACT)


@pytest.mark.parametrize("p,t", [(3, 2), (3, 3), (5, 2)])
def test_gauss_integral_closed_form_on_conductor_match(p, t):
    # a(chi) = -v(z) = t >= 2: the average is chi(z0)^{-1} tau(chi) / phi(p^t)
    z0 = 1 + p
    z = zvec(p, t, z0)
    m = p ** (t - 1) * (p - 1)
    for chi in chars_with_conductor(p, t):
        want = ScaledScalar.of(chi.inv().eval(z0) * gauss_sum(chi) * Fraction(1, m))
        assert gauss_integral(chi, z).eq_value(want, p, EXACT)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gauss_integral_shallow_corners(p):
    one = ScaledScalar.of(1)
    triv = trivial_char(p)
    # unramified, z integral: the average of 1
    assert gauss_integral(triv, PadicNumber(p, 1)).eq_value(one, p, EXACT)
    assert gauss_integral(triv, PadicNumber(p, 0)).eq_value(one, p, EXACT)
    assert gauss_integral(triv, PadicNumber(p, p)).eq_value(one, p, EXACT)
    # unramified at depth one: a Ramanujan average
    want = ScaledScalar.of(Fraction(-1, p - 1))
    assert gauss_integral(triv, zvec(p, 1)).eq_value(want, p, EXACT)


@pytest.mark.parametrize("p", [3, 5])
def test_gauss_integral_vanishes_off_conductor_match(p):
    zero = ScaledScalar.of(0)
    for a, vz in [(1, -2), (2, -1), (2, -3), (0, -2), (1, -3), (2, 0)]:
        z = PadicNumber(p, Fraction(p) ** vz)
        for chi in chars_with_conductor(p, a)[:2]:
            got = gauss_integral(chi, z)
            if a == 0 and vz >= 0:
                continue  # the nonvanishing corner, covered above
            assert got.is_zero_exact(), (a, vz)


def test_gauss_integral_frozen_value():
    # p=3, quadratic chi, z = 1/3: tau(chi) = zeta3 - zeta3^2 = i sqrt(3), /phi(3)
    got = gauss_integral(MultChar(3, 1, 1), zvec(3, 1))
    want = ScaledScalar.of((root_of_unity(1, 3) - root_of_unity(2, 3)) * Fraction(1, 2))
    assert got.eq_value(want, 3, EXACT)
    assert abs(got.to_complex(3) - 0.8660254037844386j) < 1e-12


def test_gauss_integral_float_agrees():
    for p, a, vz in [(3, 2, -2), (5, 1, -1), (5, 2, -3), (7, 1, -1)]:
        z = zvec(p, -vz) if vz < 0 else PadicNumber(p, 1)
        for chi in chars_with_conductor(p, a)[:2]:
            ve = gauss_integral(chi, z).to_complex(p)
            vf = gauss_integral(chi, z, backend=FLOAT).to_complex(p)
            assert abs(ve - vf) <= 1e-9 * max(1.0, abs(ve))


# ---------------------------------------------------------------------------
# support of the transform
# ---------------------------------------------------------------------------


def test_charsum_not_identically_zero_on_shell():
    for p, pi in (PI_N2[0], PI_N3[0], PI_N4[0]):
        t = pi.conductor_exponent
        row, _qexp = bessel_charsum(pi, zvec(p, t))
        assert len(row) == len(shell_units(p, t))
        assert any(not v.is_zero() for v in row)


def test_charsum_frozen_value():
    # n=3, p=3, t=2, omega trivial, y0=2: the collapsed form gives
    # q^2 * KL_2(-2; 9) = 9 * 3 (zeta9 + zeta9^8), about 54 cos(2pi/9)
    pi = steinberg(trivial_char(3), 3)
    values = charsum_at(pi, zvec(3, 2))
    want = ScaledScalar.of((root_of_unity(1, 9) + root_of_unity(8, 9)) * 3, 2)
    assert values[2].eq_value(want, 3, EXACT)
    assert abs(values[2].to_complex(3) - 41.36639992842481) < 1e-9
    # and y0=1 lands on a vanishing Kloosterman class
    assert values[1].is_zero_exact()


def literal_profile(pi, t, backend):
    """chi.k -> eps*(chi^{-1}) eps*(chi x pi) over the characters of conductor
    t, each value multiplied out from eps_gl1 and eps_rep_twisted with its
    coefficient conjugated (the module's orientation): the oracle of the
    profile the exact backend holds as Gauss-sum forms."""
    out = {}
    for chi in chars_with_conductor(pi.p, t):
        e1 = eps_gl1(chi.inv(), backend=backend).value
        e2 = eps_rep_twisted(pi, chi, backend=backend).value
        out[chi.k] = bessel._dual_scalar(e1) * bessel._dual_scalar(e2)
    return out


def loop_charsum(pi, z, y, backend, sign_exponent=None):
    """The character sum one literal profile entry at a time, one root of
    unity and one strict ScaledScalar addition per character: the whole-shell
    row's oracle.

    The sign is (-1)^{n-1}, as in the lemma41 statement; sign_exponent = n
    gives the sign of the prop42 display, a negative control."""
    n, t, _ = bessel._standing_assumptions(pi, z)
    pm = pi.p ** t
    e = n - 1 if sign_exponent is None else sign_exponent
    u = (-1) ** e * y.unit_mod(t) * pow(z.unit_mod(t), -1, pm) % pm
    ug = unit_group(pi.p, t)
    du, m = ug.dlog(u), ug.order
    acc = ScaledScalar.of(backend.zero())
    for k, c in literal_profile(pi, t, backend).items():
        acc = acc + c * backend.root_of_unity(k * du % m, m)
    return bessel._prefactor_scalar(n, t, pi.p, backend) * acc


def literal_mellin(p, n, t, chi, values, backend=EXACT):
    """Mellin coefficient of shell samples {y0 mod p^t: B(y0 p^{-n t})} against
    chi, as the black-box loop over the units y0 mod p^T, T = max(t, a(chi)):
    (1/phi(p^T)) q^{nt(2-n)/2} sum_{y0} B(y0 mod p^t) chi^{-1}(y0)."""
    units = shell_units(p, max(t, chi.conductor_exponent))
    acc = ScaledScalar.of(backend.zero())
    for y0 in units:
        acc = acc + values[y0 % p ** t] * chi.inv().eval(y0, backend)
    return acc * ScaledScalar.of(backend.rational(Fraction(1, len(units))),
                                 Fraction(n * t * (2 - n), 2))


# every shell of these (p, t) against an n = 2 probe, and at p = 3 an n = 3 one;
# the id names the lemma41 sign and prefactor the character sum uses
ROW_CASES = [pytest.param(p, t, pi, id="lemma41-%d-%d-n%d" % (p, t, pi.dim))
             for p, t in [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3)]
             for pi in [st2(p)] + ([steinberg(trivial_char(3), 3)] if p == 3 else [])]


@pytest.mark.parametrize("p,t,pi", ROW_CASES)
def test_charsum_row_is_the_per_character_loop(p, t, pi):
    z, n = zvec(p, t), pi.dim
    exact, floats = charsum_at(pi, z), charsum_at(pi, z, FLOAT)
    for y0 in shell_units(p, t):
        y = shell_point(p, y0, n, t)
        got = exact[y0]
        want = loop_charsum(pi, z, y, EXACT)
        assert got == want and repr(got) == repr(want), (y0, got, want)
        got = floats[y0]
        want = loop_charsum(pi, z, y, FLOAT)
        assert got.qexp == want.qexp
        assert abs(got.coeff - want.coeff) <= 1e-9 * max(1.0, abs(want.coeff)), y0


def test_charsum_object_rows_equal_the_int64_rows(monkeypatch):
    # rows whose stack fails the int64 guard are built in object dtype; the
    # last case's forms carry the g-flag ((n + 1) t odd), so g multiplies
    # the object stack too
    cases = [(st2(5, 2), 5, 2), (steinberg(trivial_char(3), 3), 3, 3), (st2(3), 3, 3)]
    fast = {(pi, t): list(bessel_charsum(pi, zvec(p, t))[0]) for pi, p, t in cases}
    monkeypatch.setattr(CycContext, "fits_int64", lambda self, max_abs: False)
    seen = []
    real = CycContext.reduce_groupring

    def spy(self, vec):
        out = real(self, vec)
        if vec.ndim == 2:
            seen.append(out.dtype)
        return out

    monkeypatch.setattr(CycContext, "reduce_groupring", spy)
    bessel._charsum_row.cache_clear()
    try:
        for pi, p, t in cases:
            slow = list(bessel_charsum(pi, zvec(p, t))[0])
            assert slow == fast[pi, t]
            assert [repr(v) for v in slow] == [repr(v) for v in fast[pi, t]]
    finally:
        bessel._charsum_row.cache_clear()
    assert seen == [object] * len(cases)


def test_charsum_row_refuses_mixed_q_exponents(monkeypatch):
    # a fused character chi tau below conductor t gives its entry another
    # q-exponent.  The standing assumptions exclude that, so the private code
    # is called directly, with a(tau) = t = 2: chi = tau^{-1} fuses to the
    # trivial character.
    p, t = 3, 2
    pi = RepnData.of(Block(chars_with_conductor(p, t)[0]))
    assert len({c.qexp for c in literal_profile(pi, t, EXACT).values()}) > 1
    with pytest.raises(QExpMismatchError):  # the forms refuse it
        bessel._charsum_profile.__wrapped__(pi, t, EXACT)
    with pytest.raises(QExpMismatchError):  # and so does the float row
        bessel._charsum_row.__wrapped__(pi, t, FLOAT)
    # the float row refuses any mix, and exact zeros carry no q-exponent
    one = ScaledScalar.of(FLOAT.one())
    mixed = {1: one, 5: ScaledScalar.of(one.coeff, Fraction(1, 2))}
    monkeypatch.setattr(bessel, "_charsum_profile", lambda pi, t, backend: mixed)
    with pytest.raises(QExpMismatchError):
        bessel._charsum_row.__wrapped__(st2(p), t, FLOAT)
    mixed[5] = ScaledScalar.of(0)
    row, qexp = bessel._charsum_row.__wrapped__(st2(p), t, FLOAT)
    assert qexp == 0
    assert all(abs(v - FLOAT.root_of_unity(d, 6)) < 1e-12 for d, v in enumerate(row))


# ---------------------------------------------------------------------------
# the duality relation (the normative oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,pi", PI_N2 + PI_N3)
@pytest.mark.parametrize("extra", [0, 1])
def test_duality_holds_for_every_character(p, pi, extra):
    t = pi.conductor_exponent + extra
    z = zvec(p, t)
    vanish = 0
    for chi in enumerate_chars(p, t):
        rep = duality_check(pi, z, chi)
        assert rep.passed, (chi, rep.lhs, rep.rhs)
        assert rep.both_vanish == (chi.conductor_exponent != t)
        vanish += rep.both_vanish
    # exactly the characters of conductor below t vanish on both sides
    assert vanish == p ** (t - 2) * (p - 1) if t >= 2 else 1


def test_duality_with_character_above_the_level():
    # conductor t+1 against depth t: both sides vanish, and the check says so
    pi = steinberg(trivial_char(3), 3)
    rep = duality_check(pi, zvec(3, 2), MultChar(3, 3, 1))
    assert rep.both_vanish and rep.passed


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_duality_fails_where_only_the_integral_vanishes(monkeypatch, backend):
    # a Mellin side that survives where the integral vanishes is a failure
    pi, z = steinberg(trivial_char(3), 3), zvec(3, 2)
    chi = MultChar(3, 3, 1)  # conductor 3 > t: the integral vanishes
    one = EpsMonomial(ScaledScalar.of(backend.one()), -6)
    monkeypatch.setattr(bessel, "_mellin_lhs", lambda *args: one)
    rep = duality_check(pi, z, chi, backend)
    assert rep.both_vanish and not rep.passed


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_duality_fails_where_only_the_integral_survives(monkeypatch, backend):
    # an integral that survives at a(chi) != t, where the Mellin side is the
    # exact zero, is a reported failure
    pi, z = steinberg(trivial_char(3), 3), zvec(3, 2)
    chi = MultChar(3, 3, 1)  # conductor 3 > t
    monkeypatch.setattr(bessel, "gauss_integral",
                        lambda *args: ScaledScalar.of(backend.one()))
    rep = duality_check(pi, z, chi, backend)
    assert not rep.both_vanish and not rep.passed
    assert rep.lhs.value.is_zero_exact() and not rep.rhs.value.is_zero_exact()


def test_duality_nonvanishing_branch_has_matching_exponents():
    p, pi = PI_N3[0]
    t = pi.conductor_exponent
    chi = chars_with_conductor(p, t)[0]
    rep = duality_check(pi, zvec(p, t), chi)
    assert not rep.both_vanish
    assert rep.lhs.xexp == rep.rhs.xexp == -pi.dim * t
    assert not rep.lhs.value.is_zero_exact()


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("p,t,pi", [(5, 2, st2(5, 2)), (3, 3, steinberg(trivial_char(3), 3))],
                         ids=["p5-t2-n2", "p3-t3-n3"])
def test_duality_lhs_is_the_literal_mellin_sum(p, t, pi, backend):
    # the check's orthogonality shortcut == the black-box loop over shell
    # samples, for every character at level t and one of conductor t + 1
    n = pi.dim
    z = zvec(p, t)
    values = charsum_at(pi, z, backend)
    assert len(values) == unit_group(p, t).order
    deeper = chars_with_conductor(p, t + 1)[0]
    for chi in list(enumerate_chars(p, t)) + [deeper]:
        literal = literal_mellin(p, n, t, chi, values, backend)
        rep = duality_check(pi, z, chi, backend)
        assert rep.lhs.xexp == -n * t
        assert literal.eq_value(rep.lhs.value, p, backend), chi
        assert rep.lhs.value.is_zero_exact() == (chi.conductor_exponent != t)


def test_duality_discriminates_the_sign_convention():
    # chi((-1)^n ...) differs from chi((-1)^{n-1} ...) by chi(-1): only odd
    # characters can see it, and for them it breaks the relation.  The prop42
    # sign is built here, as the literal Mellin sum of the per-character loop.
    p, n, t = 3, 3, 2
    pi = steinberg(trivial_char(p), n)
    z = zvec(p, t)

    def mellin_passes(chi, sign_exponent):
        values = {y0: loop_charsum(pi, z, shell_point(p, y0, n, t), EXACT, sign_exponent)
                  for y0 in shell_units(p, t)}
        rep = duality_check(pi, z, chi)
        assert rep.passed and not rep.both_vanish
        return literal_mellin(p, n, t, chi, values).eq_value(rep.rhs.value, p, EXACT)

    odd = [c for c in chars_with_conductor(p, t) if c.parity_sign() < 0]
    even = [c for c in chars_with_conductor(p, t) if c.parity_sign() > 0]
    assert odd and even
    assert not mellin_passes(odd[0], n)
    assert mellin_passes(odd[0], n - 1)
    assert mellin_passes(even[0], n)


def test_duality_rejects_the_proof_display_prefactor():
    # a displayed intermediate step reads |z|^{(n^2+1)/2} in place of the
    # statement's q^{t((n-1)^2-2)/2}; that is off by q^{t(n+1)}, and every
    # non-vanishing character catches it
    for p, pi in (PI_N2[0], PI_N3[0]):
        n, t = pi.dim, pi.conductor_exponent
        z = zvec(p, t)
        gap = Fraction(t * (n * n + 1), 2) - Fraction(t * ((n - 1) ** 2 - 2), 2)
        assert gap == t * (n + 1)
        for chi in chars_with_conductor(p, t)[:3]:
            rep = duality_check(pi, z, chi)
            displayed = ScaledScalar.of(rep.lhs.value.coeff, rep.lhs.value.qexp + gap)
            proof = EpsMonomial(displayed, rep.lhs.xexp)
            assert rep.passed and not rep.both_vanish
            assert not proof.equals(rep.rhs, p, EXACT)


def test_duality_float_backend_agrees():
    pi = steinberg(trivial_char(3), 3)
    z = zvec(3, 2)
    for chi in enumerate_chars(3, 2):
        re_ = duality_check(pi, z, chi)
        rf = duality_check(pi, z, chi, backend=FLOAT)
        assert re_.passed and rf.passed
        assert re_.both_vanish == rf.both_vanish


# every probe the bessel suite runs, at levels even and odd, p = 1 and 3 mod 4
FORM_CASES = [pytest.param(p, t, cli._bessel_pi(p, n), id="p%d-t%d-n%d" % (p, t, n))
              for p, t in [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)] for n in (2, 3, 4)
              if cli._bessel_pi(p, n).conductor_exponent <= t]


@pytest.mark.parametrize("p,t,pi", FORM_CASES)
def test_forms_decide_as_the_multiplied_out_sides(p, t, pi):
    # the forms verdict against the two sides multiplied out exactly, and the
    # form row against the row of the literal profile's values
    z = zvec(p, t)
    for chi in enumerate_chars(p, t):
        rep = duality_check(pi, z, chi)
        assert rep.passed and rep.both_vanish == (chi.conductor_exponent != t)
        assert rep.lhs.equals(rep.rhs, p, EXACT), chi
    profile = literal_profile(pi, t, EXACT)
    row, qexp = bessel._charsum_row(pi, t, EXACT)
    want = shifted_root_sums([c.coeff for c in profile.values()], list(profile),
                             unit_group(p, t).order, EXACT)
    assert {c.qexp for c in profile.values()} == {qexp}
    assert repr(row) == repr(want)


@pytest.mark.parametrize("p,t,pi", FORM_CASES)
@pytest.mark.parametrize("spoil", ["turned", "plus-one"])
def test_forms_fail_a_spoiled_integral(monkeypatch, p, t, pi, spoil):
    # an integral turned by one root of unity is a form at another angle, and
    # one plus 1 is no form: each fails its row, as the multiplied-out sides
    # say, and neither raises
    real = bessel.gauss_integral
    turn = ScaledScalar.of(root_of_unity(1, p ** t * (p - 1)))

    def spoiled(chi, z, backend=EXACT):
        g = real(chi, z, backend)
        return g * turn if spoil == "turned" else g + ScaledScalar.of(1)

    monkeypatch.setattr(bessel, "gauss_integral", spoiled)
    z = zvec(p, t)
    for chi in chars_with_conductor(p, t):
        rep = duality_check(pi, z, chi)
        assert not rep.passed and not rep.both_vanish
        assert not rep.lhs.equals(rep.rhs, p, EXACT)


# ---------------------------------------------------------------------------
# the closed-form constant: measured, not believed
# ---------------------------------------------------------------------------

MEASURE_GRID = [
    # (p, pi, t) covering n in {2,3,4} x t in {2,3}
    (3, st2(3), 2), (3, st2(3), 3),
    (5, st2(5, 2), 2), (5, RepnData.of(Block(MultChar(5, 1, 1)), Block(MultChar(5, 1, 3))), 3),
    (3, PI_N3[0][1], 2), (3, PI_N3[1][1], 3), (5, PI_N3[2][1], 2),
    (3, PI_N4[0][1], 2), (3, PI_N4[0][1], 3), (5, PI_N4[1][1], 2),
    (3, steinberg(trivial_char(3), 4), 3),  # n=4 through a conductor-3 block
]


@pytest.mark.parametrize("p,pi,t", MEASURE_GRID)
def test_measured_prefactor_is_a_pure_q_power(p, pi, t):
    n = pi.dim
    rep = measure_prefactor(pi, zvec(p, t))
    assert rep.cofactor == 1
    assert rep.measured_exponent == Fraction(t * (n - 1) * (n - 2), 2)
    assert (rep.n, rep.t, rep.p) == (n, t, p)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_which_printed_candidate_matches(n):
    # n=2: only cor13; n=3: only lemma41; n=4: none of them
    p = 3
    pi = {2: st2(3), 3: PI_N3[0][1], 4: PI_N4[0][1]}[n]
    for t in (2, 3):
        rep = measure_prefactor(pi, zvec(p, t))
        want = {2: {"lemma41": False, "prop42": False, "cor13": True},
                3: {"lemma41": True, "prop42": False, "cor13": False},
                4: {"lemma41": False, "prop42": False, "cor13": False}}[n]
        assert rep.matches == want
        # the two n=4 candidates agree with each other and still miss
        if n == 4:
            assert rep.candidates["prop42"] == rep.candidates["cor13"] == 0
            assert rep.measured_exponent == 3 * t


def test_prefactor_candidates_are_the_printed_exponents():
    rep = measure_prefactor(PI_N3[0][1], zvec(3, 2))
    n, t = 3, 2
    assert rep.candidates["lemma41"] == Fraction(t * ((n - 1) ** 2 - 2), 2)
    assert rep.candidates["prop42"] == Fraction(t * (n - 4) * (n - 1), 2)
    assert rep.candidates["cor13"] == Fraction(t * (n - 4) * (n - 2), 2)


def test_prefactor_report_json_schema():
    rep = measure_prefactor(PI_N3[0][1], zvec(3, 2))
    assert isinstance(rep, PrefactorReport)
    js = rep.to_json()
    assert set(js) == {"n", "t", "p", "measured_exponent", "cofactor", "candidates", "matches"}
    assert set(js["matches"]) == set(js["candidates"]) == {"lemma41", "prop42", "cor13"}
    assert js == {"n": 3, "t": 2, "p": 3, "measured_exponent": 2, "cofactor": 1,
                  "candidates": {"lemma41": 2, "prop42": -2, "cor13": -1},
                  "matches": {"lemma41": True, "prop42": False, "cor13": False}}
    assert isinstance(js["measured_exponent"], int) and isinstance(js["cofactor"], int)
    assert all(isinstance(v, bool) for v in js["matches"].values())


# at p = 3, t = 2, n = 3 the shell y0 = 1, 2, 4, 8, 7, 5 (d = 0, ..., 5) has
# vanishing Kloosterman classes at y0 = 1, 4, 7; the ratio is read at y0 = 2
SPOILS = [
    pytest.param(lambda c: c.__setitem__(0, c[1]), "does not vanish at y0=1 ",
                 id="vanishing-class-made-nonzero"),
    pytest.param(lambda c: c.__setitem__(1, 0), "ratio at y0=2 is not a nonzero rational",
                 id="first-live-entry-zeroed"),
    pytest.param(lambda c: c.__setitem__(3, 0), "ratio at y0=8 is not a nonzero rational",
                 id="later-live-entry-zeroed"),
    pytest.param(lambda c: c.__setitem__(5, 2 * c[5]),
                 "not constant on the shell: 162 at y0=5, 81 at y0=2",
                 id="entry-doubled"),
]


@pytest.mark.parametrize("spoil, message", SPOILS)
def test_measure_prefactor_refuses_a_spoiled_charsum_row(monkeypatch, spoil, message):
    # z0 = 1 and n odd: the shell unit is 1, so the row is read unshifted
    pi, z = steinberg(trivial_char(3), 3), zvec(3, 2)
    assert bessel._shell_unit(z, 3, 2) == 1
    real = bessel._charsum_row
    row, _qexp = real(pi, 2, EXACT)
    assert [v.is_zero() for v in row] == [True, False] * 3
    assert unit_group(3, 2).powers.tolist() == [1, 2, 4, 8, 7, 5]

    def spoiled(*args):
        row, qexp = real(*args)
        coords = row.coords.copy()
        spoil(coords)
        return CycRow(row.N, coords, row.den), qexp

    monkeypatch.setattr(bessel, "_charsum_row", spoiled)
    with pytest.raises(ArithmeticError, match=message):
        measure_prefactor(pi, z)


def test_bessel_suite_reads_each_kloosterman_row_at_most_twice(monkeypatch):
    # the prefactor and the closed form each read one whole kl_direct row per
    # rank n >= 3, not one row per shell point
    calls = []
    real = bessel.kl_direct

    def counted(query, *args, **kwargs):
        calls.append(query.n + 1)
        return real(query, *args, **kwargs)

    monkeypatch.setattr(bessel, "kl_direct", counted)
    assert cli.main(["bessel", "--p", "5", "--t-max", "2", "--n", "2", "3", "4"]) == 0
    assert calls and all(calls.count(n) <= 2 for n in (2, 3, 4))
    assert 2 not in calls  # n = 2 builds its one-dimensional row itself


@pytest.mark.parametrize("p,t", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_one_dimensional_kloosterman_row_is_the_per_unit_sum(p, t):
    # the n = 2 closed form's row, one one-hot stack, against w(v) psi(v / p^t)
    # one unit at a time, for every twist w at level t
    for w in enumerate_chars(p, t):
        exact, floats = bessel._kl1_row(w, t, EXACT), bessel._kl1_row(w, t, FLOAT)
        for d, v in enumerate(unit_group(p, t).powers.tolist()):
            want = w.eval(v) * psi_eval(p, Fraction(v, p ** t))
            assert exact[d] == want, (w, v)
            assert FLOAT.eq(floats[d], want.to_complex())


@pytest.mark.parametrize("p,pi", [PI_N2[1], PI_N3[0], PI_N3[1], PI_N4[0]])
def test_closedform_measured_equals_charsum_everywhere(p, pi):
    t = pi.conductor_exponent
    z = zvec(p, t)
    rep = measure_prefactor(pi, z)
    sums, closed = charsum_at(pi, z), closedform_at(pi, z, rep)
    zeros = 0
    for y0 in shell_units(p, t):
        assert sums[y0].eq_value(closed[y0], p, EXACT), y0
        zeros += sums[y0].is_zero_exact()
    # vanishing Kloosterman classes are part of the agreement, when present
    assert zeros < len(shell_units(p, t))


@pytest.mark.parametrize("preset", ["lemma41", "prop42", "cor13"])
def test_printed_presets_do_not_reproduce_the_charsum(preset):
    # that failure is the finding, not a bug: none of the printed constants
    # (1 - q^{-1})^{-(n-1)} q^E carries both the measured q-power and the
    # measured (trivial) cofactor
    for p, pi in (PI_N2[1], PI_N3[0], PI_N4[0]):
        n, t = pi.dim, pi.conductor_exponent
        z = zvec(p, t)
        omega = pi.central_char()
        const = ScaledScalar.of(Fraction(p, p - 1) ** (n - 1),
                                bessel._candidate_exponents(n, t)[preset])
        measured = Fraction(t * (n - 1) * (n - 2), 2)
        mismatch = False
        sums = charsum_at(pi, z)
        for y0 in shell_units(p, t):
            a0 = (-1) ** n * y0 * pow(z.unit_mod(t), -1, p ** t) % p ** t
            kl = kl_at(omega, n, a0, t)
            # the same construction with the measured constant is the closed form
            assert sums[y0].eq_value(ScaledScalar.of(kl, measured), p, EXACT)
            if not sums[y0].is_zero_exact():
                mismatch = mismatch or not sums[y0].eq_value(const * kl, p, EXACT)
        assert mismatch, (preset, p, n)


def test_closedform_refuses_a_report_for_another_representation():
    # the n = 3 Steinberg's report, handed to the n = 2 probe at the same
    # p = 3, t = 2, would scale the closed form by q^2; it is refused instead
    z = zvec(3, 2)
    report = measure_prefactor(steinberg(trivial_char(3), 3), z)
    probe = steinberg(MultChar(3, 1, 1), 2)
    with pytest.raises(ValueError, match="prefactor report is for"):
        bessel_closedform(probe, z, report)
    matching = measure_prefactor(probe, z)
    for other in (replace(matching, p=5), replace(matching, t=3)):
        with pytest.raises(ValueError, match="prefactor report is for"):
            bessel_closedform(probe, z, other)
    got, want = closedform_at(probe, z, matching), charsum_at(probe, z)
    assert all(got[y0].eq_value(want[y0], 3, EXACT) for y0 in shell_units(3, 2))


def test_spec_instance_n3_trivial_central_character():
    # the worked instance: n=3, p=3, t=2, omega trivial; measured preset
    # reproduces the charsum on the whole shell, constant q^2 on the nose
    pi = steinberg(trivial_char(3), 3)
    z = zvec(3, 2)
    rep = measure_prefactor(pi, z)
    assert rep.measured_exponent == 2 and rep.cofactor == 1
    got, want = closedform_at(pi, z, rep), charsum_at(pi, z)
    for y0 in shell_units(3, 2):
        assert got[y0].eq_value(want[y0], 3, EXACT)


# ---------------------------------------------------------------------------
# transforms depend only on (n, omega): the disjoint-pair consequence
# ---------------------------------------------------------------------------


def test_equal_central_character_pairs_have_equal_transforms():
    pairs = [
        (3, steinberg(trivial_char(3), 3),
         RepnData.of(Block(MultChar(3, 1, 1), 2), Block(trivial_char(3)))),
        (5, steinberg(MultChar(5, 1, 2), 2),
         RepnData.of(Block(MultChar(5, 1, 1)), Block(MultChar(5, 1, 3)))),
    ]
    for p, pi1, pi2 in pairs:
        assert pi1 != pi2
        om1, om2 = pi1.central_char(), pi2.central_char()
        level = max(om1.level, om2.level)
        assert om1.induce(level).k == om2.induce(level).k
        assert pi1.conductor_exponent == pi2.conductor_exponent
        t = pi1.conductor_exponent
        z = zvec(p, t)
        b1, b2 = charsum_at(pi1, z), charsum_at(pi2, z)
        for y0 in shell_units(p, t):
            assert b1[y0].eq_value(b2[y0], p, EXACT), y0


# ---------------------------------------------------------------------------
# float backend cross-checks
# ---------------------------------------------------------------------------


def test_charsum_and_closedform_float_agree_with_exact():
    p, pi = PI_N3[0]
    t = pi.conductor_exponent
    z = zvec(p, t)
    rep = measure_prefactor(pi, z)
    for build in (lambda b: charsum_at(pi, z, b), lambda b: closedform_at(pi, z, rep, b)):
        exact, floats = build(EXACT), build(FLOAT)
        for y0 in shell_units(p, t):
            ve, vf = exact[y0].to_complex(p), floats[y0].to_complex(p)
            assert abs(ve - vf) <= 1e-9 * max(1.0, abs(ve))


# ---------------------------------------------------------------------------
# standing assumptions: each rejection names its condition
# ---------------------------------------------------------------------------


def test_rejects_everything_outside_the_regime():
    z_ok = zvec(3, 2)
    pi_ok = steinberg(trivial_char(3), 3)
    with pytest.raises(ValueError, match="dimension >= 2"):
        bessel_charsum(RepnData.of(Block(MultChar(3, 2, 1))), zvec(3, 2))
    with pytest.raises(ValueError, match="exceed 1"):
        bessel_charsum(steinberg(trivial_char(3), 2), z_ok)  # a(pi) = 1
    with pytest.raises(ValueError, match="strictly below"):
        # principal series tau x trivial: a(omega) = a(tau) = a(pi)
        bessel_charsum(RepnData.of(Block(MultChar(3, 2, 1)), Block(trivial_char(3))), z_ok)
    with pytest.raises(ValueError, match="nonzero"):
        bessel_charsum(pi_ok, PadicNumber(3, 0))
    with pytest.raises(ValueError, match="deep enough"):
        bessel_charsum(pi_ok, zvec(3, 1))
    with pytest.raises(ValueError, match="mixed primes"):
        bessel_charsum(pi_ok, zvec(5, 2))
    with pytest.raises(ValueError, match="mixed primes"):
        duality_check(pi_ok, z_ok, MultChar(5, 1, 1))
    with pytest.raises(ValueError, match="mixed primes"):
        gauss_integral(MultChar(5, 1, 1), z_ok)
    # the same gate guards the other entry points
    with pytest.raises(ValueError, match="deep enough"):
        bessel_closedform(pi_ok, zvec(3, 1), measure_prefactor(pi_ok, z_ok))
    with pytest.raises(ValueError, match="deep enough"):
        measure_prefactor(pi_ok, zvec(3, 1))


def test_each_public_entry_validates_once(monkeypatch):
    # the private code behind an entry reuses the checked (n, t, omega)
    p, pi = PI_N3[0]
    t = pi.conductor_exponent
    z = zvec(p, t)
    chi = chars_with_conductor(p, t)[0]
    real, calls = bessel._standing_assumptions, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bessel, "_standing_assumptions", counted)
    rep = measure_prefactor(pi, z)
    for entry in (lambda: measure_prefactor(pi, z),
                  lambda: bessel_charsum(pi, z),
                  lambda: bessel_closedform(pi, z, rep),
                  lambda: duality_check(pi, z, chi)):
        calls.clear()
        entry()
        assert calls == [(pi, z)]
