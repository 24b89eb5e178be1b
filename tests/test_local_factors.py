"""Gauss sums, root numbers, epsilon monomials, and both stability engines."""
import hashlib
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsilonlab import local_factors
from epsilonlab.characters import MultChar, QuasiChar, represent_at_level, trivial_char, v_chi
from epsilonlab.local_factors import (
    Block,
    CertificateTable,
    EpsMonomial,
    RegimeError,
    RepnData,
    enumerate_reps,
    eps_gl1,
    eps_rep_twisted,
    gauss_sum,
    gauss_sum_full_level,
    gl1_stability_check,
    root_number,
    stability_check,
    stability_rhs,
    steinberg,
)
from epsilonlab.padic import phi
from epsilonlab.scalars import (
    EXACT,
    FLOAT,
    CycContext,
    CycNumber,
    ScaledScalar,
    root_of_unity,
)


from epsilonlab.characters import chars_with_conductor as conductor_chars


SMALL_RANGE = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,a", SMALL_RANGE)
def test_gauss_modulus(p, a):
    q_a = CycNumber.rational(p ** a)
    for chi in conductor_chars(p, a):
        tau = gauss_sum(chi)
        assert tau * tau.conjugate() == q_a


@pytest.mark.parametrize("p,a", SMALL_RANGE)
def test_gauss_conjugate_pairing(p, a):
    # tau(chi) tau(chi^{-1}) = chi(-1) q^a  and  conj(tau(chi)) = chi(-1) tau(chi^{-1})
    q_a = CycNumber.rational(p ** a)
    for chi in conductor_chars(p, a):
        parity = chi.eval(-1 % p ** a)
        assert gauss_sum(chi) * gauss_sum(chi.inv()) == parity * q_a
        assert gauss_sum(chi).conjugate() == parity * gauss_sum(chi.inv())


def test_gauss_frozen_classical_values():
    # quadratic characters: tau = sqrt(p) for p = 1 mod 4, i sqrt(p) for p = 3 mod 4
    assert abs(gauss_sum(MultChar(5, 1, 2)).to_complex() - 2.2360679774997896) < 1e-12
    assert abs(gauss_sum(MultChar(3, 1, 1)).to_complex() - 1.7320508075688772j) < 1e-12
    assert abs(gauss_sum(MultChar(7, 1, 3)).to_complex() - 2.6457513110645907j) < 1e-12


def test_gauss_presentation_invariance():
    # the same character presented at a deeper level gives the same sum
    chi2 = MultChar(5, 2, 1)
    chi3 = chi2.induce(3)
    assert chi3.level == 3 and chi3.conductor_exponent == 2
    assert gauss_sum(chi3) == gauss_sum(chi2)


def test_gauss_needs_ramified():
    with pytest.raises(ValueError):
        gauss_sum(trivial_char(5))


def test_full_level_degeneracies():
    # above the conductor the sum dies, except the classical -1 at level 1
    assert gauss_sum_full_level(trivial_char(5), 1) == CycNumber.rational(-1)
    assert gauss_sum_full_level(trivial_char(5), 2).is_zero()
    chi = MultChar(5, 1, 1)
    assert gauss_sum_full_level(chi, 2).is_zero()
    assert gauss_sum_full_level(chi, 3).is_zero()
    assert gauss_sum_full_level(chi, 1) == gauss_sum(chi)
    with pytest.raises(ValueError):
        gauss_sum_full_level(MultChar(5, 2, 1), 1)


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 2)])
def test_full_level_sum_matches_per_unit_definition(p, t):
    # sum over units x mod p^t of chi(x) zeta_{p^t}^x, with chi presented below
    # (at its conductor), at and above level t
    units = [x for x in range(1, p ** t) if x % p]
    for k in range(phi(p, t)):
        chi = MultChar(p, t, k)
        low = represent_at_level(chi, max(chi.conductor_exponent, 1))
        want = CycNumber.zero()
        for x in units:
            want = want + chi.eval(x) * root_of_unity(x, p ** t)
        for form in {low, chi, chi.induce(t + 1)}:
            assert gauss_sum_full_level(form, t) == want, (p, t, k, form.level)
            assert FLOAT.eq(gauss_sum_full_level(form, t, FLOAT), want.to_complex())


def test_gauss_cache_is_keyed_by_the_character():
    # one character presented at levels 1, 2 and 3 is one cached sum
    chi = MultChar(5, 2, 5)
    forms = [represent_at_level(chi, 1), chi, chi.induce(3)]
    assert [f.level for f in forms] == [1, 2, 3]
    local_factors._gauss_sum_at_level.cache_clear()
    values = [gauss_sum_full_level(f, 2) for f in forms]
    info = local_factors._gauss_sum_at_level.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert values[0] is values[1] is values[2]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 2), (5, 1), (5, 2), (7, 1)]), st.integers(1, 40), st.integers(1, 48))
def test_gauss_twisted_argument(pa, k, c):
    # sum chi(x) zeta^{cx} = chi^{-1}(c) tau(chi) for any unit c
    p, a = pa
    chi = MultChar(p, a, k)
    if chi.conductor_exponent != a or c % p == 0:
        return
    pa_ = p ** a
    m = chi.group_order
    N = pa_ * m // np.gcd(pa_, m)
    acc = CycNumber.zero()
    for x in range(1, pa_):
        if x % p == 0:
            continue
        acc = acc + chi.eval(x) * root_of_unity(c * x * (N // pa_), N)
    assert acc == chi.inv().eval(c) * gauss_sum(chi)


# ---------------------------------------------------------------------------
# root numbers and GL(1) epsilon monomials
# ---------------------------------------------------------------------------


def test_root_number_classical_values():
    # Gauss: the quadratic character has W = 1 (p = 1 mod 4) or -i (p = 3 mod 4)
    assert abs(root_number(MultChar(5, 1, 2)).to_complex(5) - 1) < 1e-12
    assert abs(root_number(MultChar(3, 1, 1)).to_complex(3) - (-1j)) < 1e-12
    assert abs(root_number(MultChar(7, 1, 3)).to_complex(7) - (-1j)) < 1e-12


@pytest.mark.parametrize("p,a", SMALL_RANGE)
def test_root_number_modulus_one(p, a):
    for chi in conductor_chars(p, a):
        w = root_number(chi)
        assert w.qexp == Fraction(-a, 2)
        assert w.coeff.norm_squared() == CycNumber.rational(p ** a)


def test_root_number_unramified():
    w = root_number(trivial_char(7))
    assert w.qexp == 0 and w.coeff == CycNumber.one()


@pytest.mark.parametrize("p,a", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_functional_equation(p, a):
    # eps(chi) * eps(chi^{-1})|_{s -> 1-s} = chi(-1), as monomials
    for chi in conductor_chars(p, a):
        prod = eps_gl1(chi) * eps_gl1(chi.inv()).reflect()
        want = ScaledScalar.of(chi.eval(-1 % p ** a))
        assert prod.xexp == 0
        assert prod.value.eq_value(want, p, EXACT)


def test_eps_gl1_shape():
    chi = MultChar(5, 2, 1)
    e = eps_gl1(chi)
    assert e.xexp == 2  # conductor read off the monomial
    assert eps_gl1(trivial_char(5)).xexp == 0
    assert eps_gl1(trivial_char(5)).value.eq_value(ScaledScalar.of(1), 5, EXACT)


def test_eps_gl1_unramified_shift_is_trivial_monomial():
    # |.|^{s0} alone contributes nothing: conductor 0, value 1
    e = eps_gl1(QuasiChar(trivial_char(5), Fraction(3, 2)))
    assert e.xexp == 0 and e.value.eq_value(ScaledScalar.of(1), 5, EXACT)


def test_eps_gl1_quasi_shift_scales_value():
    chi = MultChar(5, 2, 3)
    s0 = Fraction(1, 2)
    shifted = eps_gl1(QuasiChar(chi, s0))
    plain = eps_gl1(chi)
    assert shifted.xexp == plain.xexp
    assert shifted.value.qexp == plain.value.qexp - 2 * s0
    assert shifted.value.coeff == plain.value.coeff


@pytest.mark.parametrize(
    "p,a,u,v",
    [(5, 2, 2, 1), (5, 2, 3, -1), (3, 2, 2, 2), (7, 1, 3, 1), (7, 2, 5, -2)],
)
def test_psi_rescaling_axiom(p, a, u, v):
    # replacing psi by psi(c .) with c = u p^v multiplies eps by chi(u) and
    # shifts the conductor exponent by v
    chi = next(c for c in conductor_chars(p, a))
    scale = Fraction(u) * Fraction(p) ** v
    got = eps_gl1(chi, psi_scale=scale)
    want_val = ScaledScalar.of(chi.eval(u)) * root_number(chi)
    assert got.xexp == a + v
    assert got.value.eq_value(want_val, p, EXACT)


# ---------------------------------------------------------------------------
# the two-character stability lemma
# ---------------------------------------------------------------------------


def admissible_mus(p, a_chi):
    out = [trivial_char(p)]
    for s in range(1, a_chi // 2 + 1):
        out.extend(conductor_chars(p, s))
    return out


@pytest.mark.parametrize("p,a", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)])
def test_two_char_stability_exhaustive(p, a):
    checked = 0
    for chi in conductor_chars(p, a):
        for mu in admissible_mus(p, a):
            res = gl1_stability_check(mu, chi)
            assert res.holds, (chi, mu)
            checked += 1
    assert checked >= len(conductor_chars(p, a))


@pytest.mark.parametrize("p,a", [(3, 2), (5, 2), (5, 3)])
def test_two_char_stability_rep_independence(p, a):
    # the verdict cannot depend on which unit lift of the v_chi class is used
    for chi in conductor_chars(p, a)[:6]:
        rc = v_chi(chi)
        assert not rc.vacuous
        for mu in admissible_mus(p, a):
            reps = rc.lifts()[:3]
            results = [gl1_stability_check(mu, chi, vclass_rep=r) for r in reps]
            assert all(r.holds for r in results)


def test_two_char_stability_gate():
    with pytest.raises(RegimeError):
        gl1_stability_check(MultChar(5, 2, 1), MultChar(5, 2, 3))  # 2 a(mu) > a(chi)
    with pytest.raises(RegimeError):
        gl1_stability_check(trivial_char(5), trivial_char(5))  # a(chi) = 0
    with pytest.raises(ValueError):
        gl1_stability_check(trivial_char(5), MultChar(5, 2, 1), vclass_rep=5)  # not a unit


# ---------------------------------------------------------------------------
# representations as block data
# ---------------------------------------------------------------------------


def test_block_conductor_contributions():
    tau = MultChar(5, 2, 1)
    assert Block(tau, 3).conductor_contribution == 6  # d * a(tau), ramified
    assert Block(trivial_char(5), 3).conductor_contribution == 2  # d - 1, unramified
    assert Block(trivial_char(5), 1).conductor_contribution == 0
    with pytest.raises(ValueError):
        Block(tau, 0)


def test_repn_invariants():
    t1, t2 = MultChar(5, 1, 1), MultChar(5, 2, 3)
    pi = RepnData.of(Block(t1), Block(t2))
    assert pi.dim == 2
    assert pi.conductor_exponent == 3
    omega, want = pi.central_char().finite, t1.mul(t2)
    level = max(omega.level, want.level)
    assert omega.induce(level).k == want.induce(level).k
    assert pi.central_char().shift == 0
    # block order is canonical, not insertion order
    assert RepnData.of(Block(t2), Block(t1)) == RepnData.of(Block(t1), Block(t2))
    st2 = steinberg(trivial_char(5), 2)
    assert st2.conductor_exponent == 1 and st2.dim == 2
    with pytest.raises(ValueError):
        RepnData.of(Block(t1), Block(MultChar(3, 1, 1)))
    with pytest.raises(ValueError):
        RepnData.of()


def test_repn_shifted_central_char():
    tau = MultChar(5, 1, 1)
    pi = RepnData.of(Block(tau, 2, Fraction(1, 2)))
    omega = pi.central_char()
    assert omega.shift == 1
    level = max(omega.finite.level, tau.level)
    assert omega.finite.induce(level).k == (tau ** 2).induce(level).k


def test_steinberg_shift_cancellation():
    # the internal |.|^{(d-1)/2 - j} shifts of a size-d block cancel when the
    # fused character is ramified, so the block equals a clean d-th power
    chi = MultChar(5, 2, 1)
    d = 3
    manual = EpsMonomial(ScaledScalar.of(EXACT.one()), 0)
    for j in range(d):
        manual = manual * eps_gl1(QuasiChar(chi, Fraction(d - 1, 2) - j))
    assert manual.equals(eps_gl1(chi) ** d, 5, EXACT)


def test_eps_rep_unramified_inside_block_refused():
    tau = MultChar(5, 2, 1)
    with pytest.raises(RegimeError):
        eps_rep_twisted(steinberg(tau, 2), tau.inv())
    # size-1 blocks are fine: it is just GL(1)
    out = eps_rep_twisted(RepnData.of(Block(tau, 1)), tau.inv())
    assert out.xexp == 0


def test_eps_rep_blockwise_product():
    t1, t2 = MultChar(5, 1, 1), MultChar(5, 1, 2)
    chi = MultChar(5, 2, 1)
    pi = RepnData.of(Block(t1), Block(t2))
    got = eps_rep_twisted(pi, chi)
    want = eps_gl1(t1.mul(chi)) * eps_gl1(t2.mul(chi))
    assert got.equals(want, 5, EXACT)
    st2 = steinberg(t1, 2)
    got = eps_rep_twisted(st2, chi)
    assert got.equals(eps_gl1(t1.mul(chi)) ** 2, 5, EXACT)


def test_eps_rep_psi_scale_matches_central_char():
    p = 5
    pi = RepnData.of(Block(MultChar(p, 1, 1)), Block(MultChar(p, 1, 2)))
    chi = MultChar(p, 2, 1)
    c = Fraction(2 * p)
    got = eps_rep_twisted(pi, chi, psi_scale=c)
    plain = eps_rep_twisted(pi, chi)
    omega = pi.central_char().finite.mul(chi ** pi.dim)
    want_val = plain.value * ScaledScalar.of(omega.eval(2))
    assert got.xexp == plain.xexp + pi.dim * 1
    assert got.value.eq_value(want_val, p, EXACT)


# ---------------------------------------------------------------------------
# the stability theorem: direct engine
# ---------------------------------------------------------------------------


def rep_zoo(p):
    t1 = MultChar(p, 1, 1)
    t2 = MultChar(p, 1, 2)
    return [
        steinberg(trivial_char(p), 2),
        steinberg(trivial_char(p), 3),
        steinberg(t1, 2),
        RepnData.of(Block(t1), Block(trivial_char(p))),
        RepnData.of(Block(t1), Block(t2)),
        RepnData.of(Block(t1), Block(t2), Block(trivial_char(p))),
        RepnData.of(Block(t1, 2), Block(trivial_char(p), 1)),
    ]


@pytest.mark.parametrize("p", [3, 5])
def test_stability_direct_sweep(p):
    for pi in rep_zoo(p):
        for a in range(max(pi.conductor_exponent, 1), 4):
            if p == 5 and a == 3 and pi.dim >= 3:
                continue  # keep runtime modest; acceptance sweeps go deeper
            for chi in conductor_chars(p, a)[:4]:
                rep = stability_check(pi, chi)
                assert rep.holds, (pi.describe(), chi)


def test_stability_hypothesis_gate():
    pi = RepnData.of(Block(MultChar(5, 2, 1)), Block(MultChar(5, 2, 3)))  # conductor 4
    with pytest.raises(RegimeError):
        stability_check(pi, MultChar(5, 2, 1))


def test_stability_negative_control():
    # outside the hypothesis the collapse genuinely fails: the raw comparison
    # (bypassing the gate) must come out unequal, so the comparator is no tautology
    p = 5
    tau = MultChar(p, 2, 1)
    pi = RepnData.of(Block(tau), Block(tau.inv()))
    chi = MultChar(p, 1, 1)  # a(chi) = 1 < a(pi) = 4
    lhs = eps_rep_twisted(pi, chi)
    rhs = stability_rhs(pi, chi)
    assert not lhs.equals(rhs, p, EXACT)


def test_stability_shifted_blocks():
    # unramified shifts ride along: same verdict with a |.|^{1/2} block twist
    p = 5
    pi = RepnData.of(Block(MultChar(p, 1, 1), 1, Fraction(1, 2)),
                     Block(trivial_char(p), 1, Fraction(-1, 2)))
    chi = MultChar(p, 2, 1)
    assert stability_check(pi, chi).holds


# ---------------------------------------------------------------------------
# the stability theorem: certificate engine
# ---------------------------------------------------------------------------


def test_certificate_row_indexing():
    table = CertificateTable(5, 2)
    assert len(table.row_ks) == 16  # phi(25) - phi(5) conductor-2 characters
    for row in range(len(table.row_ks)):
        chi = table.chi_of_row(row)
        assert chi.conductor_exponent == 2
        assert table.index_of(chi) == row
    with pytest.raises(ValueError):
        table.index_of(MultChar(5, 2, 5))  # order 4, conductor 1, not 2
    with pytest.raises(ValueError):
        table.index_of(MultChar(3, 2, 1))


@pytest.mark.parametrize("p,a", [(3, 1), (3, 4), (5, 1), (5, 3), (7, 2), (11, 2)])
def test_certificate_rows_are_the_conductor_a_exponents(p, a):
    table = CertificateTable(p, a)
    M = phi(p, a)
    want = [k for k in range(M) if MultChar(p, a, k).conductor_exponent == a]
    assert table.row_ks.tolist() == want
    assert (table._row_of[table.row_ks] == np.arange(len(want))).all()
    others = np.setdiff1d(np.arange(M), table.row_ks)
    assert (table._row_of[others] == -1).all()


def test_certificate_regime_guard():
    table = CertificateTable(5, 2)
    with pytest.raises(RegimeError):
        table.exponents(MultChar(5, 2, 1))  # 2 a(mu) > a
    assert (table.exponents(trivial_char(5)) == 0).all()


def test_certificate_trivial_column_consistency():
    # mu = 1: tau(chi) conj(tau(chi)) = q^a, exponent 0 — via the public checker
    p, a = 5, 2
    table = CertificateTable(p, a)
    pi = RepnData.of(Block(trivial_char(p)), Block(trivial_char(p)))
    with pytest.raises(RegimeError):
        # both blocks unramified and size 1: handled, but the twisted multiset
        # shortcut answers first; build it explicitly to pin that behavior
        eps_rep_twisted(steinberg(trivial_char(p), 2), trivial_char(p))
    verdict = table.check_pairs(pi, np.arange(len(table.row_ks)))
    assert verdict.all()


@pytest.mark.parametrize("p,a", [(3, 2), (3, 3), (5, 2)])
def test_certificate_matches_direct_exhaustively(p, a):
    table = CertificateTable(p, a)
    reps = enumerate_reps(p, 3, a)
    rows = np.arange(len(table.row_ks))
    pairs = 0
    for pi in reps:
        try:
            verdict = table.check_pairs(pi, rows)
        except RegimeError:
            continue
        for i in rows:
            chi = table.chi_of_row(int(i))
            direct = stability_check(pi, chi)
            assert direct.holds and bool(verdict[i]), (pi.describe(), chi)
            pairs += 1
    assert pairs >= 100
    assert table.fallback_count == 0  # collapse recognized everywhere


def test_certificate_nu_path_matches_direct():
    # one block too deep for the lemma columns: handled by cancelling against omega
    p, a = 3, 3
    table = CertificateTable(p, a)
    pi = RepnData.of(Block(MultChar(3, 2, 1)), Block(MultChar(3, 1, 1)))
    rows = np.arange(len(table.row_ks))
    verdict = table.check_pairs(pi, rows)
    assert verdict.all()
    for i in (0, len(rows) // 2, len(rows) - 1):
        chi = table.chi_of_row(int(i))
        assert stability_check(pi, chi).holds


def test_certificate_multiset_shortcut():
    # pi twisted multiset literally equals the stable multiset: certificate is
    # structural, no column computations needed.  The level-1 tau is presented
    # below a, so its multiset matches only once it is read at level a.
    p, a = 5, 2
    for tau in (MultChar(p, 2, 1), MultChar(p, 1, 1)):
        table = CertificateTable(p, a)
        pi = RepnData.of(Block(tau), Block(trivial_char(p)))
        verdict = table.check_pairs(pi, np.arange(len(table.row_ks)))
        assert verdict.all()
        assert not table._mu_cache  # nothing was tabulated


def test_certificate_slow_path_matches_fast_path(monkeypatch):
    # with no collapsed certificates every row takes _fallback_exponent
    cases = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]
    mus = {(p, a): [mu for s in range(1, a // 2 + 1) for mu in conductor_chars(p, s)]
           for p, a in cases}
    fast = {}
    for p, a in cases:
        table = CertificateTable(p, a)
        fast[p, a] = [table.exponents(mu) for mu in mus[p, a]]
        assert table.fallback_count == 0
    monkeypatch.setattr(local_factors, "_collapsed_certificates", lambda mu, M: {})
    recomputed = 0
    for p, a in cases:
        table = CertificateTable(p, a)
        for mu, want in zip(mus[p, a], fast[p, a]):
            assert (table.exponents(mu) == want).all(), (p, a, mu)
        rows = len(mus[p, a]) * len(table.row_ks)
        assert table.fallback_count == rows
        recomputed += rows
    assert recomputed == 484


@pytest.mark.parametrize("M,rows,cols", [(6, 4, 3), (20, 5, 7), (294, 3, 40), (2500, 2, 50)])
def test_batch_root_sums_are_the_sparse_root_combinations(M, rows, cols):
    E = np.random.default_rng(M).integers(0, M, (rows, cols))
    D = local_factors._batch_root_sums(M, E)
    assert len(D) == rows and D.dtype == np.int64
    for drow, erow in zip(D, E.tolist()):
        num, den = EXACT.root_combination(M, Counter(erow))._lift_vec(M)
        assert den == 1
        assert drow.tolist() == num
        # the row's bytes are the key _collapsed_certificates builds from num
        assert drow.tobytes() == local_factors._coordinate_key(num)


def test_certificate_object_rows_take_the_slow_path(monkeypatch):
    # An object-dtype reduction holds pointers, so its rows must never be keyed
    # by their bytes: each one is recognised on the slow path instead.
    cases = [(5, 2), (3, 3)]
    fast = {}
    for p, a in cases:
        table = CertificateTable(p, a)
        fast[p, a] = [table.exponents(mu) for mu in conductor_chars(p, 1)]
        assert table.fallback_count == 0
    monkeypatch.setattr(CycContext, "fits_int64", lambda self, max_abs: False)
    seen = []
    real = CycContext.reduce_groupring

    def spy(self, vec):
        out = real(self, vec)
        if vec.ndim == 2:
            seen.append(out.dtype)
        return out

    monkeypatch.setattr(CycContext, "reduce_groupring", spy)
    looked_up = []

    class Recording(dict):
        def get(self, key, default=None):
            looked_up.append(key)
            return super().get(key, default)

    collapsed = local_factors._collapsed_certificates
    monkeypatch.setattr(local_factors, "_collapsed_certificates",
                        lambda mu, M: Recording(collapsed(mu, M)))
    for p, a in cases:
        table = CertificateTable(p, a)
        mus = conductor_chars(p, 1)
        for mu, want in zip(mus, fast[p, a]):
            assert (table.exponents(mu) == want).all(), (p, a, mu)
        assert table.fallback_count == len(mus) * len(table.row_ks)
    assert seen == [object] * sum(len(conductor_chars(p, 1)) for p, a in cases)
    assert looked_up == []


def test_certificate_long_keys_at_conductor_four():
    # M = phi(625) = 500: every in-regime column (a(mu) = 1, 2) is recognised
    # by its dense row, and a stride of rows agrees with the slow path.
    table = CertificateTable(5, 4)
    mus = [mu for s in (1, 2) for mu in conductor_chars(5, s)]
    columns = [table.exponents(mu) for mu in mus]
    assert len(mus) == 19 and len(table.row_ks) == 400
    assert table.fallback_count == 0
    for mu, column in zip(mus, columns):
        for row in range(0, len(table.row_ks), 17):
            assert table._fallback_exponent(mu, row) == column[row], (mu, row)


def test_certificate_fallback_agrees_with_collapse():
    for p, a in [(5, 2), (3, 3)]:
        table = CertificateTable(p, a)
        mu = MultChar(p, 1, 1)
        exps = table.exponents(mu)
        for row in range(len(table.row_ks)):
            assert table._fallback_exponent(mu, row) == exps[row]


def test_certificate_rejects_shifted_blocks():
    p = 5
    table = CertificateTable(p, 2)
    pi = RepnData.of(Block(MultChar(p, 1, 1), 1, Fraction(1, 2)))
    with pytest.raises(RegimeError):
        table.check_pairs(pi, np.arange(1))


def test_stability_methods_agree():
    pi = steinberg(trivial_char(5), 2)
    chi = MultChar(5, 2, 1)
    assert stability_check(pi, chi).holds
    table = CertificateTable(5, 2)
    assert table.check_pairs(pi, np.array([table.index_of(chi)]))[0]


def test_stability_float_backend():
    pi = RepnData.of(Block(MultChar(5, 1, 1)), Block(MultChar(5, 1, 2)))
    chi = MultChar(5, 2, 3)
    assert stability_check(pi, chi, backend=FLOAT).holds


# ---------------------------------------------------------------------------
# sweep enumeration
# ---------------------------------------------------------------------------


def test_enumerate_reps_deterministic_and_bounded():
    reps1 = enumerate_reps(5, 3, 4)
    reps2 = enumerate_reps(5, 3, 4)
    assert reps1 == reps2
    assert len(set(reps1)) == len(reps1)
    assert all(pi.dim <= 3 and pi.conductor_exponent <= 4 for pi in reps1)
    assert steinberg(trivial_char(5), 2) in reps1
    assert RepnData.of(Block(MultChar(5, 1, 1)), Block(trivial_char(5))) in reps1


# sha256 of repr([tuple((tau.level, tau.k, size) for each block) for each rep])
# in output order, recorded before the block costs were read into a list.
ENUMERATION_ORDER = [
    pytest.param((5, 4, 4), 4011,
                 "fb21732fc86d82246a4da4a50f3a034f44f50b429321e53f0691d37171873471", id="5-4-4"),
    pytest.param((7, 3, 2), 174,
                 "2138a97b004a2edc466635fd865323809bc37e7268dbfb6067964278128b4ce5", id="7-3-2"),
]


@pytest.mark.parametrize("args,count,digest", ENUMERATION_ORDER)
def test_enumerate_reps_order_is_pinned(args, count, digest):
    reps = enumerate_reps(*args)
    keys = [tuple((b.tau.level, b.tau.k, b.size) for b in pi.blocks) for pi in reps]
    assert len(keys) == count
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest


def brute_enumerate_reps(p, n_max, a_max):
    """Every budget-respecting multiset of candidate blocks, from an unpruned
    combinations_with_replacement, first occurrence of each block key kept."""
    pool = [trivial_char(p)] + [chi for a in range(1, a_max + 1)
                                for chi in conductor_chars(p, a)]
    blocks = [Block(tau, d) for tau in pool for d in range(1, n_max + 1)
              if Block(tau, d).conductor_contribution <= a_max]
    out, seen = [], set()
    for r in range(1, n_max + 1):
        for bs in itertools.combinations_with_replacement(blocks, r):
            if (sum(b.size for b in bs) > n_max
                    or sum(b.conductor_contribution for b in bs) > a_max):
                continue
            rep = RepnData.of(*bs)
            key = tuple(sorted((b.tau.level, b.tau.k, b.size) for b in rep.blocks))
            if key not in seen:
                seen.add(key)
                out.append(rep)
    return out


@pytest.mark.parametrize("args", [(3, 3, 3), (5, 3, 3)])
def test_enumerate_reps_is_the_brute_force_enumeration(args):
    assert enumerate_reps(*args) == brute_enumerate_reps(*args)


def test_enumerate_reps_scales_to_the_full_default_pool():
    # the default pool at p=5, a_max=4 holds ~500 characters; the enumeration
    # must prune by the size/conductor budgets rather than walk all index
    # combinations, or this never finishes
    reps = enumerate_reps(5, 4, 4)
    assert len(reps) == 4011
    assert len(set(reps)) == len(reps)
    assert all(pi.dim <= 4 and pi.conductor_exponent <= 4 for pi in reps)
    # spot-check the extremes: a full-size block and a full-conductor character
    assert steinberg(trivial_char(5), 4) in reps
    assert any(pi.dim == 1 and pi.conductor_exponent == 4 for pi in reps)
