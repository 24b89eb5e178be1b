"""Gauss sums, root numbers, epsilon monomials, and both stability engines."""
import hashlib
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsilonlab import local_factors, scalars
from epsilonlab.characters import (MultChar, enumerate_chars, represent_at_level, trivial_char,
                                   v_chi)
from epsilonlab.local_factors import (
    Block,
    CertificateTable,
    RegimeError,
    RepnData,
    RootNumberForms,
    enumerate_reps,
    eps_gl1,
    eps_rep_twisted,
    gauss_sum,
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
    get_context,
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


def gauss_sum_full_level(chi, t, backend=EXACT):
    """The Gauss sum over units mod p^t for any t >= a(chi): the oracle for
    build_gauss_table.  Vanishes for a(chi) < t unless t = 1, where the
    trivial character gives -1."""
    if t < 1:
        raise ValueError("level must be >= 1")
    if chi.conductor_exponent > t:
        raise ValueError("character does not factor through level %d" % t)
    return local_factors._gauss_sum_at_level(chi.p, represent_at_level(chi, t).k, t, backend)


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
# Gauss sums as monomials
# ---------------------------------------------------------------------------


def _legendre(x, p):
    """(x/p) by Euler's criterion."""
    return {0: 0, 1: 1, p - 1: -1}[pow(x, (p - 1) // 2, p)]


def _written_back(angle, s, p, A):
    """The CycNumber r zeta_A^angle g^flag, r = p^(s // 2) and flag = s mod 2,
    with g = sum_x (x/p) zeta_p^x placed term by term into one count vector."""
    r, flag = p ** (s // 2), s % 2
    if not flag:
        return r * root_of_unity(angle, A)
    vec = np.zeros(A, dtype=np.int64)
    for x in range(1, p):
        vec[(angle + x * (A // p)) % A] = r * _legendre(x, p)
    return EXACT.root_combination_vec(A, vec)


def _field(p, a):
    return p ** a * (p - 1)  # lcm(p^a, phi(p^a)) for odd p


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_quadratic_gauss_sum_squares_to_p_star(p):
    g = local_factors._quadratic_gauss_sum(p)
    assert g == _written_back(0, 1, p, p)  # the sum by Euler's criterion
    p_star = _legendre(p - 1, p) * p
    assert g * g == CycNumber.rational(p_star)
    assert g.conjugate() == _legendre(p - 1, p) * g
    # the quadratic character at conductor one is g itself, and its form says so
    A = _field(p, 1)
    assert local_factors._gauss_form(g, p, 1, A) == 0
    assert local_factors._form_product(p, A, [(0, 1, 2)]) == (0 if p_star > 0 else A // 2, 2)


@pytest.mark.parametrize("p,a", [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (5, 4), (5, 5),
                                 (7, 2), (7, 3), (7, 4)])
def test_gauss_form_round_trip(p, a):
    A = _field(p, a)
    for chi in conductor_chars(p, a):
        tau = gauss_sum(chi)
        angle = local_factors._gauss_form(tau, p, a, A)
        assert 0 <= angle < A
        assert _written_back(angle, a, p, A) == tau, chi
    # read in a larger field, the angle scales with it
    assert local_factors._gauss_form(tau, p, a, A * p) == angle * p


@pytest.mark.parametrize("p,a,b", [(3, 3, 3), (3, 2, 5), (5, 3, 3), (5, 2, 3), (7, 3, 3)])
def test_gauss_form_products(p, a, b):
    A = _field(p, max(a, b))
    taus = [gauss_sum(chi) for chi in conductor_chars(p, a)[:3] + conductor_chars(p, b)[-3:]]
    conductors = [a] * 3 + [b] * 3
    angles = [local_factors._gauss_form(tau, p, chi_a, A) for tau, chi_a in zip(taus, conductors)]
    for i, j in [(0, 3), (1, 4), (2, 5), (0, 1)]:
        product = local_factors._form_product(
            p, A, [(angles[i], conductors[i], 1), (angles[j], conductors[j], 1)])
        assert product[1] == conductors[i] + conductors[j]
        assert _written_back(*product, p, A) == taus[i] * taus[j], (i, j)
    for d in (2, 3):
        product = local_factors._form_product(p, A, [(angles[0], a, d), (angles[5], b, 1)])
        assert _written_back(*product, p, A) == taus[0] ** d * taus[5], d


@pytest.mark.parametrize("p,a", [(3, 3), (5, 2), (7, 1)])
def test_gauss_form_refuses_a_value_that_does_not_fit(p, a):
    A = _field(p, a)
    tau = gauss_sum(MultChar(p, a, 1) if a > 1 else MultChar(p, 1, (p - 1) // 2))
    local_factors._gauss_form(tau, p, a, A)
    for patched in (tau + 1, 2 * tau, tau * root_of_unity(1, 4 * A)):
        with pytest.raises(ArithmeticError):
            local_factors._gauss_form(patched, p, a, A)
    with pytest.raises(ArithmeticError):
        local_factors._gauss_form(tau, p, a + 1, A)  # the wrong size, and g on the wrong side


def test_root_number_forms_refuse_a_ramified_value_off_the_form(level_forms):
    # a(c) = 2 must give a form; the value here is no monomial, and it is not
    # taken as an atom
    level_forms(MultChar(5, 2, 1), CycNumber.rational(5) + root_of_unity(1, 5))
    with pytest.raises(ArithmeticError):
        RootNumberForms(5, 2)


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
        assert w.coeff * w.coeff.conjugate() == CycNumber.rational(p ** a)


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
            # the first three unit lifts of the class mod p^{m+1}
            reps = [x for x in (rc.rep + j * p ** rc.m for j in range(p)) if x % p][:3]
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
    omega, want = pi.central_char(), t1.mul(t2)
    level = max(omega.level, want.level)
    assert omega.induce(level).k == want.induce(level).k
    # one block of size d has central character tau^d
    omega, want = steinberg(t1, 2).central_char(), t1 ** 2
    level = max(omega.level, want.level)
    assert omega.induce(level).k == want.induce(level).k
    # block order is canonical, not insertion order
    assert RepnData.of(Block(t2), Block(t1)) == RepnData.of(Block(t1), Block(t2))
    st2 = steinberg(trivial_char(5), 2)
    assert st2.conductor_exponent == 1 and st2.dim == 2
    with pytest.raises(ValueError):
        RepnData.of(Block(t1), Block(MultChar(3, 1, 1)))
    with pytest.raises(ValueError):
        RepnData.of()


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


# ---------------------------------------------------------------------------
# the stability theorem: certificate engine
# ---------------------------------------------------------------------------


def _chi_of_row(table, row):
    return MultChar(table.p, table.a, int(table.row_ks[row]))


def test_certificate_row_indexing():
    table = CertificateTable(5, 2)
    assert len(table.row_ks) == 16  # phi(25) - phi(5) conductor-2 characters
    for row in range(len(table.row_ks)):
        chi = _chi_of_row(table, row)
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
        table.exponents(represent_at_level(MultChar(5, 2, 1), 2).k)  # 2 a(mu) > a
    assert (table.exponents(represent_at_level(trivial_char(5), 2).k) == 0).all()


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
            chi = _chi_of_row(table, int(i))
            direct = stability_check(pi, chi)
            assert direct.holds and bool(verdict[i]), (pi.describe(), chi)
            pairs += 1
    assert pairs >= 100
    assert table.fallback_count == 0  # every distinct row reduced in int64




def _verdicts_match_direct(table, pi):
    rows = np.arange(len(table.row_ks))
    verdict = table.check_pairs(pi, rows)
    direct = [stability_check(pi, _chi_of_row(table, int(i))).holds for i in rows]
    assert verdict.tolist() == direct, pi.describe()
    return verdict


def test_certificate_lemma_regime_boundary_is_shallow():
    # 2 a(tau) = a: both blocks are still lemma columns; were either read as
    # deep, two deep blocks would be refused
    p, a = 5, 2
    table = CertificateTable(p, a)
    pi = RepnData.of(Block(MultChar(p, 1, 1)), Block(MultChar(p, 1, 2)))
    assert [2 * b.tau.conductor_exponent for b in pi.blocks] == [a, a]
    assert _verdicts_match_direct(table, pi).all()


def test_certificate_nu_path_matches_direct():
    # one block too deep for the lemma columns, at the first deep conductor
    # 2 a(tau) = a + 1 < 2 a: handled by cancelling against omega
    p, a = 3, 3
    table = CertificateTable(p, a)
    tau_big = MultChar(p, 2, 1)
    assert 2 * tau_big.conductor_exponent == a + 1
    pi = RepnData.of(Block(tau_big), Block(MultChar(p, 1, 1)))
    assert _verdicts_match_direct(table, pi).all()
    with pytest.raises(RegimeError):
        # its own column is out of the lemma regime
        table.exponents(represent_at_level(tau_big, a).k)


def test_certificate_refusals_at_their_boundaries():
    p = 3
    table = CertificateTable(p, 3)
    rows = np.arange(len(table.row_ks))
    deep = MultChar(p, 2, 1)  # 2 a(tau) = a + 1
    for pi in (RepnData.of(Block(deep), Block(MultChar(p, 2, 2))),  # two deep blocks
               RepnData.of(Block(deep, 2))):                        # one deep block of size 2
        with pytest.raises(RegimeError, match="at most one deep block of size 1"):
            table.check_pairs(pi, rows)
    # a(tau) = a, and the twisted multiset {tau, tau'} is not {tau tau', 1}
    p, a = 5, 2
    table = CertificateTable(p, a)
    pi = RepnData.of(Block(MultChar(p, 2, 1)), Block(MultChar(p, 1, 1)))
    with pytest.raises(RegimeError, match="strictly below"):
        table.check_pairs(pi, np.arange(len(table.row_ks)))


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


def _row_exponent(table, mu, row):
    """The per-row reference oracle: D(chi) built term by term from chi.eval
    in Q(zeta_M), times tau(mu), recognised as +-p^s times a root of unity."""
    p, a, M = table.p, table.a, table.M
    s = mu.conductor_exponent
    chi = _chi_of_row(table, row)
    mu_inv = mu.inv()
    acc = CycNumber.zero()
    for c in [x for x in range(p ** s) if x % p]:
        acc = acc + chi.eval((1 + c * p ** (a - s)) % table.modulus) * mu_inv.eval(c)
    full = gauss_sum(mu) * acc
    e, r = full.as_root_times_rational()
    assert abs(r) == p ** s, (chi, mu)
    return (e * (M // full.N) + (M // 2 if r < 0 else 0)) % M


def _lemma_mus(p, a):
    """Every mu of conductor 1 <= a(mu) <= a/2, presented at its conductor."""
    return [mu for s in range(1, a // 2 + 1) for mu in conductor_chars(p, s)]


def test_certificate_slow_path_matches_fast_path():
    # every row of every lemma column at five sizes, then a stride of rows at
    # a = 4 and a = 5 (M = 500 and 2,500), against the per-row oracle
    checked = 0
    for p, a, stride in [(3, 2, 1), (3, 3, 1), (3, 4, 1), (5, 2, 1), (5, 3, 1),
                         (5, 4, 37), (5, 5, 997)]:
        table = CertificateTable(p, a)
        for j, mu in enumerate(_lemma_mus(p, a)):
            column = table.exponents(represent_at_level(mu, a).k)
            for row in range(j % stride, len(table.row_ks), stride):
                assert (_row_exponent(table, mu, row)
                        == column[table.row_class[row]]), (p, a, mu, row)
                checked += 1
        assert table.fallback_count == 0
    assert checked == 484 + 209 + 44


def test_certificate_long_keys_at_conductor_four():
    # M = phi(625) = 500: every in-regime column (a(mu) = 1, 2) is recognised
    # with no int64 fallback, and a stride of rows agrees with the slow path.
    table = CertificateTable(5, 4)
    mus = _lemma_mus(5, 4)
    columns = [table.exponents(represent_at_level(mu, 4).k) for mu in mus]
    assert len(mus) == 19 and len(table.row_ks) == 400
    assert table.fallback_count == 0
    for mu, column in zip(mus, columns):
        for row in range(0, len(table.row_ks), 17):
            assert _row_exponent(table, mu, row) == column[table.row_class[row]], (mu, row)


@pytest.mark.parametrize("p,a", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (5, 4), (5, 5),
                                 (7, 2), (7, 3)])
def test_certificate_columns_depend_on_the_residue_class(p, a):
    # 1 + c p^{a-s} has order dividing p^s, so e(chi, mu) depends on chi only
    # through k mod p^s, and every lemma column through k mod p^(a // 2).  A
    # copy of the table with every row in its own class computes each row's
    # value; rows whose k agree mod p^(a // 2) carry equal exponents, and the
    # classed table's entry for their class.
    table = CertificateTable(p, a)
    residues = table.row_ks % p ** (a // 2)
    assert len(table._class_ks) == len(np.unique(residues)) == table.row_class.max() + 1
    assert (table._class_ks[table.row_class] % p ** (a // 2) == residues).all()
    if (p, a) == (5, 5):
        assert len(table.row_ks) == 2000 and len(table._class_ks) == 20
    per_row = CertificateTable(p, a)
    per_row._class_ks, per_row.row_class = per_row.row_ks, np.arange(len(per_row.row_ks))
    for mu in _lemma_mus(p, a):
        k = represent_at_level(mu, a).k
        column, rows = table.exponents(k), per_row.exponents(k)
        assert len(column) == len(table._class_ks) and len(rows) == len(table.row_ks)
        for r in np.unique(residues):
            assert len(set(rows[residues == r].tolist())) == 1, (p, a, mu, r)
        assert (column[table.row_class] == rows).all(), (p, a, mu)
    assert table.fallback_count == per_row.fallback_count == 0


@pytest.mark.parametrize("skew", [False, True])
@pytest.mark.parametrize("p,n_max,a_max", [(5, 3, 3), (3, 4, 4)])
def test_certificate_cells_on_any_rows(monkeypatch, p, n_max, a_max, skew):
    # check_pairs expands its classes to the requested rows once: any row array
    # reads the same verdicts as the full one, deep-block cells included.  The
    # theorem makes every true verdict true, so a skewed copy of each column,
    # different from class to class, gives cells whose verdicts are mixed.
    if skew:
        real = CertificateTable.exponents
        monkeypatch.setattr(CertificateTable, "exponents", lambda self, k: (
            real(self, k) + (k * k + 1) * np.arange(len(self._class_ks))) % self.M)
    rng = np.random.default_rng(21)
    tables = {a: CertificateTable(p, a) for a in range(1, a_max + 2)}
    cells = deep = mixed = 0
    for pi in enumerate_reps(p, n_max, a_max):
        for a in range(max(pi.conductor_exponent, 1), a_max + 2):
            table = tables[a]
            full = np.arange(len(table.row_ks))
            try:
                want = table.check_pairs(pi, full)
            except RegimeError:
                continue
            for rows in (full[::-1], rng.integers(0, len(full), size=len(full) // 2 + 3),
                         full[len(full) // 3:len(full) // 3 + 1], np.array([], dtype=np.int64)):
                got = table.check_pairs(pi, rows)
                assert got.dtype == bool and got.tolist() == want[rows].tolist(), (pi, a)
            cells += 1
            mixed += 0 < np.count_nonzero(want) < len(want)
            # a deep block beside a second ramified one: no structural shortcut
            conductors = [b.tau.conductor_exponent for b in pi.blocks]
            deep += max(conductors) * 2 > a and sum(c > 0 for c in conductors) > 1
    assert cells > 900 and deep > 80
    assert mixed > 200 if skew else mixed == 0


def _distinct_rows(monkeypatch):
    """Record the count matrix of every certificate column reduction."""
    seen = []
    real = local_factors._stack_values

    def spy(N, counts, den=1):
        seen.append((N, counts))
        return real(N, counts, den)

    monkeypatch.setattr(local_factors, "_stack_values", spy)
    return seen


def test_certificate_recognises_each_distinct_row_once(monkeypatch):
    # a column sums and recognises one value per distinct multiset of
    # exponents, in Q(zeta_L) with L = lcm(p^s, phi(p^s)), not one per row
    seen = _distinct_rows(monkeypatch)
    recognised = []
    real = CycNumber.as_root_times_rational

    def counting(self):
        recognised.append(self.N)
        return real(self)

    monkeypatch.setattr(CycNumber, "as_root_times_rational", counting)
    for p, a, rows, distinct in [(5, 4, 7600, 230), (5, 5, 38000, 230), (7, 4, 72324, 902)]:
        seen.clear()
        recognised.clear()
        table = CertificateTable(p, a)
        mus = _lemma_mus(p, a)
        for mu in mus:
            table.exponents(represent_at_level(mu, a).k)
        assert len(mus) * len(table.row_ks) == rows
        assert len(seen) == len(mus)
        assert sum(len(counts) for _N, counts in seen) == distinct
        assert len(recognised) <= distinct
        for mu, (N, counts) in zip(mus, seen):
            s = mu.conductor_exponent
            assert N == p ** s * (p - 1) and counts.shape[1] == N
            assert (counts.sum(axis=1) == phi(p, s)).all()
        assert table.fallback_count == 0


def test_certificate_refuses_a_corrupted_value(monkeypatch):
    # tau(mu) D(chi) must be +-p^s times a root of unity; twice that is
    # refused, never turned into an exponent
    table = CertificateTable(5, 2)
    k = represent_at_level(MultChar(5, 1, 1), 2).k
    real = local_factors.gauss_sum
    monkeypatch.setattr(local_factors, "gauss_sum",
                        lambda chi, backend=EXACT: CycNumber.rational(2) * real(chi, backend))
    with pytest.raises(ArithmeticError,
                       match="not q\\^\\{a\\(mu\\)\\} times a root of unity") as err:
        table.exponents(k)
    assert "mu=" in str(err.value)
    assert isinstance(err.value.__cause__, ArithmeticError)  # _gauss_form's refusal
    assert k not in table._mu_cache


def test_certificate_int64_guard_at_its_boundary(monkeypatch):
    # a conductor-1 column at (p, a) = (5, 2): L = 20, 4 roots per row
    p, a = 5, 2
    k = represent_at_level(MultChar(p, 1, 1), a).k
    seen = _distinct_rows(monkeypatch)
    want = CertificateTable(p, a).exponents(k)
    (L, counts), = seen
    ctx = get_context(L)
    top = int(counts.max())
    reduced = []
    real = CycContext.reduce_groupring

    def spy(self, vec):
        out = real(self, vec)
        if vec.ndim == 2:
            reduced.append(out.dtype)
        return out

    monkeypatch.setattr(CycContext, "reduce_groupring", spy)
    # the largest count in the column is the largest that fits: int64, no fallback
    monkeypatch.setattr(scalars, "_INT64_GUARD", (top + 1) * ctx.reduce_gain)
    assert ctx.fits_int64(top) and not ctx.fits_int64(top + 1)
    table = CertificateTable(p, a)
    assert (table.exponents(k) == want).all() and table.fallback_count == 0
    assert reduced == [np.int64]
    # one count more than fits: object dtype, and every distinct row is counted
    monkeypatch.setattr(scalars, "_INT64_GUARD", top * ctx.reduce_gain)
    table = CertificateTable(p, a)
    assert (table.exponents(k) == want).all()
    assert table.fallback_count == len(counts) < len(table.row_ks)
    assert reduced == [np.int64, object]


def test_certificate_block_presented_above_a():
    # tau = MultChar(5, 3, 25) has conductor 1 but is presented at level 3 > a;
    # beside a second conductor-1 block it needs three columns (tau, tau',
    # omega), not the shortcut
    p, a = 5, 2
    table = CertificateTable(p, a)
    tau = MultChar(p, 3, 25)
    assert tau.conductor_exponent == 1
    pi = RepnData.of(Block(tau), Block(MultChar(p, 1, 2)))
    _verdicts_match_direct(table, pi)
    assert len(table._mu_cache) == 3


def test_certificate_one_column_per_character():
    # the same character in two presentations shares its column
    p, a = 5, 2
    table = CertificateTable(p, a)
    tau = MultChar(p, 1, 1)
    for shown in (tau, tau.induce(3)):
        _verdicts_match_direct(table, RepnData.of(Block(shown), Block(MultChar(p, 1, 2))))
        assert len(table._mu_cache) == 3
    assert len(table._block_ks) == 3  # two presentations of tau, one of tau'


def test_certificate_refusals_see_through_the_presentation():
    # the deep-block refusals read a(tau), not the level tau is presented at
    p = 3
    table = CertificateTable(p, 3)
    deep = MultChar(p, 2, 1).induce(4)
    with pytest.raises(RegimeError, match="at most one deep block of size 1"):
        table.check_pairs(RepnData.of(Block(deep, 2)), np.arange(len(table.row_ks)))
    table = CertificateTable(5, 2)
    pi = RepnData.of(Block(MultChar(5, 2, 1).induce(3)), Block(MultChar(5, 1, 1)))
    with pytest.raises(RegimeError, match="strictly below"):
        table.check_pairs(pi, np.arange(len(table.row_ks)))


def test_certificate_cells_build_no_character(monkeypatch):
    # once a table has read a presentation and tabulated a column, a cell is
    # integer work: no MultChar is built and omega is never formed
    p, a = 5, 3
    table = CertificateTable(p, a)
    rows = np.arange(len(table.row_ks))
    reps = enumerate_reps(p, 3, 2)

    def sweep():
        out = []
        for pi in reps:
            try:
                out.append(table.check_pairs(pi, rows).tolist())
            except RegimeError as exc:
                out.append(str(exc))
        return out

    first = sweep()
    built = []
    post_init = MultChar.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    def refuse(*args):
        raise AssertionError("a cell built a character")

    monkeypatch.setattr(MultChar, "__post_init__", counting)
    monkeypatch.setattr(MultChar, "induce", refuse)
    monkeypatch.setattr(RepnData, "central_char", refuse)
    assert sweep() == first
    assert built == []


def test_certificate_object_rows_take_the_slow_path(monkeypatch):
    # a reduction forced to object dtype gives the same exponents, and
    # fallback_count counts each distinct row it reduced
    cases = [(5, 2), (3, 3)]
    fast = {}
    for p, a in cases:
        table = CertificateTable(p, a)
        fast[p, a] = [table.exponents(represent_at_level(mu, a).k)
                      for mu in conductor_chars(p, 1)]
        assert table.fallback_count == 0
    monkeypatch.setattr(CycContext, "fits_int64", lambda self, max_abs: False)
    seen = _distinct_rows(monkeypatch)
    for p, a in cases:
        seen.clear()
        table = CertificateTable(p, a)
        mus = conductor_chars(p, 1)
        for mu, want in zip(mus, fast[p, a]):
            assert (table.exponents(represent_at_level(mu, a).k) == want).all(), (p, a, mu)
        assert table.fallback_count == sum(len(counts) for _N, counts in seen) > 0


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
# out-of-regime tallies on recognised root numbers
# ---------------------------------------------------------------------------


def _direct_key(pi, chi):
    """The out-of-regime key as the direct monomials give it: the oracle."""
    try:
        lhs = eps_rep_twisted(pi, chi)
        rhs = stability_rhs(pi, chi)
    except RegimeError:
        return "incomparable"
    return "equal" if lhs.equals(rhs, pi.p, EXACT) else "unequal"


@pytest.mark.parametrize("p,t,ns", [(3, 3, (2, 3, 4)), (5, 2, (2, 3))])
def test_root_number_forms_match_the_direct_monomials(p, t, ns):
    # every out-of-regime (pi, chi) of `stability --p p --t-max t --n ns`
    forms = RootNumberForms(p, t)
    keys = Counter()
    for n in ns:
        for pi in (pi for pi in enumerate_reps(p, n, t) if pi.dim == n):
            for chi in enumerate_chars(p, t):
                if not 1 <= chi.conductor_exponent < max(pi.conductor_exponent, 1):
                    continue
                key = forms.stability_key(pi, chi)
                assert key == _direct_key(pi, chi), (pi.describe(), chi)
                keys[key] += 1
    assert set(keys) == {"equal", "unequal", "incomparable"}


def _leftover_products(monkeypatch, values=None):
    """Record the atom multisets that stability_key multiplies exactly, and
    into values the products it compares."""
    calls = []
    original = RootNumberForms._atom_product

    def recording(forms, atoms, start):
        calls.append(dict(atoms))
        out = original(forms, atoms, start)
        if values is not None:
            values.append(out)
        return out
    monkeypatch.setattr(RootNumberForms, "_atom_product", recording)
    return calls


def _coefficient_product(factors):
    """The product of the coefficients c(-1) tau(c) of W(c)^d over (c, d), by
    CycNumber products."""
    out = CycNumber.one()
    for c, d in factors:
        out = out * root_number(c).coeff ** d
    return out


@pytest.mark.parametrize("p,t,blocks,chi_k,key,products", [
    # W of a character of conductor one that is not quadratic is an atom
    # (|W|^2 = p is no rational square); the quadratic one is a form that
    # carries g.  Here chi tau is quadratic, so the left side is all forms
    pytest.param(7, 2, [Block(MultChar(7, 1, 2), 2)], 7, "equal", [{}, {35: 1, 7: 1}],
                 id="7-2-blocks0-7-equal"),
    pytest.param(5, 2, [Block(MultChar(5, 1, 1), 2)], 5, "unequal", [{}, {15: 1, 5: 1}],
                 id="5-2-blocks1-5-unequal"),
    # at p = 3 the only character of conductor one is quadratic, so nothing
    # is left to multiply: the forms differ in angle, and here also in their
    # rationals and g-flags, and the integers decide
    pytest.param(3, 4, [Block(MultChar(3, 1, 1)), Block(MultChar(3, 3, 1))], 15, "equal", [],
                 id="3-4-blocks2-15-equal"),
    pytest.param(3, 3, [Block(MultChar(3, 3, k)) for k in (1, 2, 7)], 8, "equal", [],
                 id="3-3-blocks3-8-equal"),
    # different atoms on the two sides
    pytest.param(5, 2, [Block(MultChar(5, 1, 2), 2)], 5, "unequal", [{15: 2}, {5: 2}],
                 id="5-2-atoms-both-sides"),
    # and W(omega chi) is quadratic, so g is left over on the right
    pytest.param(7, 2, [Block(MultChar(7, 1, 1), 2)], 7, "unequal", [{14: 2}, {7: 1}],
                 id="7-2-g-left-over"),
    # and here W(chi tau_1) is quadratic, so g is left over on the left
    pytest.param(7, 2, [Block(MultChar(7, 1, 1)), Block(MultChar(7, 1, 2))], 7, "unequal",
                 [{14: 1}, {28: 1, 7: 1}], id="7-2-g-left-over-on-the-left"),
])
def test_root_number_forms_multiply_leftover_atoms(monkeypatch, p, t, blocks, chi_k, key,
                                                   products):
    pi, chi = RepnData.of(*blocks), MultChar(p, t, chi_k)
    values = []
    calls = _leftover_products(monkeypatch, values)
    assert RootNumberForms(p, t).stability_key(pi, chi) == key == _direct_key(pi, chi)
    assert calls == products
    if products:
        # the two compared products have the ratio of the full sides' coefficients
        lhs = _coefficient_product([(chi.mul(b.tau), b.size) for b in pi.blocks])
        rhs = _coefficient_product([(pi.central_char().mul(chi), 1), (chi, pi.dim - 1)])
        assert values[0] * rhs == values[1] * lhs


def test_root_number_forms_fold_a_negative_rational_into_the_angle(level_forms):
    # every recognised tau(c) of a ramified c lies in a field of even order,
    # where as_root_times_rational returns a positive rational; a rational
    # value (order one) keeps its sign there, and -1 is zeta_A^{A/2}
    level_forms(MultChar(5, 2, 1), CycNumber.rational(-5))
    forms = RootNumberForms(5, 2)
    assert (forms.conductors[1], forms.angles[1]) == (2, forms.A // 2)
    # c is odd, so W(c) = c(-1) tau(c) / 5 = 1: the parity turns the angle back
    assert forms._side([(1, 1)]) == (2, 0, 2, Counter())


def test_root_number_forms_refuse_a_recognised_value_off_the_unit_circle(level_forms):
    level_forms(MultChar(5, 2, 1), CycNumber.rational(25))
    with pytest.raises(ArithmeticError):
        RootNumberForms(5, 2)


def test_root_number_forms_decide_cancelled_atoms_by_angle(monkeypatch):
    # pi = tau_1 + tau_2 + tau_2^{-1} has omega = tau_1, so both sides hold the
    # atom W(chi tau_1) (conductor 3) once; the rest have conductor 2 and are
    # recognised: W(chi tau_2) W(chi tau_2^{-1}) against W(chi)^2
    p, t = 5, 3
    tau_1, tau_2 = MultChar(p, t, 1), MultChar(p, t, 10)
    pi = RepnData.of(Block(tau_1), Block(tau_2), Block(tau_2.inv()))
    chi = MultChar(p, t, 5)
    calls = _leftover_products(monkeypatch)
    lhs, rhs = eps_rep_twisted(pi, chi), stability_rhs(pi, chi)
    assert lhs.xexp == rhs.xexp  # the values, not the xexp sums, decide
    assert RootNumberForms(p, t).stability_key(pi, chi) == "unequal" == _direct_key(pi, chi)
    assert calls == []


def test_root_number_forms_incomparable_where_the_direct_engine_refuses():
    # chi tau = 1 inside a block of size two
    p = 5
    pi, chi = steinberg(MultChar(p, 1, 1), 2), MultChar(p, 2, 15)
    with pytest.raises(RegimeError):
        eps_rep_twisted(pi, chi)
    assert RootNumberForms(p, 2).stability_key(pi, chi) == "incomparable"


@pytest.mark.parametrize("p,t", [(3, 4), (5, 3), (7, 2)])
def test_root_number_forms_decide_rank_one_as_the_direct_engine(p, t):
    # every admissible (mu, chi) at level t, read at every unit rep of the
    # v_chi class mod p^a(chi)
    forms = RootNumberForms(p, t)
    seen = Counter()
    for chi in enumerate_chars(p, t):
        a = chi.conductor_exponent
        if a == 0:
            continue
        rc = v_chi(chi)
        reps = [x for x in range(1, p ** a) if rc.contains(x)]
        for mu in enumerate_chars(p, t):
            if 2 * mu.conductor_exponent > a:
                continue
            for rep in reps:
                assert forms.gl1_verdict(mu, chi, rep) == (
                    gl1_stability_check(mu, chi, vclass_rep=rep).holds, rep), (mu, chi, rep)
            assert forms.gl1_verdict(mu, chi)[1] == gl1_stability_check(mu, chi).vclass_rep
            seen["boundary"] += 2 * mu.conductor_exponent == a >= 2
            seen["quadratic"] += a == 1 and 2 * chi.k == chi.group_order
    assert seen["boundary"] and seen["quadratic"]


def test_root_number_forms_refuse_rank_one_as_the_direct_engine():
    forms = RootNumberForms(5, 2)
    for mu, chi, rep, err in [
            (MultChar(5, 2, 1), MultChar(5, 2, 3), None, RegimeError),  # 2 a(mu) > a(chi)
            (trivial_char(5), trivial_char(5), None, RegimeError),  # a(chi) = 0
            (trivial_char(5), MultChar(5, 2, 1), 5, ValueError)]:  # not a unit
        with pytest.raises(err):
            gl1_stability_check(mu, chi, vclass_rep=rep)
        with pytest.raises(err):
            forms.gl1_verdict(mu, chi, rep)


@pytest.mark.parametrize("p,t", [(3, 3), (5, 2)])
def test_root_number_forms_decide_in_regime_as_the_direct_engine(p, t):
    forms = RootNumberForms(p, t)
    boundary = 0
    for pi in enumerate_reps(p, 3, t):
        for chi in enumerate_chars(p, t):
            if chi.conductor_exponent < max(pi.conductor_exponent, 1):
                continue
            key = forms.stability_key(pi, chi)
            assert key != "incomparable"
            assert (key == "equal") == stability_check(pi, chi).holds, (pi.describe(), chi)
            boundary += chi.conductor_exponent == pi.conductor_exponent
    assert boundary


def _skewed(forms, k):
    """forms with the table's angle of tau(c), c of exponent k, moved by one
    (the list is the object's own, so the cached table stays as it is)."""
    forms.angles[k] = (forms.angles[k] + 1) % forms.A
    return forms


def test_root_number_forms_with_a_skewed_angle_flip_the_verdict():
    p, t = 5, 2
    chi, mu = MultChar(p, t, 3), MultChar(p, t, 5)  # a(chi) = 2, a(mu) = 1
    pi = RepnData.of(Block(MultChar(p, 1, 1)), Block(MultChar(p, 1, 2)))
    assert RootNumberForms(p, t).stability_key(pi, chi) == "equal"
    assert RootNumberForms(p, t).gl1_verdict(mu, chi)[0]
    # W(chi) enters only the right side of both checks
    assert _skewed(RootNumberForms(p, t), chi.k).stability_key(pi, chi) == "unequal"
    assert not _skewed(RootNumberForms(p, t), chi.k).gl1_verdict(mu, chi)[0]


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
