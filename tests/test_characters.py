from collections import Counter
from fractions import Fraction

import pytest

from epsilonlab.characters import (
    MultChar,
    QuasiChar,
    ResidueClass,
    chars_with_conductor,
    conductor_ks,
    enumerate_chars,
    trivial_char,
    v_chi,
)
from epsilonlab.padic import phi, psi_eval, unit_group
from epsilonlab.scalars import FLOAT, CycNumber


def test_char_is_multiplicative_and_kills_p():
    chi = MultChar(5, 2, 3)
    for x in (2, 3, 7, 11, 23):
        for y in (2, 6, 13):
            assert chi.eval(x * y) == chi.eval(x) * chi.eval(y)
    assert chi.eval(5 * 7) == chi.eval(7)
    assert chi.eval(Fraction(7, 5)) == chi.eval(7)


def test_char_values_have_right_order():
    chi = MultChar(5, 2, 1)  # faithful character of a cyclic group of order 20
    g = unit_group(5, 2).gen
    acc = CycNumber.one()
    seen_trivial = []
    for n in range(1, 21):
        acc = acc * chi.eval(g)
        if acc == CycNumber.one():
            seen_trivial.append(n)
    assert seen_trivial == [20]


# ---------------------------------------------------------------------------
# conductors
# ---------------------------------------------------------------------------


CONDUCTOR_PROFILE = {
    # p, level -> {a: count}; counts are phi(p^a) - phi(p^{a-1}) for a >= 2
    (3, 3): {0: 1, 1: 1, 2: 4, 3: 12},
    (5, 3): {0: 1, 1: 3, 2: 16, 3: 80},
    (7, 2): {0: 1, 1: 5, 2: 36},
    (3, 5): {0: 1, 1: 1, 2: 4, 3: 12, 4: 36, 5: 108},
    (11, 3): {0: 1, 1: 9, 2: 100, 3: 1100},
}


@pytest.mark.parametrize("p,level", sorted(CONDUCTOR_PROFILE))
def test_conductor_profile(p, level):
    got = Counter(chi.conductor_exponent for chi in enumerate_chars(p, level))
    assert dict(got) == CONDUCTOR_PROFILE[(p, level)]


def _conductor_by_definition(chi):
    """0 if chi is trivial, else the least a >= 1 with chi trivial on 1 + p^a.

    1 + p^a generates (1 + p^a Z)/(1 + p^level Z), so triviality there is one
    evaluation.  The float values decide exactly: a nontrivial value zeta_m^e
    sits at distance >= |1 - zeta_m| > 4e-4 from 1 for every m used here.
    """
    def trivial_at(x):
        return FLOAT.eq(chi.eval(x, FLOAT), 1)

    p = chi.p
    if trivial_at(unit_group(p, chi.level).gen):
        return 0
    return next(a for a in range(1, chi.level + 1) if trivial_at(1 + p ** a))


LEVELS_UP_TO_15000 = [(p, level) for p in (3, 5, 7, 11)
                      for level in range(1, 10) if p ** level <= 15_000]


@pytest.mark.parametrize("p,level", LEVELS_UP_TO_15000)
def test_conductor_closed_form_matches_definition(p, level):
    for k in range(phi(p, level)):
        chi = MultChar(p, level, k)
        assert chi.conductor_exponent == _conductor_by_definition(chi), (p, level, k)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_conductor_ks_lists_exactly_conductor_a(p):
    for a in range(0, 4):
        level = max(a, 1)
        want = [k for k in range(phi(p, level))
                if MultChar(p, level, k).conductor_exponent == a]
        assert conductor_ks(p, a) == want
        assert chars_with_conductor(p, a) == [MultChar(p, level, k) for k in want]


def test_conductor_chars_are_built_once_per_p_and_a(monkeypatch):
    first = chars_with_conductor(7, 2)
    created = []
    real = MultChar.__post_init__
    monkeypatch.setattr(MultChar, "__post_init__", lambda self: created.append(self) or real(self))
    second = chars_with_conductor(7, 2)
    assert created == []
    assert second == first and second is not first
    first.clear()  # a caller's list is its own
    assert chars_with_conductor(7, 2) == second and len(second) == phi(7, 2) - phi(7, 1)
    assert created == []


def test_conductor_frozen_values():
    # 2^4 has order 5 mod 25 => k=5 factors through (Z/5)^x
    assert MultChar(5, 2, 5).conductor_exponent == 1
    assert MultChar(5, 2, 1).conductor_exponent == 2
    assert trivial_char(7).conductor_exponent == 0


def test_conductor_means_trivial_exactly_below():
    p = 5
    for chi in chars_with_conductor(p, 2):
        # trivial on 1 + p^2 Z (vacuous at level 2), nontrivial on some 1 + p u
        assert any(chi.eval(1 + 5 * u) != CycNumber.one() for u in range(1, 5))
    for chi in chars_with_conductor(p, 1):
        assert all(chi.eval(1 + 5 * u) == CycNumber.one() for u in range(1, 5))


def test_induce_preserves_everything():
    for p in (3, 5):
        for chi in enumerate_chars(p, 2):
            deep = chi.induce(4)
            assert deep.level == 4
            assert deep.conductor_exponent == chi.conductor_exponent
            assert chi.induce(deep.level).k == deep.k
            for x in (2, 3, p + 1, 2 * p + 1):
                if x % p:
                    assert deep.eval(x) == chi.eval(x)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_induce_reads_the_deeper_generator(p):
    # chi at the deeper level sends its generator g to chi(g mod p^level)
    for level in (1, 2, 3):
        for chi in enumerate_chars(p, level):
            for deeper in range(level + 1, 5):
                big = unit_group(p, deeper)
                e = chi.value_exponent(big.gen % p ** level)
                want = MultChar(p, deeper, e * (big.order // chi.group_order))
                assert chi.induce(deeper) == want, (chi, deeper)


def test_mul_inv_respect_values():
    a, b = MultChar(5, 2, 3), MultChar(5, 3, 7)
    prod = a.mul(b)
    for x in (2, 3, 11):
        assert prod.eval(x) == a.eval(x) * b.eval(x)
        assert a.inv().eval(x) == a.eval(x).conjugate()
    assert QuasiChar(a, Fraction(1, 2)).inv().shift == Fraction(-1, 2)
    sq = a ** 2
    assert sq.eval(3) == a.eval(3) * a.eval(3)


def test_parity_sign():
    assert MultChar(5, 1, 2).parity_sign() == 1   # -1 is a square mod 5
    assert MultChar(3, 1, 1).parity_sign() == -1  # -1 is not a square mod 3
    assert trivial_char(7).parity_sign() == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_parity_sign_is_the_value_at_minus_one(p):
    # (-1)^k against chi(-1) read off the discrete log, for every character
    # at every level with p^level <= 20,000
    level = 1
    while p ** level <= 20_000:
        minus_one = -1 % p ** level
        for chi in enumerate_chars(p, level):
            want = 1 if chi.value_exponent(minus_one) == 0 else -1
            assert chi.parity_sign() == want, chi
        level += 1


def test_json_roundtrip():
    chi = MultChar(7, 2, 11)
    assert MultChar(**chi.to_json()) == chi


# ---------------------------------------------------------------------------
# v_chi: the unit class in the deep filtration expansion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("a", [2, 3])
def test_v_chi_solves_the_expansion(p, a):
    if (p, a) == (7, 3):
        pytest.skip("level-3 table at p=7 covered by the p=3,5 sweeps")
    lo, hi = a // 2, a - a // 2
    for chi in chars_with_conductor(p, a):
        rc = v_chi(chi)
        assert rc.m == lo and not rc.vacuous
        for y in range(p ** lo):
            lhs = chi.eval(1 + y * p ** hi)
            rhs = psi_eval(p, Fraction(rc.rep * y, p ** lo))
            assert lhs == rhs


@pytest.mark.parametrize("p", [3, 5, 7])
def test_v_chi_vacuous_at_conductor_one(p):
    for chi in chars_with_conductor(p, 1):
        rc = v_chi(chi)
        assert rc.vacuous
        assert rc.contains(1) and not rc.contains(p)
    with pytest.raises(ValueError):
        v_chi(trivial_char(p))


def lifts(rc):
    """All unit lifts of a residue class mod p^{m+1}."""
    p, step = rc.p, rc.p ** rc.m
    cands = [rc.rep + j * step for j in range(p)] if not rc.vacuous else range(1, p * step)
    return [x for x in cands if x % p != 0]


def test_residue_class_lifts_are_units_in_class():
    rc = ResidueClass(5, 1, 3)
    assert lifts(rc) and all(rc.contains(x) for x in lifts(rc))
    assert {x % 5 for x in lifts(rc)} == {3}
    vac = ResidueClass(5, 0, 0)
    assert all(x % 5 for x in lifts(vac))
