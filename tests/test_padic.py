import math
from fractions import Fraction

import numpy as np
import pytest

from epsilonlab import padic
from epsilonlab.padic import (
    PadicNumber,
    TableBudgetError,
    UnitGroup,
    is_odd_prime,
    phi,
    psi_eval,
    unit_group,
    unit_part_mod,
    valuation,
)
from epsilonlab.scalars import EXACT, FLOAT, CycNumber, root_of_unity


def test_odd_prime_gate():
    assert is_odd_prime(3) and is_odd_prime(97)
    assert not is_odd_prime(2) and not is_odd_prime(9) and not is_odd_prime(1)
    with pytest.raises(ValueError):
        UnitGroup(2, 1)
    with pytest.raises(ValueError):
        UnitGroup(4, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_valuation_and_unit_part(p):
    for v in range(-3, 4):
        for u in (1, p + 1, 2 * p + 3):
            if u % p == 0:
                continue
            x = Fraction(u) * Fraction(p) ** v
            assert valuation(p, x) == v
            assert unit_part_mod(p, x, 3) == u % p ** 3
    assert valuation(p, 0) is None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_integer_unit_part_matches_the_fraction_path(p, monkeypatch):
    big = 2 ** 64 + 3 * p + 1
    ints = [-1, -2, -p, -7 * p ** 3, p, 2 * p ** 4, p ** 9, big, -big, big * p ** 5,
            -(3 ** 70 + 1) * p ** 12]
    want = {(x, t): unit_part_mod(p, Fraction(x), t) for x in ints for t in (1, 2, 4)}
    vals = {x: valuation(p, Fraction(x)) for x in ints}
    built = []
    real = padic.Fraction
    monkeypatch.setattr(padic, "Fraction", lambda *a: built.append(a) or real(*a))
    for x in ints:
        assert valuation(p, x) == vals[x]
        for t in (1, 2, 4):
            assert unit_part_mod(p, x, t) == want[x, t], (x, t)
    assert built == []  # an integer never becomes a Fraction
    # a rational's unit part is the quotient of its numerator's and denominator's
    for a, b in ((3, 7 * p ** 2), (-p ** 3, 11), (big, -p * 13), (2 * p, 4 * p ** 6)):
        x = Fraction(a, b)
        for t in (1, 3):
            u = unit_part_mod(p, x, t)
            assert u == unit_part_mod(p, a, t) * pow(unit_part_mod(p, b, t), -1, p ** t) % p ** t
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            unit_part_mod(p, zero, 2)
        assert valuation(p, zero) is None


def test_unit_part_inverts_denominator():
    # 50/3 = 2 * 5^2 / 3; unit part mod 25 is 2 * 3^{-1}
    assert unit_part_mod(5, Fraction(50, 3), 2) == 2 * pow(3, -1, 25) % 25


def test_padic_number_arithmetic():
    x = PadicNumber(5, Fraction(2, 25))
    y = PadicNumber(5, 75)
    assert x.val == -2 and y.val == 2
    assert PadicNumber(5, 1 / x.value).val == 2
    assert PadicNumber(5, -x.value).unit_mod(2) == (-2) % 25
    assert PadicNumber(5, 5).val == 1


# ---------------------------------------------------------------------------
# unit groups: frozen small cases, then structural sweeps
# ---------------------------------------------------------------------------


def test_unit_group_frozen_cases():
    ug = unit_group(5, 2)
    assert ug.gen == 2 and ug.order == 20
    assert ug.dlog(24) == 10  # 2^10 = 1024 = 24 (mod 25)
    ug7 = unit_group(7, 2)
    assert ug7.gen == 3 and ug7.order == 42
    assert ug7.dlog(3) == 1


@pytest.mark.parametrize("p,t", [(3, 1), (3, 3), (5, 2), (7, 2)])
def test_unit_group_is_cyclic_of_right_order(p, t):
    ug = unit_group(p, t)
    units = [x for x in range(p ** t) if x % p]
    assert len(units) == ug.order == p ** (t - 1) * (p - 1) == phi(p, t)
    # dlog is a bijection onto Z/order and k -> gen^k inverts it
    logs = sorted(ug.dlog(int(u)) for u in units)
    assert logs == list(range(ug.order))
    for u in units[:20]:
        assert pow(ug.gen, ug.dlog(u), ug.modulus) == u


def _primes_of(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]


def _least_generator(modulus, order):
    """The least g whose powers mod `modulus` have exactly the given order,
    checked by pow against every maximal divisor of the order."""
    checks = [order // q for q in _primes_of(order)]
    g = 2
    while math.gcd(g, modulus) != 1 or any(pow(g, c, modulus) == 1 for c in checks):
        g += 1
    return g


def test_least_primitive_root_generates_mod_p_squared():
    # a primitive root g mod p with g^(p-1) != 1 mod p^2 generates every level,
    # so one generator serves every p whose level-2 table fits the budget
    p = 3
    while p * p <= padic._TABLE_BUDGET:
        if is_odd_prime(p):
            g = _least_generator(p, p - 1)
            assert pow(g, p - 1, p * p) != 1, (p, g)
        p += 2
    assert p == 2001


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_generator_is_the_least_at_every_level(p, t):
    ug = unit_group(p, t)
    assert ug.gen == _least_generator(p ** t, phi(p, t)) == _least_generator(p, p - 1)
    powers = ug.powers
    assert not powers.flags.writeable
    assert sorted(powers.tolist()) == [x for x in range(p ** t) if x % p]
    head = min(50, ug.order)
    assert powers[:head].tolist() == [pow(ug.gen, d, p ** t) for d in range(head)]
    assert (ug.dlog_table()[powers] == np.arange(ug.order)).all()


def test_dlog_rejects_non_units():
    ug = unit_group(5, 2)
    with pytest.raises(ValueError):
        ug.dlog(10)


def test_table_budget_guard():
    with pytest.raises(TableBudgetError):
        unit_group(101, 4)


# ---------------------------------------------------------------------------
# the standard additive character
# ---------------------------------------------------------------------------


def test_psi_trivial_on_integers():
    for p in (3, 5, 7):
        for x in (0, 1, p, -p ** 2, Fraction(3 * p, 1)):
            assert psi_eval(p, x) == CycNumber.one()


def test_psi_on_deep_denominators():
    assert psi_eval(5, Fraction(2, 25)) == root_of_unity(2, 25)
    assert psi_eval(5, Fraction(7, 5)) == root_of_unity(2, 5)
    assert psi_eval(3, Fraction(-1, 27)) == root_of_unity(26, 27)


def test_psi_is_additive():
    p = 5
    for xa in (Fraction(1, 25), Fraction(3, 5), Fraction(2, 125)):
        for xb in (Fraction(4, 25), Fraction(1, 5), 2):
            lhs = psi_eval(p, xa + xb)
            rhs = psi_eval(p, xa) * psi_eval(p, xb)
            assert lhs == rhs


def test_psi_float_backend_matches():
    for x in (Fraction(2, 25), Fraction(7, 5), Fraction(1, 125)):
        assert FLOAT.eq(psi_eval(5, x, FLOAT), psi_eval(5, x, EXACT).to_complex())

