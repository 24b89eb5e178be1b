from fractions import Fraction

import pytest

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


def test_unit_part_inverts_denominator():
    # 50/3 = 2 * 5^2 / 3; unit part mod 25 is 2 * 3^{-1}
    assert unit_part_mod(5, Fraction(50, 3), 2) == 2 * pow(3, -1, 25) % 25


def test_padic_number_arithmetic():
    x = PadicNumber(5, Fraction(2, 25))
    y = PadicNumber(5, 75)
    assert x.val == -2 and y.val == 2
    assert (x * y).val == 0
    assert (x + y).value == Fraction(2, 25) + 75
    assert PadicNumber(5, 1 / x.value).val == 2
    assert (-x).unit_mod(2) == (-2) % 25
    assert PadicNumber(5, 5).val == 1
    with pytest.raises(ValueError):
        x + PadicNumber(7, 1)


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
    units = ug.units()
    assert len(units) == ug.order == p ** (t - 1) * (p - 1) == phi(p, t)
    # dlog is a bijection onto Z/order and k -> gen^k inverts it
    logs = sorted(ug.dlog(int(u)) for u in units)
    assert logs == list(range(ug.order))
    for u in units[:20]:
        assert pow(ug.gen, ug.dlog(int(u)), ug.modulus) == int(u)


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

