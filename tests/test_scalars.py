import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsilonlab.scalars import (
    EXACT,
    FLOAT,
    Backend,
    CycContext,
    CycNumber,
    QExpMismatchError,
    ScaledScalar,
    cyclotomic_poly,
    get_context,
    proportionality_ratio,
    root_of_unity,
)


# ---------------------------------------------------------------------------
# cyclotomic polynomials (against hand values)
# ---------------------------------------------------------------------------

KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("n,coeffs", sorted(KNOWN_PHI.items()))
def test_cyclotomic_poly_known(n, coeffs):
    assert cyclotomic_poly(n) == coeffs


@pytest.mark.parametrize("N", [4, 8, 9, 27, 54, 100, 500, 2058])
def test_context_degree(N):
    ctx = get_context(N)
    # phi is multiplicative; check against a direct gcd count
    assert ctx.phi == sum(1 for k in range(1, N + 1) if np.gcd(k, N) == 1)


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 3, 5, 8, 12, 54, 500])
def test_full_root_sum_vanishes(N):
    s = CycNumber.zero()
    for k in range(N):
        s = s + root_of_unity(k, N)
    assert s.is_zero()


@pytest.mark.parametrize("N", [3, 5, 7, 12, 54, 500])
def test_embedding_matches_exp(N):
    for e in (0, 1, 2, N // 2, N - 1):
        exact = root_of_unity(e, N).to_complex()
        ref = cmath.exp(2j * cmath.pi * e / N)
        assert abs(exact - ref) < 1e-12


def test_root_order_and_products():
    z = root_of_unity(1, 12)
    assert z ** 12 == 1
    assert z ** 6 == -1
    assert z ** 4 == root_of_unity(1, 3)
    assert root_of_unity(5, 12) * root_of_unity(9, 12) == root_of_unity(2, 12)


def test_cross_order_identification():
    # zeta_10^2 is zeta_5, and mixing orders lifts through the lcm
    assert root_of_unity(2, 10) == root_of_unity(1, 5)
    assert root_of_unity(1, 10) != root_of_unity(1, 5)
    prod = root_of_unity(1, 4) * root_of_unity(1, 3)
    assert prod == root_of_unity(7, 12)


# ---------------------------------------------------------------------------
# the quadratic Gauss sum mod 5: the first nontrivial frozen oracle.
# tau = z - z^2 - z^3 + z^4 = sqrt(5); brute force, no character machinery.
# ---------------------------------------------------------------------------


def _tau5():
    leg = {1: 1, 2: -1, 3: -1, 4: 1}
    t = CycNumber.zero()
    for x, s in leg.items():
        t = t + s * root_of_unity(x, 5)
    return t


def test_quadratic_gauss_sum_mod5():
    tau = _tau5()
    assert abs(tau.to_complex() - 2.2360679774997896) < 1e-12
    assert tau.norm_squared() == 5
    assert tau * tau == 5  # chi(-1) = 1 here
    assert tau.conjugate() == tau


def test_norm_squared_is_rational_here():
    tau = _tau5()
    x = tau.norm_squared()
    assert x.N == 1 and x == Fraction(5)


# ---------------------------------------------------------------------------
# ring laws (deterministic sweep + a light hypothesis pass)
# ---------------------------------------------------------------------------


def _random_elt(rng, N):
    ctx = get_context(N)
    vec = np.array([rng.randint(-3, 3) for _ in range(ctx.phi)])
    return CycNumber.from_vec(N, vec, rng.randint(1, 4))


@pytest.mark.parametrize("N", [5, 12, 54, 500])
def test_ring_laws_sweep(N):
    rng = random.Random(20260815 + N)
    for _ in range(25):
        a, b, c = (_random_elt(rng, N) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == 0
        ac, bc = a.to_complex(), b.to_complex()
        assert abs((a * b).to_complex() - ac * bc) < 1e-8
        assert abs((a + b).to_complex() - (ac + bc)) < 1e-10


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_conjugation_is_multiplicative(u, v):
    a = CycNumber.from_vec(5, np.array(u))
    b = CycNumber.from_vec(5, np.array(v))
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_big_coefficient_fallback():
    # force the object-dtype path: coefficients way past the int64 guard
    big = 2 ** 70
    a = CycNumber.from_vec(5, np.array([big, 1, 0, -big], dtype=object))
    b = CycNumber.from_vec(5, np.array([1, big, 0, 0], dtype=object))
    prod = a * b
    assert prod == b * a
    na, nb = complex(a.to_complex()), complex(b.to_complex())
    assert abs(prod.to_complex() / (na * nb) - 1) < 1e-9


def _spy_reduce_inputs(monkeypatch):
    seen = []
    real = CycContext.reduce_groupring
    monkeypatch.setattr(CycContext, "reduce_groupring",
                        lambda self, vec: seen.append(vec.dtype) or real(self, vec))
    return seen


@pytest.mark.parametrize("N", [5, 12, 20, 294, 2500])
@pytest.mark.parametrize("over", [False, True])
def test_reduce_guard_edge(N, over):
    # signs along the heaviest column of pow_rows reduce to exactly
    # reduce_gain * v: the guard's bound is attained, so its edge is the real one
    ctx = get_context(N)
    j = int(np.abs(ctx.pow_rows).sum(axis=0).argmax())
    vec = np.zeros(N, dtype=np.int64)
    vec[:: ctx.K] = np.sign(ctx.pow_rows[:, j])
    v = (2 ** 62 - 1) // ctx.reduce_gain + over
    out = ctx.reduce_groupring(vec * v)
    assert out.dtype == (object if over else np.int64)
    assert int(out[j * ctx.K]) == v * ctx.reduce_gain
    assert [int(c) for c in out] == list(ctx.reduce_groupring(vec.astype(object) * v))
    # a stack of vectors takes the same decision and gives the same rows
    stacked = ctx.reduce_groupring(np.stack([vec * v, -vec * v]))
    assert stacked.dtype == out.dtype
    assert [int(c) for c in stacked[1]] == [-int(c) for c in out]


@pytest.mark.parametrize("N", [20, 2500])
def test_reduce_guard_reads_both_signs(N):
    # the decision depends on the largest magnitude, also when it is negative
    ctx = get_context(N)
    v = (2 ** 62 - 1) // ctx.reduce_gain
    vec = np.zeros((2, N), dtype=np.int64)
    vec[1, 1] = -v
    assert ctx.reduce_groupring(vec).dtype == np.int64
    vec[1, 1] = -v - 1
    assert ctx.reduce_groupring(vec).dtype == object
    assert ctx.reduce_groupring(-vec).dtype == object


@pytest.mark.parametrize("over", [False, True])
def test_multiply_and_fold_guard_edge(over, monkeypatch):
    # x = 1 + z + z^2 + z^3 in Q(zeta_5): x*x convolves to 1,2,3,4,3,2,1, whose
    # tail folds onto the head, and the convolution stays in int64 exactly
    # while |a| |b| phi(5) = 4 c d < 2**62
    x = CycNumber.from_vec(5, np.array([1, 1, 1, 1]))
    c, d = 2 ** 30, 2 ** 30 - 1 + over
    want = (x * x) * (c * d)
    seen = _spy_reduce_inputs(monkeypatch)
    got = (x * c) * (x * d)
    assert seen == [object if over else np.int64]
    assert got == want


# ---------------------------------------------------------------------------
# hash / eq contract
# ---------------------------------------------------------------------------


def test_equal_values_across_orders_hash_equal():
    a, b = root_of_unity(1, 3), root_of_unity(2, 6)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(CycNumber.rational(3)) == hash(3) == hash(Fraction(3))
    assert hash(CycNumber.rational(Fraction(-2, 7))) == hash(Fraction(-2, 7))


@given(st.sampled_from([3, 4, 5, 6, 9, 12, 20]),
       st.integers(2, 5),
       st.lists(st.integers(-9, 9), min_size=8, max_size=8),
       st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_lifting_preserves_eq_and_hash(N, k, coeffs, den):
    phi = get_context(N).phi
    x = CycNumber.from_vec(N, np.array(coeffs[:phi]), den)
    # the same value written in Q(zeta_kN): zeta_N^i = zeta_kN^(k i)
    y = EXACT.root_combination(k * N, {k * i: Fraction(c, x.den) for i, c in enumerate(x.num)})
    assert x == y and y == x
    assert hash(x) == hash(y)
    assert len({x, y}) == 1
    if x.N != 1:
        assert y.N == k * N


# ---------------------------------------------------------------------------
# recognition / proportionality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [5, 12, 54])
def test_root_recognition_roundtrip(N):
    for e in range(N):
        for r in (Fraction(1), Fraction(-3, 4), Fraction(7)):
            x = root_of_unity(e, N) * r
            got = x.as_root_times_rational()
            assert got is not None
            ge, gr = got
            assert root_of_unity(ge, N) * gr == x


def test_recognition_rejects_non_monomials():
    x = root_of_unity(1, 5) + root_of_unity(2, 5)
    assert x.as_root_times_rational() is None
    assert _tau5().as_root_times_rational() is None


def test_proportionality_ratio():
    tau = _tau5()
    assert proportionality_ratio(tau * Fraction(7, 3), tau) == Fraction(7, 3)
    assert proportionality_ratio(CycNumber.zero(), tau) == 0
    assert proportionality_ratio(tau, root_of_unity(1, 5)) is None
    assert proportionality_ratio(tau, CycNumber.zero()) is None


def test_proportionality_ratio_by_integer_coordinates():
    b = CycNumber.from_vec(5, np.array([1, 2, 0, 3]), 4)
    # proportional, over denominators 6 and 4, with a negative ratio
    a = CycNumber.from_vec(5, np.array([-5, -10, 0, -15]), 6)
    assert a.den != b.den
    assert proportionality_ratio(a, b) == Fraction(-10, 3)
    assert a == b * Fraction(-10, 3)
    # 2b except for one coordinate that is off by 1
    assert proportionality_ratio(CycNumber.from_vec(5, np.array([2, 4, 0, 7]), 4), b) is None
    # a vanishes at b's first nonzero coordinate
    assert proportionality_ratio(CycNumber.from_vec(5, np.array([0, 2, 0, 3]), 4), b) is None


def test_negative_power_of_monomial():
    z = root_of_unity(1, 5)
    assert (2 * z) ** -1 == root_of_unity(4, 5) * Fraction(1, 2)
    with pytest.raises(ArithmeticError):
        (_tau5() + 1) ** -1


# ---------------------------------------------------------------------------
# ScaledScalar
# ---------------------------------------------------------------------------


def test_scaled_scalar_mul_and_strict_add():
    tau = _tau5()
    a = ScaledScalar.of(tau, Fraction(-1, 2))
    sq = a * a
    assert sq.coeff == 5 and sq.qexp == -1
    assert (a + a).coeff == 2 * tau
    with pytest.raises(QExpMismatchError):
        a + sq


def test_scaled_scalar_zero_normalizes_qexp():
    z = ScaledScalar.of(0, Fraction(9, 2))
    assert z.qexp == 0
    # and zero is addable across any exponent
    a = ScaledScalar.of(_tau5(), Fraction(-1, 2))
    assert (a + z) == a


def test_scaled_scalar_power_is_the_repeated_product():
    def repeated(x, k):
        out = ScaledScalar.of(1)
        for _ in range(k):
            out = out * x
        return out

    exact = ScaledScalar.of(_tau5() + root_of_unity(1, 3), Fraction(-1, 2))
    zero = ScaledScalar.of(0)
    floating = ScaledScalar.of(complex(0.8, -1.3), Fraction(3, 2))
    for k in range(6):
        assert exact ** k == repeated(exact, k)
        assert (exact ** k).qexp == Fraction(-k, 2)
        assert zero ** k == repeated(zero, k)
        got, want = floating ** k, repeated(floating, k)
        assert got.qexp == want.qexp == Fraction(3 * k, 2)
        if k:
            assert cmath.isclose(got.coeff, want.coeff, rel_tol=1e-12)
    assert exact ** 0 == zero ** 0 == floating ** 0 == ScaledScalar.of(1)
    assert (zero ** 3).is_zero_exact() and (zero ** 3).qexp == 0


def test_exact_and_float_scalars_never_mix():
    exact = ScaledScalar.of(_tau5(), Fraction(-1, 2))
    floating = ScaledScalar.of(_tau5().to_complex(), Fraction(-1, 2))
    for a, b in ((exact, floating), (floating, exact)):
        with pytest.raises(TypeError):
            a * b
        with pytest.raises(TypeError):
            a + b
    with pytest.raises(TypeError):  # the float backend compares complex values only
        FLOAT.eq(_tau5(), _tau5().to_complex())


def test_eq_value_absorbs_integer_gaps():
    tau = _tau5()
    a = ScaledScalar.of(tau, Fraction(-1, 2))
    b = ScaledScalar.of(tau * 5, Fraction(-3, 2))
    assert a.eq_value(b, 5, EXACT)
    assert b.eq_value(a, 5, EXACT)
    assert not a.eq_value(ScaledScalar.of(tau, Fraction(-3, 2)), 5, EXACT)
    # half-integer gaps are never equal in exact mode unless both vanish
    c = ScaledScalar.of(tau, Fraction(0))
    assert not a.eq_value(c, 5, EXACT)


def test_eq_value_float_closes_half_integer_gap():
    # sqrt(5) = tau, so tau * q^0 equals 1 * q^{1/2} as a number when q = 5
    tau = ScaledScalar.of(_tau5().to_complex(), Fraction(0))
    half = ScaledScalar.of(1 + 0j, Fraction(1, 2))
    assert tau.eq_value(half, 5, FLOAT)


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_root_combination(backend):
    v = backend.root_combination(5, {1: 1, 2: 1, 3: 1, 4: 1})
    assert backend.eq(v, -1)
    counts = np.zeros(12, dtype=np.int64)
    counts[[0, 4, 8]] = 1  # 1 + w + w^2 for w = zeta_3
    assert backend.is_zero(backend.root_combination_vec(12, counts))


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("N", [12, 100, 294])
def test_root_combination_vec_reduces_a_stack_row_by_row(backend, N):
    rng = np.random.default_rng(N)
    counts = rng.integers(0, 9, (5, N))
    counts[2] = 0
    got = backend.root_combination_vec(N, counts)
    assert len(got) == 5
    for row, value in zip(counts, got):
        assert backend.eq(value, backend.root_combination(N, dict(enumerate(row.tolist()))))
        single = backend.root_combination_vec(N, row)
        assert backend.eq(value, single)
        if backend.exact:
            assert repr(value) == repr(single)


def test_backend_agreement_on_random_sums():
    rng = random.Random(7)
    for N in (5, 54):
        for _ in range(10):
            weights = {rng.randrange(N): rng.randint(-5, 5) for _ in range(6)}
            ex = EXACT.root_combination(N, weights)
            fl = FLOAT.root_combination(N, weights)
            assert FLOAT.eq(ex.to_complex(), fl)


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("pt,m", [(1, 1), (1, 12), (9, 1), (9, 6), (25, 20), (7, 294)])
def test_root_sum_matches_root_combination(backend, pt, m):
    # sum_i zeta_pt^add[i] zeta_m^mul[i], exponents outside [0, pt) and [0, m) included
    rng = np.random.default_rng(1000 * pt + m)
    N = math.lcm(pt, m)
    for size in (1, 17, 200):
        add = rng.integers(-3 * pt, 3 * pt, size)
        mul = rng.integers(-3 * m, 3 * m, size)
        weights = Counter(a * (N // pt) + b * (N // m) for a, b in zip(add.tolist(), mul.tolist()))
        assert backend.eq(backend.root_sum(pt, add, m, mul), backend.root_combination(N, weights))
    weights = Counter(b * (N // m) for b in mul.tolist())
    assert backend.eq(backend.root_sum(pt, 0, m, mul), backend.root_combination(N, weights))


def test_backend_mode_validation():
    with pytest.raises(ValueError):
        Backend("symbolic")
