import cmath
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsilonlab import scalars
from epsilonlab.scalars import (
    EXACT,
    FLOAT,
    Backend,
    CycContext,
    CycNumber,
    CycRow,
    QExpMismatchError,
    ScaledScalar,
    TableBudgetError,
    cyclotomic_poly,
    get_context,
    proportionality_ratio,
    root_of_unity,
)


def from_vec(N, vec, den=1):
    """The element with canonical coordinates vec over den in Q(zeta_N)."""
    assert len(vec) == get_context(N).phi
    return scalars._make(N, np.asarray(vec).tolist(), den)


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


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a):
                out[i + j] += x * y
    return out


def test_cyclotomic_divisor_product_is_x_n_minus_one():
    # the exact oracle: prod over d | n of Phi_d(x) = x^n - 1
    for n in range(1, 401):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _int_poly_mul(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n


@pytest.mark.parametrize("n", [0, -3])
def test_cyclotomic_poly_needs_a_positive_order(n):
    with pytest.raises(ValueError):
        cyclotomic_poly(n)


def test_trace_weights_are_mean_root_powers():
    # Tr(z^i) / phi(N) is the mean of zeta_N^(i k) over the k prime to N
    for N in range(1, 61):
        ks = [k for k in range(1, N + 1) if math.gcd(k, N) == 1]
        for i, w in enumerate(get_context(N).trace_weights()):
            mean = sum(cmath.exp(2j * math.pi * i * k / N) for k in ks) / len(ks)
            assert abs(mean - float(w)) < 1e-9, (N, i)


def _radical(n):
    return math.prod(q for q in range(2, n + 1)
                     if n % q == 0 and all(q % d for d in range(2, math.isqrt(q) + 1)))


@lru_cache(maxsize=None)
def _powers_mod_cyclotomic(r):
    """y^q mod Phi_r(y) for q in [0, r): multiply by y, then subtract the top
    coefficient times the monic Phi_r."""
    poly = list(cyclotomic_poly(r))
    deg = len(poly) - 1
    rows, cur = [], [1] + [0] * (deg - 1)
    for _ in range(r):
        rows.append(cur)
        *cur, top = _int_poly_mul(cur, [0, 1])
        if top:
            cur = [c - top * f for c, f in zip(cur, poly)]
    return rows


def test_pow_rows_are_powers_mod_the_radical_cyclotomic():
    for N in range(1, 401):
        ctx = get_context(N)
        rad = _radical(N)
        assert (ctx.rad, ctx.K) == (rad, N // rad), N
        assert ctx.pow_rows.tolist() == _powers_mod_cyclotomic(rad), N


def test_rewrite_table_budget_refuses_before_allocating(monkeypatch):
    # N = 44,310 = 2 * 3 * 5 * 7 * 211 would need 44,310 x 10,080 int64 entries (3.6 GB)
    tracemalloc.start()
    try:
        with pytest.raises(TableBudgetError, match="446644800 entries"):
            CycContext(44310)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # the budget is inclusive: 2 * 3 * 5 * 7 = 210 rows of 48 coefficients
    monkeypatch.setattr(scalars, "_TABLE_BUDGET", 210 * 48)
    assert CycContext(420).pow_rows.shape == (210, 48)
    monkeypatch.setattr(scalars, "_TABLE_BUDGET", 210 * 48 - 1)
    with pytest.raises(TableBudgetError):
        CycContext(420)


@pytest.mark.parametrize("N", [4, 8, 9, 27, 54, 100, 500, 2058])
def test_context_degree(N):
    ctx = get_context(N)
    # phi is multiplicative; check against a direct gcd count
    assert ctx.phi == sum(1 for k in range(1, N + 1) if np.gcd(k, N) == 1)


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------


RECOGNITION_ORDERS = [1, 5, 12, 54, 294, 500]


@pytest.mark.parametrize("N", RECOGNITION_ORDERS)
def test_root_of_unity_is_the_root_combination(N):
    for e in range(N):
        got, want = root_of_unity(e, N), EXACT.root_combination(N, {e: 1})
        assert (got.N, got.num, got.den) == (want.N, want.num, want.den), e


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
    assert tau * tau.conjugate() == 5
    assert tau * tau == 5  # chi(-1) = 1 here
    assert tau.conjugate() == tau


def test_norm_squared_is_rational_here():
    tau = _tau5()
    x = tau * tau.conjugate()
    assert x.N == 1 and x == Fraction(5)


# ---------------------------------------------------------------------------
# ring laws (deterministic sweep + a light hypothesis pass)
# ---------------------------------------------------------------------------


def _random_elt(rng, N):
    ctx = get_context(N)
    vec = np.array([rng.randint(-3, 3) for _ in range(ctx.phi)])
    return from_vec(N, vec, rng.randint(1, 4))


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
    a = from_vec(5, np.array(u))
    b = from_vec(5, np.array(v))
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_big_coefficient_fallback():
    # force the object-dtype path: coefficients way past the int64 guard
    big = 2 ** 70
    a = from_vec(5, np.array([big, 1, 0, -big], dtype=object))
    b = from_vec(5, np.array([1, big, 0, 0], dtype=object))
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
    x = from_vec(5, np.array([1, 1, 1, 1]))
    c, d = 2 ** 30, 2 ** 30 - 1 + over
    want = (x * x) * (c * d)
    seen = _spy_reduce_inputs(monkeypatch)
    got = (x * c) * (x * d)
    assert seen == [object if over else np.int64]
    assert got == want


def _naive_product(x, y, N):
    """x * y in Z[C_N], one term at a time in Python ints."""
    row = [0] * N
    for i, a in enumerate(x.tolist()):
        for j, b in enumerate(y.tolist()):
            row[(i + j) % N] += a * b
    return row


def _coordinate_rows(rng, K, n, size):
    """K rows of n coordinates below size: full rows, zero rows and
    single-coordinate rows in turn."""
    rows = []
    for k in range(K):
        row = [0] * n
        if k % 3 == 0:
            row = [rng.randint(-size, size) for _ in range(n)]
        elif k % 3 == 2:
            row[rng.randrange(n)] = rng.choice([-1, 1]) * rng.randint(1, size)
        rows.append(row)
    return scalars._int_array(rows)


@pytest.mark.parametrize("N", [5, 20, 27])  # the convolution folds at 5 and 27, not at 20
@pytest.mark.parametrize("K", [1, 3, 20])
@pytest.mark.parametrize("sizes", [(99, 99), (99, 2 ** 70), (2 ** 70, 2 ** 70)],
                         ids=["int64", "mixed", "object"])
def test_groupring_product_matches_the_term_by_term_oracle(N, K, sizes):
    # K products, one kernel call each: full, zero and single-coordinate vectors
    rng = random.Random(N * 100 + K)
    n = get_context(N).phi
    X, Y = (_coordinate_rows(rng, K, n, size) for size in sizes)
    for x, y in zip(X, Y):
        got = scalars._groupring_product(x, y, N)
        assert got.shape == (N,)
        assert got.dtype == (np.int64 if sizes == (99, 99) else object)
        assert got.tolist() == _naive_product(x, y, N)


@pytest.mark.parametrize("over", [False, True])
def test_groupring_product_guard_edge(over, monkeypatch):
    # the bound sum |x| * max |y| is 3 * 7 * 5 = 105: one under the guard keeps
    # the product in int64, at the guard it goes to object dtype
    N = 25
    x = np.zeros(20, dtype=np.int64)
    y = np.zeros(20, dtype=np.int64)
    x[:3] = [7, -7, 7]
    y[[0, 19]] = [5, -5]
    monkeypatch.setattr(scalars, "_INT64_GUARD", 105 + (not over))
    got = scalars._groupring_product(x, y, N)
    assert got.dtype == (object if over else np.int64)
    assert got.tolist() == _naive_product(x, y, N)


def test_shifted_root_sums_of_two_factors():
    # factors from Q(zeta_4), Q(zeta_5), Q(zeta_20) and Q, one product past int64:
    # the unreduced products of the two lifted rows give the sums of the
    # multiplied-out values
    values = [_tau5(), root_of_unity(3, 20) / 3, CycNumber.rational(2 ** 70),
              root_of_unity(1, 4) + 1]
    times = [root_of_unity(1, 4), _tau5() + 2, root_of_unity(7, 20), CycNumber.rational(5)]
    mults, m = [0, 1, 3, 2], 4
    want = scalars.shifted_root_sums([v * w for v, w in zip(values, times)], mults, m, EXACT, 7)
    rows = [scalars._lifted_row(factors, 20) for factors in (values, times)]
    assert rows[0].coords.dtype == object and rows[1].coords.dtype == np.int64
    assert scalars._shifted_products(*rows, mults, m, 7) == want
    products = [v.to_complex() * w.to_complex() for v, w in zip(values, times)]
    got = scalars.shifted_root_sums(products, mults, m, FLOAT, 7)
    assert all(cmath.isclose(g, w.to_complex(), rel_tol=1e-12) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# rows: one reduced stack, entries on demand
# ---------------------------------------------------------------------------


def _groupring_rows(N, K=6, seed=2801):
    """K unreduced group-ring vectors of Z[C_N]: random ones, a rational one
    (only exponent 0) and zero."""
    rng = np.random.default_rng(seed)
    R = rng.integers(-9, 10, size=(K, N))
    R[-2] = 0
    R[-2, 0] = 6
    R[-1] = 0
    return R


def test_row_entries_are_the_made_values():
    N, den = 12, 4
    R = _groupring_rows(N)
    row = scalars._stack_values(N, R, den)
    made = [scalars._make(N, c, den) for c in get_context(N).reduce_groupring(R).tolist()]
    assert len(row) == len(made) and row.coords.shape == (len(made), get_context(N).phi)
    assert [repr(v) for v in row] == [repr(v) for v in made]
    assert [repr(row[i]) for i in range(len(row))] == [repr(v) for v in made]
    assert row[-2] == CycNumber.rational(Fraction(3, 2)) and row[-2].N == 1  # demoted
    assert row[-1] == CycNumber.zero() and row[-1].N == 1
    assert not row.coords.flags.writeable


def test_row_equals_the_tuple_of_its_entries():
    N = 20
    row = scalars._stack_values(N, _groupring_rows(N), 7)
    entries = tuple(row)
    assert row == entries and entries == row
    assert row != entries[:-1] + (entries[-1] + 1,)
    assert row != list(entries)  # as for a tuple, a list is another type


def test_row_equality_cross_multiplies_the_denominators():
    N = 20
    R = _groupring_rows(N)
    one, three = scalars._stack_values(N, R, 1), scalars._stack_values(N, 3 * R, 3)
    assert one.den == 1 and three.den == 3
    assert one == three and EXACT.eq_rows(one, three) == [True] * len(R)
    R[2, 5] += 1
    moved = scalars._stack_values(N, 3 * R, 3)
    assert EXACT.eq_rows(one, moved) == [i != 2 for i in range(len(R))]
    assert one != moved


def test_row_object_stack_equals_the_int64_stack(monkeypatch):
    N = 12
    R = _groupring_rows(N)
    fast = scalars._stack_values(N, R, 1)
    monkeypatch.setattr(CycContext, "fits_int64", lambda self, max_abs: False)
    slow = scalars._stack_values(N, 5 * R, 5)
    assert fast.coords.dtype == np.int64 and slow.coords.dtype == object
    assert fast == slow and slow == fast
    assert [repr(v) for v in slow] == [repr(v) for v in fast]


@pytest.mark.parametrize("over", [False, True])
def test_row_comparison_scales_past_the_guard_exactly(over):
    # entries X / 3 and 5X / 15: comparing scales the first stack by 5, which
    # leaves int64 exactly when 5X reaches the guard
    X = (2 ** 62 - 1) // 5 + over
    a = CycRow(1, np.array([[X], [1]], dtype=np.int64), 3)
    b = CycRow(1, np.array([[5 * X], [6]], dtype=object), 15)
    assert scalars._times_int(a.coords, 5).dtype == (object if over else np.int64)
    assert EXACT.eq_rows(a, b) == [True, False]


def test_rows_of_different_fields_do_not_compare():
    R = _groupring_rows(12)
    small = scalars._stack_values(12, R, 1)
    lifted = np.zeros((len(R), 24), dtype=R.dtype)
    lifted[:, ::2] = R  # zeta_12^e = zeta_24^(2e)
    large = scalars._stack_values(24, lifted, 1)
    assert tuple(small) == tuple(large)  # the same values, held in two fields
    with pytest.raises(ValueError, match="do not compare"):
        small == large
    with pytest.raises(ValueError, match="do not compare"):
        EXACT.eq_rows(small, large)


@pytest.mark.parametrize("row, dtype", [
    ([0, 1, -1], np.int64),
    ([2 ** 63 - 1, -2 ** 63], np.int64),
    ([2 ** 63], object),
    ([-2 ** 63 - 1], object),
    ([2 ** 70, 3], object),
    ([1, 2 ** 63], object),
])
def test_int_array_keeps_every_value(row, dtype):
    # past int64 numpy would infer uint64, float64 or object: each goes to
    # object dtype, with the Python ints themselves as entries
    for rows in (row, [row, row[::-1]]):
        arr = scalars._int_array(rows)
        assert arr.dtype == dtype
        assert arr.tolist() == rows
        assert all(type(c) is int for c in arr.ravel().tolist())


@pytest.mark.parametrize("coords", [[2 ** 63 - 1, -2 ** 63, 5, 0],
                                    [2 ** 63, -2 ** 63 - 1, 2 ** 70, 1]])
def test_wide_coordinates_conjugate_and_lift_exactly(coords):
    # coordinates at and past the int64 range reach _reduce_at through
    # conjugation and through the lift of Q(zeta_5) into Q(zeta_15)
    x = from_vec(5, np.array(coords, dtype=object))
    want_conj = EXACT.root_combination(5, {-i % 5: c for i, c in enumerate(coords)})
    assert x.conjugate() == want_conj
    # zeta_5^i zeta_3 = zeta_15^(3i + 5)
    want_lift = EXACT.root_combination(15, {(3 * i + 5) % 15: c for i, c in enumerate(coords)})
    got = x * root_of_unity(1, 3)
    assert got.N == 15 and got == want_lift
    assert repr(got) == repr(want_lift)


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
    x = from_vec(N, np.array(coeffs[:phi]), den)
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


def _sparse(x):
    return tuple((i, c) for i, c in enumerate(x.num) if c)


def _projectivize(sparse):
    lead = Fraction(sparse[0][1])
    return tuple((i, Fraction(c) / lead) for i, c in sparse)


@lru_cache(maxsize=None)
def _root_sparse_rows(N):
    """z^e for every e mod N as ((index, coeff), ...): row q of pow_rows at the
    indices jK + s, e = qK + s."""
    ctx = get_context(N)
    return [tuple((j * ctx.K + e % ctx.K, int(c))
                  for j, c in enumerate(ctx.pow_rows[e // ctx.K]) if c) for e in range(N)]


@lru_cache(maxsize=None)
def _recognition_table(N):
    """Projectivized sparse form of every z^e -> the least such e."""
    table = {}
    for e, row in enumerate(_root_sparse_rows(N)):
        table.setdefault(_projectivize(row), e)
    return table


def _table_recognition(x):
    """The oracle: as_root_times_rational by a lookup in a table of all N roots."""
    sp = _sparse(x)
    if not sp:
        return None
    e = _recognition_table(x.N).get(_projectivize(sp))
    if e is None:
        return None
    row = _root_sparse_rows(x.N)[e]
    if len(row) != len(sp):
        return None
    r = Fraction(sp[0][1], x.den) / row[0][1]
    for (i, c), (ri, rc) in zip(sp, row):
        if i != ri or Fraction(c, x.den) != r * rc:
            return None
    if r < 0 and x.N % 2 == 0:
        e, r = (e + x.N // 2) % x.N, -r
    return e % x.N, r


@pytest.mark.parametrize("N", RECOGNITION_ORDERS)
def test_recognition_matches_the_table_oracle(N):
    # 2**70 keeps the coordinates in object dtype
    for e in range(N):
        for r in (Fraction(1), Fraction(-3, 4), Fraction(7), Fraction(2 ** 70)):
            x = root_of_unity(e, N) * r
            got = x.as_root_times_rational()
            assert got == _table_recognition(x), (e, r)
            ge, gr = got
            assert root_of_unity(ge, x.N) * gr == x


@pytest.mark.parametrize("N", [2500, 12500])
def test_recognition_at_root_number_orders(N):
    # orders where a table of all N roots was the expensive part
    for e in (1, 17, N // 2 + 3, N - 1):
        x = root_of_unity(e, N) * Fraction(-3, 4)
        assert x.as_root_times_rational() == ((e + N // 2) % N, Fraction(3, 4))


def test_recognition_rejects_non_monomials():
    x = root_of_unity(1, 5) + root_of_unity(2, 5)
    assert x.as_root_times_rational() is None
    assert _tau5().as_root_times_rational() is None
    # support on two residues mod K = N / rad N
    for N in (12, 54):
        two = root_of_unity(1, N) + root_of_unity(2, N)
        assert len({i % get_context(N).K for i, _c in _sparse(two)}) == 2
        assert two.as_root_times_rational() is None
    # one residue, proportional to no row: 1 + zeta_6 = sqrt(3) zeta_12
    one = root_of_unity(0, 12) + root_of_unity(2, 12)
    assert len({i % get_context(12).K for i, _c in _sparse(one)}) == 1
    assert one.as_root_times_rational() is None
    big = from_vec(5, np.array([2 ** 70, 1, 0, 0], dtype=object))
    assert big.as_root_times_rational() is None
    for x in (two, one, big, _tau5()):
        assert _table_recognition(x) is None


def test_proportionality_ratio():
    tau = _tau5()
    assert proportionality_ratio(tau * Fraction(7, 3), tau) == Fraction(7, 3)
    assert proportionality_ratio(CycNumber.zero(), tau) == 0
    assert proportionality_ratio(tau, root_of_unity(1, 5)) is None
    assert proportionality_ratio(tau, CycNumber.zero()) is None


def test_proportionality_ratio_by_integer_coordinates():
    b = from_vec(5, np.array([1, 2, 0, 3]), 4)
    # proportional, over denominators 6 and 4, with a negative ratio
    a = from_vec(5, np.array([-5, -10, 0, -15]), 6)
    assert a.den != b.den
    assert proportionality_ratio(a, b) == Fraction(-10, 3)
    assert a == b * Fraction(-10, 3)
    # 2b except for one coordinate that is off by 1
    assert proportionality_ratio(from_vec(5, np.array([2, 4, 0, 7]), 4), b) is None
    # a vanishes at b's first nonzero coordinate
    assert proportionality_ratio(from_vec(5, np.array([0, 2, 0, 3]), 4), b) is None


def test_negative_power_of_monomial():
    # powers are square-and-multiply, defined for k >= 0 only; a negative k is
    # refused, monomial or not, before the loop (-1 >> 1 is -1)
    z = root_of_unity(1, 5)
    assert (2 * z) ** 0 == CycNumber.one()
    for x in (2 * z, _tau5() + 1):
        with pytest.raises(ValueError):
            x ** -1


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
