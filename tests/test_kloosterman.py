"""Hyper-Kloosterman sums: direct grid vs Gauss-sum factorization."""
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import re

import numpy as np
import pytest

from epsilonlab import cli, kloosterman, local_factors, scalars
from epsilonlab.characters import MultChar, enumerate_chars, trivial_char
from epsilonlab.kloosterman import (
    BudgetError,
    GaussTable,
    KLQuery,
    build_gauss_table,
    direct_term_count,
    kl_direct,
    kl_via_dft,
)
from epsilonlab.cli import RunConfig, cmd_kloosterman, main
from epsilonlab.local_factors import RootNumberForms, enumerate_reps, gauss_sum
from epsilonlab.padic import phi, unit_group
from epsilonlab.scalars import (
    EXACT,
    FLOAT,
    CycContext,
    CycNumber,
    backend_for,
    get_context,
    root_of_unity,
    to_complex,
)


def classical_kloosterman(p, t, y):
    """S(y, 1; p^t) written as its own two-line program: the n = 2 oracle."""
    pt = p ** t
    acc = CycNumber.zero()
    for x in range(1, pt):
        if x % p == 0:
            continue
        acc = acc + root_of_unity((x + y * pow(x, -1, pt)) % pt, pt)
    return acc


def units_mod(p, t):
    return [x for x in range(p ** t) if x % p]


def at(row, p, t, y):
    """The entry of a row over y = g^d, indexed by d, at the unit y."""
    return row[unit_group(p, t).dlog(y)]


# ---------------------------------------------------------------------------
# the direct engine
# ---------------------------------------------------------------------------


def test_frozen_classical_value():
    # S(1,1;5) = 2 + zeta_5^2 + zeta_5^3
    q = KLQuery(trivial_char(5), 2, 1)
    got = at(kl_direct(q), 5, 1, 1)
    want = CycNumber.rational(2) + root_of_unity(2, 5) + root_of_unity(3, 5)
    assert got == want
    assert abs(got.to_complex() - 0.3819660112501051) < 1e-12
    assert abs(at(kl_direct(q, backend=FLOAT), 5, 1, 1) - 0.3819660112501051) < 1e-12


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_direct_matches_independent_n2_oracle(p, t):
    row = kl_direct(KLQuery(trivial_char(p), 2, t))
    for y in units_mod(p, t):
        assert at(row, p, t, y) == classical_kloosterman(p, t, y)


def test_query_validation():
    with pytest.raises(ValueError):
        KLQuery(trivial_char(5), 1, 1)  # no summation variables
    with pytest.raises(ValueError):
        KLQuery(trivial_char(5), 2, 0)  # level must be positive
    with pytest.raises(ValueError):
        KLQuery(MultChar(5, 2, 1), 2, 1)  # twist conductor exceeds level


def test_twist_presentation_invariance():
    # the same omega presented at a deeper level gives the same sum
    om1 = MultChar(5, 1, 1)
    om3 = om1.induce(3)
    assert kl_direct(KLQuery(om1, 2, 2)) == kl_direct(KLQuery(om3, 2, 2))
    table = build_gauss_table(5, 2)
    assert kl_via_dft(om1, 2, table) == kl_via_dft(om3, 2, table)


def test_term_budget():
    q = KLQuery(trivial_char(7), 4, 2)
    with pytest.raises(BudgetError):
        kl_direct(q, term_budget=1000)
    assert direct_term_count(q) == 42 ** 3
    assert unit_group(q.p, q.t).order == 42  # post-table cost is linear, not cubic


def test_term_budget_boundary_and_the_row_memo():
    q = KLQuery(MultChar(5, 2, 3), 3, 2)
    terms = direct_term_count(q)
    assert terms == 20 ** 2
    value = kl_direct(q, term_budget=terms)  # the budget is inclusive
    hits = kloosterman._direct_row.cache_info().hits
    with pytest.raises(BudgetError, match="^direct sum has 400 terms, budget is 399$"):
        kl_direct(q, term_budget=terms - 1)  # refused although its row is memoised
    assert kloosterman._direct_row.cache_info().hits == hits
    assert kl_direct(q, term_budget=None) == value
    assert kloosterman._direct_row.cache_info().hits == hits + 1
    maxsize = kloosterman._direct_row.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16  # a few rows, not every row of a sweep


# sha256 of the case rows of the kloosterman suite at p = 5, t <= 2, n in {2, 3}
# with a work budget of 100 that no validated configuration allows: the rows at
# t = 2 are budget skips (n = 3: the direct grid; n = 2: the Gauss table), and
# the rows at t = 1 run.  Recorded before the direct engine computed rows.
KL_BUDGET_ROWS_SHA256 = "544a7362ad985d798d25241ff05416a1baa536fe799ac70eee330e8e09b3b925"


def test_cli_budget_skip_rows_unchanged():
    rep = cmd_kloosterman(RunConfig(p=5, t_max=2, n_list=(2, 3), budget=100))
    skips = {c["detail"] for c in rep.skips}
    assert skips == {"direct grid has 400 terms, over budget 100",
                     "Gauss table needs 400 operations, budget is 100"}
    assert {c["detail"] for c in rep.cases if c["status"] == "pass"} == {
        "direct grid (4 terms) vs character table", "direct grid (16 terms) vs character table"}
    text = json.dumps(rep.cases, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == KL_BUDGET_ROWS_SHA256


# sha256 of the case rows of `kloosterman --p 5 --t-max 2 --n 2 --budget 399`,
# recorded while the suite still built the Gauss table lazily, once per case:
# the table at t = 2 needs 400 operations, so all 400 cases there are skips.
KL_TABLE_SKIP_ROWS_SHA256 = "14a6d4dd25bb2ab3515ca8df62aa07b5f543627c97fe97d13237d88c321e2a82"


def test_cli_builds_one_gauss_table_per_instance(monkeypatch):
    builds = []
    real = cli.build_gauss_table
    monkeypatch.setattr(cli, "build_gauss_table",
                        lambda p, t, **kw: builds.append((p, t)) or real(p, t, **kw))
    rep = cmd_kloosterman(RunConfig(p=5, t_max=2, n_list=(2,), budget=399))
    assert builds == [(5, 1), (5, 2)]  # one per (n, t), the refused one too
    assert len(rep.skips) == 400 and {c["detail"] for c in rep.skips} == {
        "Gauss table needs 400 operations, budget is 399"}
    text = json.dumps(rep.cases, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == KL_TABLE_SKIP_ROWS_SHA256


@functools.lru_cache(maxsize=None)
def _unit_grid(p, t, n):
    """Every (x_1, ..., x_{n-1}) of units mod p^t, as residues: the sum of the
    coordinates, the inverse of their product and x_1, one entry per point."""
    pt = p ** t
    units = np.array(units_mod(p, t), dtype=np.int64)
    grid = np.stack(np.meshgrid(*[units] * (n - 1), indexing="ij")).reshape(n - 1, -1)
    prod = np.ones(grid.shape[1], dtype=np.int64)
    for row in grid:
        prod = prod * row % pt
    inverse = np.zeros(pt, dtype=np.int64)
    inverse[units] = [pow(int(u), -1, pt) for u in units]
    return grid.sum(axis=0) % pt, inverse[prod], grid[0]


def direct_by_definition(query, y, backend=EXACT):
    """KL_{omega,n}(y; t) for one y from its own grid: one histogram of the
    exponents of zeta_{p^t}^{x_1 + ... + x_{n-1} + y / (x_1 ... x_{n-1})} omega(x_1),
    with omega evaluated at its own level."""
    p, t, n, om = query.p, query.t, query.n, query.omega
    pt = p ** t
    sums, inverses, x1 = _unit_grid(p, t, n)
    om_exp = np.zeros(pt, dtype=np.int64)
    for u in units_mod(p, t):
        om_exp[u] = om.value_exponent(u)
    return backend.root_sum(pt, sums + y * inverses, om.group_order, om_exp[x1])


def every_twist(p, t):
    """Every character of level t, conductors below t included, and each
    character of level t - 1 in its own presentation."""
    twists = level_chars(p, t)
    if t > 1:
        twists += level_chars(p, t - 1)
    return twists


@pytest.mark.parametrize("p,t,ns", [(5, 2, (2, 3, 4)), (3, 3, (2, 3)), (7, 2, (2, 3))])
def test_direct_row_is_the_per_y_grid(p, t, ns):
    for n in ns:
        for om in every_twist(p, t):
            q = KLQuery(om, n, t)
            row = kl_direct(q)
            for y in units_mod(p, t):
                assert at(row, p, t, y) == direct_by_definition(q, y), (p, t, n, om, y)


@pytest.mark.parametrize("p,t,n", [(5, 2, 3), (3, 3, 2), (7, 1, 4)])
def test_float_direct_row_is_the_per_y_grid(p, t, n, monkeypatch):
    kloosterman._direct_row.cache_clear()  # every float row below is computed here
    built = []
    real_init = CycNumber.__init__
    monkeypatch.setattr(CycNumber, "__init__",
                        lambda self, *args: built.append(args) or real_init(self, *args))
    got = {om.k: kl_direct(KLQuery(om, n, t), backend=FLOAT) for om in level_chars(p, t)}
    assert built == []  # a float row builds no exact scalar
    monkeypatch.undo()
    for k, row in got.items():
        q = KLQuery(MultChar(p, t, k), n, t)
        for y in units_mod(p, t):
            value = at(row, p, t, y)
            assert FLOAT.eq(value, direct_by_definition(q, y, FLOAT)), (k, y)
            assert abs(value - to_complex(direct_by_definition(q, y))) < 1e-9, (k, y)


# ---------------------------------------------------------------------------
# the Gauss-sum table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_table_methods_agree_exactly(p, t):
    # the oracle: tau_t(chi_k) = sum over units x mod p^t of chi_k(x) zeta_{p^t}^x,
    # one term at a time
    naive = []
    for k in range(phi(p, t)):
        chi = MultChar(p, t, k)
        acc = CycNumber.zero()
        for x in [x for x in range(p ** t) if x % p]:
            acc = acc + chi.eval(x) * root_of_unity(x, p ** t)
        naive.append(acc)
    assert tuple(naive) == build_gauss_table(p, t).values


def test_table_degenerate_entries():
    # level 1: trivial character gives the Ramanujan value -1
    t1 = build_gauss_table(5, 1)
    assert t1.values[trivial_char(5).k] == CycNumber.rational(-1)
    # level 2: every character of conductor < 2 contributes 0
    t2 = build_gauss_table(5, 2)
    m = t2.order
    zeros = 0
    for k in range(m):
        chi = MultChar(5, 2, k)
        v = t2.values[k]
        if chi.conductor_exponent < 2:
            assert v.is_zero()
            zeros += 1
        else:
            assert v * v.conjugate() == CycNumber.rational(25)
    assert zeros == 4  # phi(5) characters factor through level 1


def pairing_holds(table):
    """tau_t(chi) tau_t(chi^{-1}) = chi(-1) q^t at full conductor, 0 below it,
    and 1 in the Ramanujan corner (trivial chi at t = 1).  Compared in the
    table's backend, so a float table answers within its tolerance."""
    m, qt = table.order, table.p ** table.t
    eq, is_zero = table.backend.eq, table.backend.is_zero
    for k, v in enumerate(table.values):
        prod = v * table.values[(-k) % m]
        sign = -1 if k % 2 else 1  # chi(-1) = (-1)^k, as in MultChar.parity_sign
        expected = (1 if table.t == 1 else 0) if k == 0 else sign * qt
        if not (eq(prod, expected) or (k != 0 and is_zero(prod))):
            return False
    return True


@pytest.mark.parametrize("p,t", [(3, 2), (5, 2), (7, 1)])
def test_table_pairing_invariant(p, t):
    assert pairing_holds(build_gauss_table(p, t))
    assert pairing_holds(build_gauss_table(p, t, backend=FLOAT))


@pytest.mark.parametrize("p,t", [(5, 1), (5, 2), (7, 2)])
def test_table_pairing_uses_the_table_tolerance(p, t):
    table = build_gauss_table(p, t, backend=backend_for("float", 1e-9))
    assert pairing_holds(table)
    k = 1  # a faithful character: full conductor, |tau|^2 = q^t
    values = list(table.values)
    values[k] *= 1 + 1e-7
    bumped = dataclasses.replace(table, values=tuple(values))
    assert not pairing_holds(bumped)
    assert pairing_holds(dataclasses.replace(bumped, backend=backend_for("float", 1e-5)))


def test_table_float_agrees_with_exact():
    ex = build_gauss_table(5, 2)
    fl = build_gauss_table(5, 2, backend=FLOAT)
    for k in range(ex.order):
        assert abs(to_complex(ex.values[k]) - fl.values[k]) < 1e-9


def test_table_budget_and_lookup_errors():
    with pytest.raises(BudgetError):
        build_gauss_table(5, 2, budget=10)
    table = build_gauss_table(5, 1)
    with pytest.raises(ValueError):
        kl_via_dft(MultChar(5, 2, 1), 2, table)  # a twist the level-1 table cannot hold


# ---------------------------------------------------------------------------
# cross-algorithm equality
# ---------------------------------------------------------------------------


def level_chars(p, t):
    m = unit_group(p, t).order
    return [MultChar(p, t, k) for k in range(m)]


@pytest.mark.parametrize(
    "p,t,ns,omegas",
    [
        (3, 1, (2, 3, 4), "all"),
        (5, 1, (2, 3), "all"),
        (7, 1, (2, 3), "some"),
        (3, 2, (2, 3), "some"),
        (5, 2, (2,), "some"),
    ],
)
def test_cross_algorithm(p, t, ns, omegas):
    table = build_gauss_table(p, t)
    oms = level_chars(p, t) if omegas == "all" else [
        trivial_char(p), MultChar(p, t, 1), MultChar(p, t, 2)]
    for n in ns:
        for om in oms:
            assert kl_direct(KLQuery(om, n, t)) == kl_via_dft(om, n, table), (p, t, n, om)


def test_cross_algorithm_float():
    p, t = 5, 1
    table = build_gauss_table(p, t, backend=FLOAT)
    om = MultChar(p, 1, 1)
    q = KLQuery(om, 3, t)
    rows = zip(kl_direct(q, backend=FLOAT), kl_via_dft(om, 3, table), kl_direct(q))
    for direct, dft, exact in rows:
        assert abs(direct - to_complex(exact)) < 1e-9
        assert abs(dft - to_complex(exact)) < 1e-9


# ---------------------------------------------------------------------------
# the row engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_row_matches_direct_everywhere(p, t):
    table = build_gauss_table(p, t)
    ug = unit_group(p, t)
    for n in (2, 3, 4):
        for om in level_chars(p, t):
            row = kl_via_dft(om, n, table)
            assert len(row) == ug.order
            q = KLQuery(om, n, t)
            assert row == kl_direct(q), (p, t, n, om)
            for y in units_mod(p, t):
                assert at(row, p, t, y) == direct_by_definition(q, y), (p, t, n, om, y)


def _some_twists(p, t):
    """The trivial twist, a faithful one, one of conductor t - 1 and the
    quadratic one, each at level t."""
    m = phi(p, t)
    return [MultChar(p, t, k) for k in (0, 1, p, m // 2)]


@pytest.mark.parametrize("p,t", [(3, 3), (5, 2), (5, 3), (7, 2)])
def test_form_row_is_the_direct_row(p, t):
    # at t >= 2 the rows are counted on Gauss-sum forms; the flag of g is
    # left over when t and n are odd
    table = build_gauss_table(p, t)
    for n in (2, 3, 4):
        for om in _some_twists(p, t):
            want = kl_direct(KLQuery(om, n, t), term_budget=None)
            assert kl_via_dft(om, n, table) == want, (n, om)


@pytest.mark.parametrize("p,t", [(7, 1), (13, 1), (7, 3), (11, 2), (13, 2)])
def test_form_row_is_the_literal_transform(p, t):
    # a few entries against m^{-1} sum_k zeta_m^{-k d} tau(omega chi_k) tau(chi_k)^{n-1}
    # written out with the table's literal Gauss sums
    table = build_gauss_table(p, t)
    m, tau = table.order, table.values
    for n in (2, 3):
        for om in _some_twists(p, t)[:2]:
            row = kl_via_dft(om, n, table)
            A = [(k, tau[(k + om.k) % m] * tau[k] ** (n - 1)) for k in range(m)
                 if not tau[k].is_zero() and not tau[(k + om.k) % m].is_zero()]
            for d in (1, m - 2):
                literal = sum((root_of_unity(-k * d, m) * a for k, a in A), CycNumber.zero())
                assert row[d] == literal / m, (n, om, d)


def test_form_row_with_a_rational_past_int64():
    # n = 41 at (3, 2): every A_k is 3^41 times a root of unity, and 3^41 > 2^63
    table = build_gauss_table(3, 2)
    m, tau = table.order, table.values
    om = MultChar(3, 2, 1)
    row = kl_via_dft(om, 41, table)
    for d in range(m):
        literal = sum((root_of_unity(-k * d, m) * tau[(k + 1) % m] * tau[k] ** 40
                       for k in range(m)), CycNumber.zero())
        assert row[d] == literal / m, d


def test_form_row_refuses_a_table_value_off_the_form(level_forms):
    # the exact row reads the level table, which here reads tau(chi_1) of
    # conductor 2 as a value that is no longer 5 times a root of unity
    chi = MultChar(5, 2, 1)
    level_forms(chi, gauss_sum(chi) + 1)
    with pytest.raises(ArithmeticError):
        kl_via_dft(trivial_char(5), 2, build_gauss_table(5, 2))


def test_float_row_matches_exact_row():
    p, t, n = 5, 2, 3
    ex, fl = build_gauss_table(p, t), build_gauss_table(p, t, backend=FLOAT)
    for om in (trivial_char(p), MultChar(p, 1, 1), MultChar(p, t, 3)):
        for a, b in zip(kl_via_dft(om, n, ex), kl_via_dft(om, n, fl)):
            assert FLOAT.eq(to_complex(a), b)


def test_powers_computed_once_per_table(monkeypatch):
    # at t = 1 each tau^{n-1} is raised once per table and rank; rows at
    # t >= 2 raise no power
    table = build_gauss_table(5, 1)
    calls = []
    real_pow = CycNumber.__pow__
    monkeypatch.setattr(CycNumber, "__pow__",
                        lambda self, k: calls.append(k) or real_pow(self, k))
    for om in level_chars(5, 1):
        kl_via_dft(om, 3, table)
    assert calls == [2] * table.order  # one tau^2 per character, shared by every omega
    assert build_gauss_table(5, 1) == table  # the memo is not part of the value
    calls.clear()
    kl_via_dft(trivial_char(5), 3, build_gauss_table(5, 2))
    assert calls == []


def test_forms_recognised_once_per_table(monkeypatch, level_forms):
    # the Kloosterman rows and the stability checks read one level table of
    # forms: each ramified character that is not an atom is recognised once
    # per (p, t), whatever the Gauss table, the twist, the rank or the check
    seen = []
    real = local_factors._gauss_form
    monkeypatch.setattr(local_factors, "_gauss_form",
                        lambda value, *args: seen.append(value) or real(value, *args))
    for _ in range(2):
        table = build_gauss_table(5, 3)
        for n in (2, 3):
            for om in (trivial_char(5), MultChar(5, 3, 1), MultChar(5, 2, 5)):
                kl_via_dft(om, n, table)
    forms = RootNumberForms(5, 3)
    chars = list(enumerate_chars(5, 3))
    for chi in chars[1:]:
        for pi in enumerate_reps(5, 2, 3):
            forms.stability_key(pi, chi)
        for mu in chars:
            if 2 * mu.conductor_exponent <= chi.conductor_exponent:
                forms.gl1_verdict(mu, chi)
    # the atoms, of conductor one and not quadratic, are k = 25 and 75
    assert seen == [gauss_sum(chi) for chi in chars[1:] if chi.k not in (25, 75)]
    assert len(seen) == phi(5, 3) - 3
    assert build_gauss_table(5, 3) == table  # the memo is not part of the value


def test_row_rejects_bad_inputs():
    table = build_gauss_table(5, 1)
    with pytest.raises(ValueError):
        kl_via_dft(trivial_char(5), 1, table)  # no summation variables
    with pytest.raises(ValueError):
        kl_via_dft(MultChar(5, 2, 1), 2, table)  # conductor 2 does not factor through level 1
    with pytest.raises(ValueError):
        kl_via_dft(trivial_char(3), 2, table)  # character of another Q_p


def _spy_row_reductions(monkeypatch):
    """dtype of every batched (2-D) reduction: the row engine's last step."""
    seen = []
    real = CycContext.reduce_groupring

    def spy(self, vec):
        if vec.ndim == 2:
            seen.append(vec.dtype)
        return real(self, vec)

    monkeypatch.setattr(CycContext, "reduce_groupring", spy)
    return seen


@pytest.mark.parametrize("over", [False, True])
def test_row_int64_guard_edge(over, monkeypatch):
    # A rational table with one large entry X: for a twist k_om != 0 and n = 2
    # exactly two of the A_k equal X and the rest are 1, so the row stays in
    # int64 precisely while m * X * reduce_gain < 2**62.
    p, t, k_om = 5, 1, 1
    m = unit_group(p, t).order
    gain = get_context(m).reduce_gain  # rational A_k: the sums live in Q(zeta_m)
    X = (2 ** 62 - 1) // (m * gain) + over
    values = (CycNumber.rational(X),) + (CycNumber.one(),) * (m - 1)
    table = GaussTable(p, t, values, EXACT)
    omega = MultChar(p, t, k_om)
    want = []
    for d in range(m):
        acc = CycNumber.zero()
        for k in range(m):
            acc = acc + root_of_unity(-k * d, m) * values[(k + k_om) % m] * values[k]
        want.append(acc / m)
    seen = _spy_row_reductions(monkeypatch)
    assert list(kl_via_dft(omega, 2, table)) == want
    assert seen == [object if over else np.int64]


def test_row_products_fit_but_their_sum_does_not(monkeypatch):
    # Real Gauss sums scaled by c: every product A_k fits in int64, but m rows
    # of the largest unreduced A_k fail the reduction guard, so the shift and
    # the reduction take object dtype.
    p, t, n, k_om = 5, 1, 2, 1
    base = build_gauss_table(p, t)
    m, N = base.order, math.lcm(p ** t, base.order)
    gain = get_context(N).reduce_gain
    tau = [v._lift_vec(N)[0] for v in base.values]
    assert all(v.den == 1 for v in base.values)
    peak = max(int(np.abs(scalars._groupring_product(
        np.array(tau[(k + k_om) % m]), np.array(tau[k]), N)).max()) for k in range(m))
    c = math.isqrt((2 ** 62 - 1) // (m * gain * peak)) + 1
    assert c * c * peak * m * gain >= 2 ** 62  # the stack of the A_k does not fit
    bound = max(sum(map(abs, x)) for x in tau) * max(max(map(abs, y)) for y in tau)
    assert c * c * bound < 2 ** 62  # every product's kernel bound
    values = tuple(c * v for v in base.values)
    table = GaussTable(p, t, values, EXACT)
    want = []
    for d in range(m):
        acc = CycNumber.zero()
        for k in range(m):
            acc = acc + root_of_unity(-k * d, m) * values[(k + k_om) % m] * values[k] ** (n - 1)
        want.append(acc / m)
    products = []
    real = scalars._groupring_product
    monkeypatch.setattr(scalars, "_groupring_product",
                        lambda *args: products.append(real(*args)) or products[-1])
    seen = _spy_row_reductions(monkeypatch)
    assert list(kl_via_dft(MultChar(p, t, k_om), n, table)) == want
    assert products and {a.dtype for a in products} == {np.dtype(np.int64)}  # the products fit
    assert seen == [object]


def test_forced_object_row_equals_int64_row(monkeypatch):
    table = build_gauss_table(5, 2)
    omegas = (trivial_char(5), MultChar(5, 2, 7))
    fast = [kl_via_dft(om, 3, table) for om in omegas]
    monkeypatch.setattr(CycContext, "fits_int64", lambda self, max_abs: False)
    seen = _spy_row_reductions(monkeypatch)
    slow = [kl_via_dft(om, 3, table) for om in omegas]
    assert seen == [object, object]
    assert slow == fast


def test_forced_object_form_row_equals_int64_row(monkeypatch):
    # t = 3 and n = 3: the multiple of g runs in object dtype too
    table = build_gauss_table(3, 3)
    omegas = (trivial_char(3), MultChar(3, 3, 5))
    fast = [kl_via_dft(om, 3, table) for om in omegas]
    monkeypatch.setattr(CycContext, "fits_int64", lambda self, max_abs: False)
    seen = _spy_row_reductions(monkeypatch)
    slow = [kl_via_dft(om, 3, table) for om in omegas]
    assert seen == [object, object]
    assert slow == fast


# Digests of the `kloosterman --p 5 --t-max 2 --n 2 3 4` reports written by
# the per-query engine that the row engine replaced (JSON with the timing
# field zeroed, and the CSV of every case row).
KL_CLI_JSON_SHA256 = "05e45f04b461ced1c353d499ff3a2d567346ddb9ddef0b947bf79ab203ac32b0"
KL_CLI_CSV_SHA256 = "f6e54f6cc6ace03173bb9fc603b9358f074fea1aecdae40a596946349864e169"


def test_cli_report_bytes_unchanged(tmp_path):
    out, table = tmp_path / "r.json", tmp_path / "r.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["kloosterman", "--p", "5", "--t-max", "2", "--n", "2", "3", "4",
                     "--out", str(out), "--csv", str(table)])
    assert code == 0
    text = re.sub(r'"elapsed_seconds": [0-9.e+-]+', '"elapsed_seconds": 0', out.read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == KL_CLI_JSON_SHA256
    assert hashlib.sha256(table.read_bytes()).hexdigest() == KL_CLI_CSV_SHA256


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def test_conjugation_symmetry():
    # conj(KL_{omega,n}(y)) = omega(-1) * KL_{omega^{-1},n}((-1)^n y)
    p, t = 5, 1
    pt = p ** t
    for n in (2, 3):
        for om in level_chars(p, t):
            par = om.eval(-1 % pt)
            row, row_inv = kl_direct(KLQuery(om, n, t)), kl_direct(KLQuery(om.inv(), n, t))
            for y in units_mod(p, t):
                lhs = at(row, p, t, y).conjugate()
                rhs = par * at(row_inv, p, t, (-1) ** n * y % pt)
                assert lhs == rhs, (n, om, y)


def test_orthogonality_reconstruction():
    # sum_y chi^{-1}(y) KL_{omega,n}(y;t) recovers tau_t(omega chi) tau_t(chi)^{n-1}
    p, t, n = 3, 1, 3
    table = build_gauss_table(p, t)
    for om in level_chars(p, t):
        row = kl_direct(KLQuery(om, n, t))
        kls = {y: at(row, p, t, y) for y in units_mod(p, t)}
        for chi in level_chars(p, t):
            acc = CycNumber.zero()
            for y, v in kls.items():
                acc = acc + chi.inv().eval(y) * v
            want = table.values[om.mul(chi).k] * table.values[chi.k] * table.values[chi.k]
            assert acc == want, (om, chi)


def test_result_json_shape():
    from epsilonlab.cli import _value_json

    q = KLQuery(MultChar(5, 1, 1), 2, 1)
    out = q.to_json()
    assert out == {"p": 5, "t": 1, "n": 2, "omega": {"level": 1, "k": 1}}
    value = _value_json(at(kl_direct(q), 5, 1, 3))
    assert isinstance(value["complex"], list) and len(value["complex"]) == 2
    assert isinstance(value["exact"], str)
    assert _value_json(at(kl_direct(q, backend=FLOAT), 5, 1, 3))["exact"] is None
