"""Hyper-Kloosterman sums: direct grid vs Gauss-sum factorization."""
import contextlib
import dataclasses
import hashlib
import io
import re

import numpy as np
import pytest

from epsilonlab import kloosterman
from epsilonlab.characters import MultChar, trivial_char
from epsilonlab.kloosterman import (
    BudgetError,
    GaussTable,
    KLQuery,
    build_gauss_table,
    direct_term_count,
    kl_direct,
    kl_result_json,
    kl_row,
    kl_via_dft,
)
from epsilonlab.cli import main
from epsilonlab.local_factors import gauss_sum_full_level
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
    return [int(u) for u in unit_group(p, t).units()]


# ---------------------------------------------------------------------------
# the direct engine
# ---------------------------------------------------------------------------


def test_frozen_classical_value():
    # S(1,1;5) = 2 + zeta_5^2 + zeta_5^3
    q = KLQuery(trivial_char(5), 2, 1, 1)
    got = kl_direct(q)
    want = CycNumber.rational(2) + root_of_unity(2, 5) + root_of_unity(3, 5)
    assert got == want
    assert abs(got.to_complex() - 0.3819660112501051) < 1e-12
    assert abs(kl_direct(q, backend=FLOAT) - 0.3819660112501051) < 1e-12


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_direct_matches_independent_n2_oracle(p, t):
    for y in units_mod(p, t):
        q = KLQuery(trivial_char(p), 2, y, t)
        assert kl_direct(q) == classical_kloosterman(p, t, y)


def test_argument_reduction():
    # the sum only sees y mod p^t
    p, t = 5, 2
    a = KLQuery(trivial_char(p), 3, 7, t)
    b = KLQuery(trivial_char(p), 3, 7 + p ** t, t)
    assert a.y == b.y == 7
    assert kl_direct(a) == kl_direct(b)


def test_query_validation():
    with pytest.raises(ValueError):
        KLQuery(trivial_char(5), 1, 1, 1)  # no summation variables
    with pytest.raises(ValueError):
        KLQuery(trivial_char(5), 2, 10, 1)  # y not a unit
    with pytest.raises(ValueError):
        KLQuery(trivial_char(5), 2, 1, 0)  # level must be positive
    with pytest.raises(ValueError):
        KLQuery(MultChar(5, 2, 1), 2, 1, 1)  # twist conductor exceeds level


def test_twist_presentation_invariance():
    # the same omega presented at a deeper level gives the same sum
    om1 = MultChar(5, 1, 1)
    om3 = om1.induce(3)
    q1 = KLQuery(om1, 2, 3, 2)
    q3 = KLQuery(om3, 2, 3, 2)
    assert kl_direct(q1) == kl_direct(q3)
    assert kl_via_dft(q1, build_gauss_table(5, 2)) == kl_via_dft(q3, build_gauss_table(5, 2))


def test_term_budget():
    q = KLQuery(trivial_char(7), 4, 1, 2)
    with pytest.raises(BudgetError):
        kl_direct(q, term_budget=1000)
    assert direct_term_count(q) == 42 ** 3
    assert unit_group(q.p, q.t).order == 42  # post-table cost is linear, not cubic


# ---------------------------------------------------------------------------
# the Gauss-sum table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_table_methods_agree_exactly(p, t):
    # the oracle: every sum on its own, through the character layer
    naive = tuple(gauss_sum_full_level(MultChar(p, t, k), t) for k in range(phi(p, t)))
    dft = build_gauss_table(p, t)
    assert naive == dft.values


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
        kl_via_dft(KLQuery(trivial_char(5), 2, 1, 2), table)


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
            for y in units_mod(p, t):
                q = KLQuery(om, n, y, t)
                assert kl_direct(q) == kl_via_dft(q, table), (p, t, n, om, y)


def test_cross_algorithm_float():
    p, t = 5, 1
    table = build_gauss_table(p, t, backend=FLOAT)
    for y in units_mod(p, t):
        q = KLQuery(MultChar(p, 1, 1), 3, y, t)
        direct = kl_direct(q, backend=FLOAT)
        dft = kl_via_dft(q, table)
        exact = to_complex(kl_direct(q))
        assert abs(direct - exact) < 1e-9
        assert abs(dft - exact) < 1e-9


# ---------------------------------------------------------------------------
# the row engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_row_matches_direct_everywhere(p, t):
    table = build_gauss_table(p, t)
    ug = unit_group(p, t)
    for n in (2, 3, 4):
        for om in level_chars(p, t):
            row = kl_row(om, n, table)
            assert len(row) == ug.order
            for y in units_mod(p, t):
                q = KLQuery(om, n, y, t)
                got = row[ug.dlog(y)]
                assert got == kl_direct(q), (p, t, n, om, y)
                assert got == kl_via_dft(q, table)


def test_float_row_matches_exact_row():
    p, t, n = 5, 2, 3
    ex, fl = build_gauss_table(p, t), build_gauss_table(p, t, backend=FLOAT)
    for om in (trivial_char(p), MultChar(p, 1, 1), MultChar(p, t, 3)):
        for a, b in zip(kl_row(om, n, ex), kl_row(om, n, fl)):
            assert FLOAT.eq(to_complex(a), b)


def test_powers_computed_once_per_table(monkeypatch):
    table = build_gauss_table(5, 2)
    calls = []
    real_pow = CycNumber.__pow__
    monkeypatch.setattr(CycNumber, "__pow__",
                        lambda self, k: calls.append(k) or real_pow(self, k))
    for om in level_chars(5, 2):
        kl_row(om, 3, table)
    assert calls == [2] * table.order  # one tau^2 per character, shared by every omega
    assert table.powers(2) is table.powers(2)
    assert build_gauss_table(5, 2) == table  # the memo is not part of the value


def test_via_dft_computes_one_row_per_twist(monkeypatch):
    p, t, n = 5, 2, 3
    table = build_gauss_table(p, t)
    ug = unit_group(p, t)
    omega = MultChar(p, 1, 1)  # presented below t: keyed by its exponent at level t
    rows = []
    real = kloosterman.kl_row
    monkeypatch.setattr(kloosterman, "kl_row", lambda *args: rows.append(args) or real(*args))
    got = [kl_via_dft(KLQuery(omega, n, y, t), table) for y in units_mod(p, t)]
    got += [kl_via_dft(KLQuery(omega.induce(t), n, y, t), table) for y in units_mod(p, t)]
    assert len(rows) == 1  # 2 m calls, one row
    want = real(omega, n, table)
    assert got == [want[ug.dlog(y)] for y in units_mod(p, t)] * 2
    kl_via_dft(KLQuery(omega, n + 1, 2, t), table)
    assert len(rows) == 2  # another n is another row
    assert table._rows and build_gauss_table(p, t) == table  # the memo is not part of the value


def test_row_rejects_bad_inputs():
    table = build_gauss_table(5, 1)
    with pytest.raises(ValueError):
        kl_row(trivial_char(5), 1, table)  # no summation variables
    with pytest.raises(ValueError):
        kl_row(MultChar(5, 2, 1), 2, table)  # conductor 2 does not factor through level 1
    with pytest.raises(ValueError):
        kl_row(trivial_char(3), 2, table)  # character of another Q_p


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
    gain = get_context(20).reduce_gain  # N = lcm(5, 4)
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
    assert list(kl_row(omega, 2, table)) == want
    assert seen == [object if over else np.int64]


def test_forced_object_row_equals_int64_row(monkeypatch):
    table = build_gauss_table(5, 2)
    omegas = (trivial_char(5), MultChar(5, 2, 7))
    fast = [kl_row(om, 3, table) for om in omegas]
    monkeypatch.setattr(CycContext, "fits_int64", lambda self, max_abs: False)
    seen = _spy_row_reductions(monkeypatch)
    slow = [kl_row(om, 3, table) for om in omegas]
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
            for y in units_mod(p, t):
                lhs = kl_direct(KLQuery(om, n, y, t)).conjugate()
                rhs = par * kl_direct(KLQuery(om.inv(), n, (-1) ** n * y % pt, t))
                assert lhs == rhs, (n, om, y)


def test_orthogonality_reconstruction():
    # sum_y chi^{-1}(y) KL_{omega,n}(y;t) recovers tau_t(omega chi) tau_t(chi)^{n-1}
    p, t, n = 3, 1, 3
    table = build_gauss_table(p, t)
    for om in level_chars(p, t):
        kls = {y: kl_direct(KLQuery(om, n, y, t)) for y in units_mod(p, t)}
        for chi in level_chars(p, t):
            acc = CycNumber.zero()
            for y, v in kls.items():
                acc = acc + chi.inv().eval(y) * v
            want = table.values[om.mul(chi).k] * table.values[chi.k] * table.values[chi.k]
            assert acc == want, (om, chi)


def test_result_json_shape():
    q = KLQuery(MultChar(5, 1, 1), 2, 3, 1)
    out = kl_result_json(q, kl_direct(q), "direct")
    assert out["p"] == 5 and out["t"] == 1 and out["n"] == 2 and out["y"] == 3
    assert out["omega"] == {"level": 1, "k": 1}
    assert out["algorithm"] == "direct"
    assert isinstance(out["value_complex"], list) and len(out["value_complex"]) == 2
    assert isinstance(out["value_exact_repr"], str)
    out_f = kl_result_json(q, kl_direct(q, backend=FLOAT), "direct")
    assert out_f["value_exact_repr"] is None
