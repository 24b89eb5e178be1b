"""Command-line suite behavior: configuration gate, case accounting, budget
paths, report shape, determinism, and exit codes.

The mathematical content of each suite is tested in its own module; here we
check the orchestration around it, so most runs use the smallest prime.
"""

import hashlib
import importlib
import json
import pkgutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import epsilonlab
from epsilonlab import bessel, cli
from epsilonlab.characters import MultChar, chars_with_conductor, enumerate_chars, v_chi
from epsilonlab.local_factors import (RepnData, RootNumberForms, enumerate_reps,
                                      gl1_stability_check, stability_check)
from epsilonlab.kloosterman import KLQuery, kl_direct
from epsilonlab.padic import unit_group
from epsilonlab.scalars import EXACT, CycNumber, CycRow
from epsilonlab.cli import (
    ConfigError,
    RunConfig,
    SuiteReport,
    cmd_bessel,
    cmd_gauss,
    cmd_kloosterman,
    cmd_stability,
    main,
    run_suites,
)


def config(**kw) -> RunConfig:
    cfg = RunConfig(**kw)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# configuration gate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kw, fragment", [
    ({"p": 4}, "odd prime"),
    ({"p": 2}, "odd prime"),
    ({"p": 1}, "odd prime"),
    ({"p": -7}, "odd prime"),
    ({"p": 9}, "odd prime"),
    ({"p": "5"}, "odd prime"),
    ({"t_max": 0}, "t_max"),
    ({"t_max": -1}, "t_max"),
    ({"n_list": ()}, "nonempty"),
    ({"n_list": (0,)}, "rank"),
    ({"n_list": (2, "3")}, "rank"),
    ({"backend": "symbolic"}, "backend"),
    ({"tolerance": 0.0}, "tolerance"),
    ({"tolerance": -1e-9}, "tolerance"),
    ({"budget": 0}, "budget"),
    ({"p": 5, "t_max": 2, "n_list": (3,), "budget": 100}, "exceeds the budget"),
    # booleans are ints to Python, never to a config
    ({"p": True}, "odd prime"),
    ({"t_max": True}, "t_max"),
    ({"n_list": (True,)}, "rank"),
    ({"n_list": (2, False)}, "rank"),
    ({"tolerance": True}, "tolerance"),
    ({"budget": True}, "budget"),
    ({"n_list": 3}, "list of ranks"),
    ({"n_list": "23"}, "list of ranks"),
    # an infinite tolerance makes every float equality hold
    ({"tolerance": float("inf")}, "tolerance"),
    ({"tolerance": float("nan")}, "tolerance"),
    # a unit-group table over padic's budget would fail mid-run
    ({"p": 2003, "t_max": 2, "n_list": (2,), "budget": 10 ** 9}, "table budget"),
    ({"p": 3, "t_max": 14, "budget": 10 ** 9}, "table budget"),  # 3^14 = 4,782,969
    ({"t_max": 10 ** 9}, "table budget"),
    # phi(25)^2999 has 3,900 digits: the refusal names the base and the exponent
    ({"n_list": (3000,)},
     r"^estimated work phi\(5\^2\)\^2999 = 20\^2999 terms exceeds the budget"),
])
def test_config_rejections(kw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        RunConfig(**kw).validate()


def test_config_defaults_validate():
    cfg = config()
    assert (cfg.p, cfg.t_max, cfg.n_list) == (5, 2, (2, 3))
    assert cfg.backend == "exact"


@pytest.mark.parametrize("p, t, ns, want", [
    (5, 2, (2, 3), 400),   # phi(25)^2
    (5, 2, (1,), 20),      # rank one still sweeps one character layer
    (3, 1, (4,), 8),       # phi(3)^3
    (7, 1, (2,), 6),
])
def test_config_estimate(p, t, ns, want):
    # the estimate is exactly want: a budget of want passes, one less is refused
    config(p=p, t_max=t, n_list=ns, budget=want)
    with pytest.raises(ConfigError, match="exceeds the budget %d;" % (want - 1)):
        RunConfig(p=p, t_max=t, n_list=ns, budget=want - 1).validate()


def test_budget_boundary_is_inclusive(monkeypatch):
    config(p=5, t_max=2, n_list=(3,), budget=400)  # estimate == budget: allowed
    with pytest.raises(ConfigError):
        RunConfig(p=5, t_max=2, n_list=(3,), budget=399).validate()
    # p^t_max equal to the table budget is allowed, one more than it is not
    monkeypatch.setattr(cli, "_TABLE_BUDGET", 3 ** 13)
    config(p=3, t_max=13, n_list=(1,), budget=10 ** 9)
    monkeypatch.setattr(cli, "_TABLE_BUDGET", 3 ** 13 - 1)
    with pytest.raises(ConfigError, match="unit-group table budget"):
        RunConfig(p=3, t_max=13, n_list=(1,), budget=10 ** 9).validate()


# every field of a run at p has rad(N) = p rad(p - 1): the rewrite table has
# p rad(p - 1) rows of phi(p rad(p - 1)) coefficients
@pytest.mark.parametrize("p, entries", [
    (53, 859_872), (61, 878_400), (97, 111_744), (101, 404_000),
    (59, 5_557_328), (67, 5_837_040), (211, 446_644_800), (1999, 63_840_127_968),
])
def test_rewrite_table_budget(monkeypatch, p, entries):
    if entries <= cli._TABLE_BUDGET:
        config(p=p, t_max=1, n_list=(2,))
    else:
        with pytest.raises(ConfigError, match="p = %d needs a %d-entry cyclotomic rewrite "
                                              "table" % (p, entries)):
            RunConfig(p=p, t_max=1, n_list=(2,)).validate()
    # the same boundary, inclusive
    monkeypatch.setattr(cli, "_TABLE_BUDGET", entries)
    config(p=p, t_max=1, n_list=(2,))
    monkeypatch.setattr(cli, "_TABLE_BUDGET", entries - 1)
    with pytest.raises(ConfigError, match="rewrite table"):
        RunConfig(p=p, t_max=1, n_list=(2,)).validate()


# ---------------------------------------------------------------------------
# gauss suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gauss52():
    return cmd_gauss(config(p=5, t_max=2))


# sha256 of the case rows of cmd_gauss at p = 5, t_max = 2, budget 10,
# recorded before the unit groups kept one generator for every level
GAUSS_BUDGET_ROWS_SHA256 = "5bce4c87a0cf610c8a551ded076f8c7aabbcbaf44ae564a6a2caf8a11e07f074"


def test_gauss_budget_skip_rows_unchanged():
    # validate refuses this budget; an unvalidated config reaches the per-case skip
    rep = cmd_gauss(RunConfig(p=5, t_max=2, budget=10))
    assert len(rep.cases) == 32 and len(rep.skips) == 17
    assert {c["detail"] for c in rep.skips} == {
        "one Gauss sum needs 20 terms, over budget 10", "unramified character: no Gauss sum"}
    text = json.dumps(rep.cases, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GAUSS_BUDGET_ROWS_SHA256


def test_gauss_sweeps_the_whole_level(gauss52):
    assert gauss52.extras["characters"] == 20
    assert len(gauss52.extras["root_numbers"]) == 20
    # four law rows per character
    assert len(gauss52.cases) == 80


def test_gauss_clean_at_p5(gauss52):
    assert gauss52.failures == []
    # the single skip is the trivial character's (undefined) Gauss sum
    assert [c["case"] for c in gauss52.skips] == ["gauss chi[k=0] modulus"]
    assert gauss52.passed


def test_gauss_small_example():
    rep = cmd_gauss(config(p=3, t_max=1))
    assert rep.extras["characters"] == 2
    assert rep.failures == []


def test_gauss_root_number_table_shape(gauss52):
    for entry in gauss52.extras["root_numbers"]:
        a = entry["conductor"]
        assert entry["W"]["qexp"] == str(Fraction(-a, 2))
        if a == 0:
            assert entry["tau"] is None
            assert entry["W"]["complex"] == [1.0, 0.0]
        else:
            # |tau|^2 = q^a was asserted by the suite; spot the float shadow
            re, im = entry["tau"]["complex"]
            assert re * re + im * im == pytest.approx(5.0 ** a)


def test_gauss_float_same_verdicts(gauss52):
    rep = cmd_gauss(config(p=5, t_max=2, backend="float"))
    assert [(c["case"], c["status"]) for c in rep.cases] == \
        [(c["case"], c["status"]) for c in gauss52.cases]


# ---------------------------------------------------------------------------
# stability suite
# ---------------------------------------------------------------------------


def test_stability_rank_one_is_the_two_character_lemma():
    rep = cmd_stability(config(p=5, t_max=2, n_list=(1,)))
    assert rep.failures == []
    # mu unramified pairs with all 19 ramified chi; each a(mu)=1 character
    # pairs with the 16 of conductor two; a(mu)=2 admits nothing at t_max=2
    assert len(rep.cases) == 19 + 3 * 16


def test_stability_rank_one_reads_v_chi_once_per_character(monkeypatch):
    # v_chi checks chi at every y of its deep filtration step; the sweep pairs
    # each chi with every admissible mu but evaluates that step once per chi
    v_chi.cache_clear()
    deep = []
    original = MultChar.value_exponent

    def counting(chi, x):
        if sys._getframe(1).f_code is v_chi.__wrapped__.__code__:
            deep.append((chi, x))
        return original(chi, x)
    monkeypatch.setattr(MultChar, "value_exponent", counting)
    rep = cmd_stability(config(p=5, t_max=2, n_list=(1,)))
    assert rep.failures == [] and len(rep.cases) == 19 + 3 * 16
    # the 16 characters of conductor two, each at y = 0..4
    assert Counter(deep) == {(chi, 1 + 5 * y): 1
                             for chi in chars_with_conductor(5, 2) for y in range(5)}


def test_stability_rank_one_budget_skips():
    rep = cmd_stability(config(p=5, t_max=2, n_list=(1,), budget=25))
    assert rep.passed
    assert len(rep.skips) == 64
    assert sum(1 for c in rep.cases if c["status"] == "pass") == 3
    assert "over budget 25" in rep.skips[0]["detail"]


@pytest.fixture(scope="module")
def stab32():
    return cmd_stability(config(p=3, t_max=2, n_list=(2,)))


def test_stability_in_regime_asserted_clean(stab32):
    assert stab32.failures == []
    assert all(c["status"] == "pass" for c in stab32.cases)


def test_stability_rep_enumeration_count(stab32):
    # dim-2 reps over the pool {triv, quadratic, four of conductor 2}:
    # two Steinberg blocks (a(tau) <= 1) and seven unordered principal pairs
    assert stab32.extras["representations"] == {"2": 9}


def test_stability_every_pair_lands_somewhere(stab32):
    # 9 representations x 5 ramified characters, each either asserted
    # in-regime or tallied out-of-regime -- nothing dropped
    tally = stab32.extras["out_of_regime"]
    assert set(tally) == {"equal", "unequal", "incomparable", "skipped"}
    assert len(stab32.cases) + sum(tally.values()) == 9 * 5
    assert tally["skipped"] == 0


def test_stability_out_of_regime_not_asserted(stab32):
    # shallow twists do break the collapse; they must be recorded, not failed
    assert stab32.extras["out_of_regime"]["unequal"] > 0
    assert stab32.passed


@pytest.mark.parametrize("p, t_max, n_list, tally", [
    (7, 2, (1, 2, 3), {"equal": 400, "unequal": 180, "incomparable": 10, "skipped": 0}),
    (5, 3, (2, 3), {"equal": 3932, "unequal": 1798, "incomparable": 18, "skipped": 0}),
])
def test_stability_out_of_regime_tallies_pinned(p, t_max, n_list, tally):
    # recorded while every out-of-regime pair still built both direct monomials
    rep = cmd_stability(config(p=p, t_max=t_max, n_list=n_list))
    assert rep.extras["out_of_regime"] == tally


def test_stability_odd_conductor_tallies_are_decided_by_integers(monkeypatch):
    # Recorded while 768 of these pairs still multiplied leftover root numbers
    # of conductor 1 and 3.  At p = 3 every character of odd conductor has a
    # Gauss-sum form, so no exact product is left.
    products = []
    _counting(monkeypatch, RootNumberForms, "_atom_product", products)
    rep = cmd_stability(config(p=3, t_max=4, n_list=(2, 3)))
    assert rep.extras["out_of_regime"] == {
        "equal": 1814, "unequal": 827, "incomparable": 16, "skipped": 0}
    assert products == []


def test_stability_mixed_ranks_share_one_report():
    rep = cmd_stability(config(p=3, t_max=1, n_list=(1, 2)))
    assert rep.failures == []
    kinds = {c["case"].split()[1] for c in rep.cases}
    assert kinds == {"n=1", "n=2"}


def _counting(monkeypatch, owner, name, record):
    """Wrap owner.name so that every call appends its arguments to record."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        record.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return original


def _in_regime(pi, chi):
    return chi.conductor_exponent >= max(pi.conductor_exponent, 1)


def test_stability_exact_checks_directly_only_the_cross_slice(monkeypatch):
    keyed, direct, gl1, certified = [], [], [], []
    _counting(monkeypatch, cli.RootNumberForms, "stability_key", keyed)
    _counting(monkeypatch, cli, "stability_check", direct)
    _counting(monkeypatch, cli, "gl1_stability_check", gl1)
    _counting(monkeypatch, cli.CertificateTable, "check_pairs", certified)
    rep = cmd_stability(config(p=5, t_max=2, n_list=(1, 2, 3)))
    assert rep.failures == [] and rep.skips == []
    # in-regime rows of each rank, in sweep order (the rows' sort order)
    want = []
    for n in (2, 3):
        asserted = [c for c in rep.cases if c["n"] == n]
        assert len(asserted) > 2 * cli.STRIDE
        want += [(c["pi"], c["chi_k"]) for c in asserted[::cli.STRIDE]]
    assert [(pi.describe(), chi.k) for _forms, pi, chi in keyed
            if _in_regime(pi, chi)] == want
    # the forms decide every direct check; no passing row builds monomials
    assert direct == [] and gl1 == []
    # one check_pairs call per (pi, conductor) cell in regime
    cells = {(c["n"], json.dumps(c["pi"], sort_keys=True), c["chi_conductor"])
             for c in rep.cases if c["n"] >= 2}
    assert len(certified) == len(cells)


def test_stability_ranks_share_each_certificate_column(monkeypatch):
    columns = []
    _counting(monkeypatch, cli.CertificateTable, "_exponents_uncached", columns)
    rep = cmd_stability(config(p=7, t_max=2, n_list=(1, 2, 3)))
    assert rep.failures == []
    keys = [(table.a, mu.k, s) for table, mu, s in columns]
    # one tabulation per distinct (a, mu) column, however many ranks use it
    assert len(keys) == len(set(keys)) == 5


def test_stability_float_never_reaches_the_certificate_engine(monkeypatch):
    direct, certified = [], []
    _counting(monkeypatch, cli, "stability_check", direct)
    _counting(monkeypatch, cli.CertificateTable, "check_pairs", certified)
    rep = cmd_stability(config(p=5, t_max=2, n_list=(2, 3), backend="float"))
    assert rep.failures == []
    assert certified == []
    assert len(direct) == len(rep.cases)


def _fail_lines(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    code = main(argv + ["--out", str(out)])
    capsys.readouterr()
    (suite,) = json.loads(out.read_text())["suites"]
    return code, suite["failures"]


def test_stability_certificate_rejection_fails_with_direct_detail(tmp_path, capsys,
                                                                  monkeypatch):
    original = cli.CertificateTable.check_pairs
    calls = []

    def rejects_first_row_once(table, pi, rows):
        verdict = original(table, pi, rows)
        if not calls:
            verdict = verdict.copy()
            verdict[0] = False
        calls.append(pi)
        return verdict
    monkeypatch.setattr(cli.CertificateTable, "check_pairs", rejects_first_row_once)
    code, failures = _fail_lines(tmp_path, capsys,
                                 ["stability", "--p", "3", "--t-max", "2", "--n", "2"])
    assert code == 1
    (row,) = failures
    # the direct engine re-decided the pair and its monomials are in the row
    assert "; lhs {" in row["detail"] and "} rhs {" in row["detail"]
    assert row["pi"] == calls[0].describe()


def test_stability_verdict_is_read_at_the_characters_row(tmp_path, capsys, monkeypatch):
    # a false verdict at the row of one chi fails that (pi, chi) case and no
    # other: a verdict read at any other position would move the failure
    reps = [pi for pi in enumerate_reps(5, 2, 2) if pi.dim == 2]
    pi_bad, chi_bad = reps[len(reps) // 2], chars_with_conductor(5, 2)[7]
    original = cli.CertificateTable.check_pairs

    def rejects_one_row(table, pi, rows):
        verdict = original(table, pi, rows)
        if pi == pi_bad and table.a == 2:
            verdict = verdict.copy()
            verdict[rows == table.index_of(chi_bad)] = False
        return verdict
    monkeypatch.setattr(cli.CertificateTable, "check_pairs", rejects_one_row)
    code, failures = _fail_lines(tmp_path, capsys,
                                 ["stability", "--p", "5", "--t-max", "2", "--n", "2"])
    assert code == 1
    (row,) = failures
    assert (row["pi"], row["chi_k"]) == (pi_bad.describe(), chi_bad.k)
    res = stability_check(pi_bad, chi_bad, EXACT)
    assert res.holds  # the direct engine disagrees, and its monomials are reported
    assert row["detail"].endswith("; lhs %s rhs %s" % (
        cli._monomial_json(res.lhs), cli._monomial_json(res.rhs)))


def test_stability_direct_rejection_on_the_cross_slice_fails(tmp_path, capsys,
                                                             monkeypatch):
    original = cli.RootNumberForms.stability_key
    calls = []

    def rejects_first(forms, pi, chi):
        key = original(forms, pi, chi)
        if not _in_regime(pi, chi):
            return key
        calls.append((pi, chi))
        return "unequal" if len(calls) == 1 else key
    monkeypatch.setattr(cli.RootNumberForms, "stability_key", rejects_first)
    code, failures = _fail_lines(tmp_path, capsys,
                                 ["stability", "--p", "3", "--t-max", "2", "--n", "2"])
    assert code == 1
    (row,) = failures
    pi, chi = calls[0]
    assert (row["pi"], row["chi_k"]) == (pi.describe(), chi.k)
    assert "; lhs {" in row["detail"]


def test_stability_rank_one_rejection_fails_with_direct_detail(tmp_path, capsys,
                                                               monkeypatch):
    original = cli.RootNumberForms.gl1_verdict
    calls = []

    def rejects_first(forms, mu, chi):
        holds, rep = original(forms, mu, chi)
        calls.append((mu, chi))
        return holds and len(calls) > 1, rep
    monkeypatch.setattr(cli.RootNumberForms, "gl1_verdict", rejects_first)
    code, failures = _fail_lines(tmp_path, capsys,
                                 ["stability", "--p", "3", "--t-max", "2", "--n", "1"])
    assert code == 1
    (row,) = failures
    mu, chi = calls[0]
    assert (row["mu_k"], row["chi_k"]) == (mu.k, chi.k)
    res = gl1_stability_check(mu, chi, EXACT)
    assert res.holds  # the direct engine disagrees, and its values are reported
    assert row["detail"] == (
        "eps(mu chi) = mu(v_chi) eps(chi), v class rep %d; lhs %s rhs %s"
        % (res.vclass_rep, cli._scaled_json(res.lhs), cli._scaled_json(res.rhs)))


# ---------------------------------------------------------------------------
# kloosterman suite
# ---------------------------------------------------------------------------


def test_kloosterman_smallest_instance():
    rep = cmd_kloosterman(config(p=3, t_max=1, n_list=(3,)))
    assert rep.failures == []
    assert len(rep.cases) == 4  # two twists x two units
    assert rep.extras["instances"] == [
        {"n": 3, "t": 1, "twists": 2, "units": 2, "cases_run": 4}]


def test_kloosterman_sample_serialization():
    rep = cmd_kloosterman(config(p=3, t_max=1, n_list=(3,)))
    sample = rep.extras["samples"][0]
    assert set(sample) == {"p", "t", "n", "omega", "y", "value_exact_repr",
                           "value_complex", "algorithm"}
    assert sample["algorithm"] == "direct"
    assert sample["p"] == 3 and sample["n"] == 3 and sample["t"] == 1
    assert sample["omega"] == {"level": 1, "k": 0} and sample["y"] == 1
    assert isinstance(sample["value_exact_repr"], str)
    assert isinstance(sample["value_complex"], list) and len(sample["value_complex"]) == 2
    flt = cmd_kloosterman(config(p=3, t_max=1, n_list=(3,), backend="float"))
    assert flt.extras["samples"][0]["value_exact_repr"] is None


def test_kloosterman_case_count_across_levels():
    rep = cmd_kloosterman(config(p=5, t_max=2, n_list=(2,)))
    assert rep.failures == []
    assert len(rep.cases) == 4 * 4 + 20 * 20


def test_kloosterman_rank_one_structural_skip():
    rep = cmd_kloosterman(config(p=3, t_max=1, n_list=(1,)))
    assert rep.passed
    assert len(rep.skips) == 1
    assert "n >= 2" in rep.skips[0]["detail"]


@pytest.mark.parametrize("budget, levels", [pytest.param(None, (1, 2), id="default-budget"),
                                            pytest.param(100, (1,), id="t2-over-budget")])
def test_kloosterman_computes_one_row_per_twist(monkeypatch, budget, levels):
    # each engine is called once per (n, t, omega) for the whole row over y,
    # and never for an instance skipped on budget (t = 2 under a budget of 100)
    calls = {"kl_direct": Counter(), "kl_via_dft": Counter()}
    real_direct, real_dft = cli.kl_direct, cli.kl_via_dft

    def direct(query, *args, **kw):
        calls["kl_direct"][query.n, query.t, query.omega] += 1
        return real_direct(query, *args, **kw)

    def via_dft(omega, n, table):
        calls["kl_via_dft"][n, table.t, omega] += 1
        return real_dft(omega, n, table)
    monkeypatch.setattr(cli, "kl_direct", direct)
    monkeypatch.setattr(cli, "kl_via_dft", via_dft)
    kw = {} if budget is None else {"budget": budget}  # 100 is below what validate() allows
    rep = cmd_kloosterman(RunConfig(p=5, t_max=2, n_list=(2, 3), **kw))
    assert rep.failures == []
    want = Counter((n, t, omega) for n in (2, 3) for t in levels
                   for omega in enumerate_chars(5, t))
    assert sum(want.values()) == (48 if budget is None else 8)
    assert calls == {"kl_direct": want, "kl_via_dft": want}


def test_kloosterman_mismatch_fails_only_its_case(monkeypatch):
    # one coordinate of one entry of one kl_via_dft row is moved: exactly that
    # (omega, y) case fails, with both values in its detail, and the rest pass
    n, t, k, d = 3, 2, 7, 5
    real_dft, moved = cli.kl_via_dft, {}

    def via_dft(omega, n_, table):
        row = real_dft(omega, n_, table)
        if (n_, table.t, omega.k) != (n, t, k):
            return row
        coords = row.coords.copy()
        coords[d, 1] += row.den
        moved.update(omega=omega, row=CycRow(row.N, coords, row.den))
        return moved["row"]
    monkeypatch.setattr(cli, "kl_via_dft", via_dft)
    rep = cmd_kloosterman(config(p=5, t_max=2, n_list=(2, 3)))
    y = int(unit_group(5, t).powers[d])
    bad = [c for c in rep.cases if c["status"] != "pass"]  # every other case passes
    assert [(c["n"], c["t"], c["omega_k"], c["y"]) for c in bad] == [(n, t, k, y)]
    assert bad[0]["status"] == "fail" and len(rep.failures) == 1
    direct = kl_direct(KLQuery(moved["omega"], n, t))[d]
    assert direct != moved["row"][d]
    assert bad[0]["detail"] == (
        "direct grid (%d terms) vs character table: direct %s dft %s"
        % (20 ** 2, cli._value_json(direct), cli._value_json(moved["row"][d])))


def test_kloosterman_float_same_verdicts():
    exact = cmd_kloosterman(config(p=3, t_max=2, n_list=(2,)))
    flt = cmd_kloosterman(config(p=3, t_max=2, n_list=(2,), backend="float"))
    assert [(c["case"], c["status"]) for c in exact.cases] == \
        [(c["case"], c["status"]) for c in flt.cases]
    assert exact.failures == [] and flt.failures == []


# ---------------------------------------------------------------------------
# bessel suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bessel52():
    return cmd_bessel(config(p=5, t_max=2, n_list=(2,)))


def test_bessel_duality_over_every_character(bessel52):
    assert bessel52.failures == []
    duality_rows = [c for c in bessel52.cases if "duality" in c["case"]]
    assert len(duality_rows) == 20
    # characters of conductor < t vanish on both sides
    assert bessel52.extras["duality"] == [{"n": 2, "characters": 20, "vanishing": 4}]


def test_bessel_closed_form_on_the_whole_shell(bessel52):
    closed_rows = [c for c in bessel52.cases if "closedform" in c["case"]]
    assert len(closed_rows) == 20
    assert all(c["status"] == "pass" for c in closed_rows)


def test_bessel_prefactor_report_n2(bessel52):
    (pf,) = bessel52.extras["prefactor_reports"]
    assert pf["measured_exponent"] == 0
    assert pf["cofactor"] == 1
    assert pf["matches"] == {"lemma41": False, "prop42": False, "cor13": True}
    assert pf["candidates"] == {"lemma41": -1, "prop42": -2, "cor13": 0}


def test_bessel_prefactor_report_n4_candidates_coincide():
    rep = cmd_bessel(config(p=3, t_max=2, n_list=(4,)))
    assert rep.failures == []
    (pf,) = rep.extras["prefactor_reports"]
    # at rank four the prop42 and cor13 candidate exponents agree with each
    # other (both zero) and still miss the measured constant
    assert pf["candidates"]["prop42"] == pf["candidates"]["cor13"] == 0
    assert pf["matches"] == {"lemma41": False, "prop42": False, "cor13": False}
    assert pf["measured_exponent"] == 6


def test_bessel_level_below_conductor_skips():
    rep = cmd_bessel(config(p=3, t_max=1, n_list=(2,)))
    assert rep.passed
    assert len(rep.skips) == 1
    assert "below the probe conductor" in rep.skips[0]["detail"]


def test_bessel_rank_one_structural_skip():
    rep = cmd_bessel(config(p=3, t_max=2, n_list=(1,)))
    assert rep.passed and len(rep.skips) == 1


def test_bessel_budget_skip():
    rep = cmd_bessel(config(p=5, t_max=2, n_list=(2,), budget=30))
    assert rep.passed
    assert len(rep.cases) == 1
    assert "over budget 30" in rep.skips[0]["detail"]


def test_bessel_budget_boundary_is_inclusive():
    # the character profile needs about m^2 = 400 operations at p = 5, t = 2:
    # a budget of exactly 400 runs the rank, one less writes its skip row
    rep = cmd_bessel(config(p=5, t_max=2, n_list=(2,), budget=400))
    assert rep.skips == [] and rep.failures == []
    assert len(rep.cases) == 40 and len(rep.extras["prefactor_reports"]) == 1
    rep = cmd_bessel(config(p=5, t_max=2, n_list=(2,), budget=399))
    assert rep.passed and len(rep.cases) == 1
    assert rep.skips[0]["case"] == "bessel n=2 setup"
    assert rep.skips[0]["detail"] == (
        "character profile needs about 400 operations, over budget 399")


def test_bessel_closed_form_over_the_engine_budget_skips(tmp_path, capsys):
    # the closed form's KL_{omega^{-1}, 5}( . ; 4) grid has 54^4 terms: over
    # the Kloosterman engine's own cap, which --budget does not move.  It used
    # to end in a BudgetError traceback.
    out = tmp_path / "r.json"
    assert main(["bessel", "--p", "3", "--t-max", "4", "--n", "6",
                 "--budget", str(10 ** 9), "--out", str(out)]) == 0
    capsys.readouterr()
    (suite,) = json.loads(out.read_text())["suites"]
    (skip,) = suite["skips"]
    assert (skip["case"], skip["detail"]) == (
        "bessel n=6 closedform", "direct sum has %d terms, budget is 2000000" % 54 ** 4)
    assert suite["extras"]["prefactor_reports"] == []
    # the rank's duality rows still run, one per character at level 4
    assert suite["cases_run"] == 55 and suite["passes"] == 54


def test_bessel_evaluates_each_regime_and_twisted_factor_once(monkeypatch):
    twisted, central = Counter(), Counter()
    real_eps, real_central = bessel.eps_rep_twisted, RepnData.central_char

    def counted_eps(pi, chi, backend):
        twisted[pi, chi] += 1
        return real_eps(pi, chi, backend=backend)

    def counted_central(pi):
        central[pi] += 1
        return real_central(pi)
    monkeypatch.setattr(bessel, "eps_rep_twisted", counted_eps)
    monkeypatch.setattr(RepnData, "central_char", counted_central)
    probes = [cli._bessel_pi(5, n) for n in (2, 3)]
    for backend in ("exact", "float"):
        for cached in (bessel._standing_assumptions, bessel._dual_twisted_eps,
                       bessel._charsum_profile, bessel._charsum_row):
            cached.cache_clear()
        twisted.clear()
        central.clear()
        rep = cmd_bessel(config(p=5, t_max=2, n_list=(2, 3), backend=backend))
        assert rep.failures == [] and rep.skips == []
        assert central == Counter(probes)
        if backend == "exact":
            # the profiles and the duality verdicts are read on Gauss-sum forms
            assert twisted == Counter()
            assert bessel._charsum_profile.cache_info().misses == len(probes)
        else:
            # the profile and the duality check share one eps(chi x pi) per
            # character; the exact prefactor measurement adds the exact profiles
            assert twisted == Counter(
                (pi, chi) for pi in probes for chi in chars_with_conductor(5, 2))
            assert bessel._charsum_profile.cache_info().misses == 2 * len(probes)


def test_bessel_float_same_verdicts():
    exact = cmd_bessel(config(p=3, t_max=2, n_list=(3,)))
    flt = cmd_bessel(config(p=3, t_max=2, n_list=(3,), backend="float"))
    assert [(c["case"], c["status"]) for c in exact.cases] == \
        [(c["case"], c["status"]) for c in flt.cases]
    # the measurement stays exact even under the float backend
    assert flt.extras["prefactor_reports"] == exact.extras["prefactor_reports"]


# ---------------------------------------------------------------------------
# reports and assembly
# ---------------------------------------------------------------------------


def test_suite_report_failure_accounting():
    rep = SuiteReport("demo", [
        {"case": "a", "status": "pass", "detail": ""},
        {"case": "b", "status": "fail", "detail": "broke"},
        {"case": "c", "status": "skip", "detail": "later"},
    ])
    assert not rep.passed
    assert [c["case"] for c in rep.failures] == ["b"]
    assert [c["case"] for c in rep.skips] == ["c"]


def test_suite_report_json_shape():
    cfg = config(p=3, t_max=1, n_list=(3,))
    doc = cmd_kloosterman(cfg).to_json(cfg)
    assert doc["suite"] == "kloosterman"
    assert doc["config"] == cfg.to_json()
    assert doc["cases_run"] == 4 and doc["passes"] == 4
    assert doc["failures"] == [] and doc["skips"] == []
    assert isinstance(doc["elapsed_seconds"], float)
    json.dumps(doc)  # everything must be serializable as-is


def test_run_suites_document_is_deterministic():
    cfg = config(p=3, t_max=1, n_list=(2,))
    docs = []
    for _ in range(2):
        _reports, doc = run_suites(("gauss", "kloosterman"), cfg)
        for suite in doc["suites"]:
            suite["elapsed_seconds"] = 0.0
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


# sha256 of the `--out` report (every "elapsed_seconds" zeroed, every float
# "complex" component dropped, so that the platform's libm cannot move it;
# re-dumped with indent=2 and sorted keys) and of the CSV.  The first three were
# written by the engines as they stood before the `method=` selectors were
# removed, the last two before the stability suite moved its exact verdicts
# onto the certificate engine (p=3, t_max=3 reaches its nu-reduction and its
# structural shortcut; the float sweep stays on the direct engine).
PINNED_REPORTS = [
    pytest.param(["all", "--p", "3", "--t-max", "2", "--n", "1", "2", "3"],
                 "96b92b63f81f0102c127fbde0869d7319ed94af6a2f4d8e5849846e2cf4c1cd1",
                 "8c4a1a72806f54cf1760ab98dcbe3325c410ee0d7cfe580cc025bb766067b9eb",
                 id="all"),
    pytest.param(["stability", "--p", "5", "--t-max", "2", "--n", "1", "2", "3"],
                 "d0c90200b19c2f59b6b135a8506ed6b915b1bfc3564d60793329b0979c0eb323",
                 "4422d9146afac9ea629a2b1e8d1fae5f310a9a1ffc9d737f630607af5c32e712",
                 id="stability"),
    pytest.param(["bessel", "--p", "5", "--t-max", "2", "--n", "2", "3"],
                 "fdddcb7b14d172d29ff07e964e711ec8cb7fb7b7337e44434b1b1d0aa7f284fa",
                 "964b663f45544a32c1866dee980a4c87e80525806b73b7156d1dca8288396191",
                 id="bessel"),
    pytest.param(["stability", "--p", "3", "--t-max", "3", "--n", "2", "3", "4"],
                 "ae76f4aa7b764c6540b8f39064ae9adae10bb8de73192afc49a5cbadcba0a3c9",
                 "5b218f1f535a0f035fb466b9d86d394040213bfd77b99ae6f4683f0bd77ac46a",
                 id="stability-p3-t3"),
    pytest.param(["stability", "--p", "5", "--t-max", "2", "--n", "1", "2", "3",
                  "--backend", "float"],
                 "1a34252b69c5b4a7533278e241860ab1656b2be5d33c7fe9df56910a2736d707",
                 "4422d9146afac9ea629a2b1e8d1fae5f310a9a1ffc9d737f630607af5c32e712",
                 id="stability-float"),
    pytest.param(["bessel", "--p", "3", "--t-max", "3", "--n", "2", "3"],
                 "07784d51c76dd1093251d165938af82c26506b7717ab770347eb6753748818f0",
                 "f599e741db295df1ee3af857f1b2d65a00a04b9e0b131cefb7abf067708cb68b",
                 id="bessel-p3-t3"),
    pytest.param(["bessel", "--p", "5", "--t-max", "2", "--n", "2", "3", "--backend", "float"],
                 "c4cc6da49ad06ebb65a105032b03b1aa5ab341217d45988910aba7f597c065c8",
                 "964b663f45544a32c1866dee980a4c87e80525806b73b7156d1dca8288396191",
                 id="bessel-float"),
    # p = 7, whose generator is 3 (every pin above is at p = 3 or 5, generator
    # 2), recorded before the unit groups kept one generator for every level
    pytest.param(["gauss", "--p", "7", "--t-max", "3"],
                 "bad18c6ac82a01c30b8a1e01e512d7b45d0bd62dd731e462f9db47c0c86aaea7",
                 "bc5c3aa43000dc1c0b54358fe1355adec9e7cdd2dabcab9b117cd5554e12a16c",
                 id="gauss-p7-t3"),
    pytest.param(["kloosterman", "--p", "7", "--t-max", "2", "--n", "2", "3"],
                 "c8ab878a4b719dbba1be557d1ad94361f5c2a669bae7271e92e200ef52d4c4bb",
                 "feee49f501a50084f90c44ae4b2d5b647f59f00de48628b38285215464a7b283",
                 id="kloosterman-p7"),
    # odd levels: at t = 3, n = 3 every A_k carries an odd power of the
    # quadratic Gauss sum; recorded before the Kloosterman rows at t >= 2 were
    # summed on Gauss-sum forms
    pytest.param(["kloosterman", "--p", "3", "--t-max", "3", "--n", "2", "3"],
                 "e7b3bf4b2905f4624990932096b9bfa4375460db16805ca9c2175fd48cb1d759",
                 "913e255b73eb8d76a98bec4a3f6c09e7dd860224ec1d96ffb1aeebc8359b3774",
                 id="kloosterman-p3-t3"),
    # recorded before the exact stability suite decided its direct checks on
    # Gauss-sum forms: the bench config, and rank one with odd conductors at
    # p = 3 mod 4, where g^2 = -p folds a sign into the angle
    pytest.param(["stability", "--p", "7", "--t-max", "2", "--n", "1", "2", "3"],
                 "578fe6de9b7e1a0c2e9f3461c04ffb528b9241415e7e7b38f2670a499d937a79",
                 "f66b53c81a36a91eee7fd9f716ec9dca9c62834aa0cf5a137059a95d014cc162",
                 id="stability-p7"),
    pytest.param(["stability", "--p", "3", "--t-max", "3", "--n", "1"],
                 "6897858aeccbc561dedd83c884d22488dda7ca9146792a9803b68a86991a77a8",
                 "c9b3ec99eeff460ec2220476314302682fbf6abe9a006ca230a01261a6c5a67d",
                 id="stability-p3-rank1"),
    # every row takes kl_via_dft's values path at t = 1
    pytest.param(["kloosterman", "--p", "11", "--t-max", "1", "--n", "2", "3", "4"],
                 "cb67cb8d3906658f589827a0acc9cdc73d16c331ca1aa42d5ce7bc6e900f0b2f",
                 "dfa8325b6a5f3be6050472037a87a2c0a551d7f2d2568b50f44a6a46614a08cb",
                 id="kloosterman-p11-t1"),
    # the float rows compare entry by entry within the tolerance; recorded
    # before the exact rows were compared as whole stacks
    pytest.param(["kloosterman", "--p", "5", "--t-max", "2", "--n", "2", "3",
                  "--backend", "float"],
                 "277ef2b6e5bfdf18901460c371a204383d0afd8ab15a3245da2a39a1402933c4",
                 "42f3871f2a7367ade647d472dc1c429fb3a3b904d4a76b08f1bf5890737ab906",
                 id="kloosterman-float"),
    # recorded before the exact Bessel profile, its row and the duality check
    # were held as Gauss-sum forms: the bench config (p = 7, generator 3, with
    # the n = 4 probe), and odd t at p = 1 mod 4, where the quadratic Gauss
    # sum's flag appears without the sign of p* = -p
    pytest.param(["bessel", "--p", "7", "--t-max", "2", "--n", "2", "3", "4"],
                 "46b7cb00cd9f7cbe7c2bf387015aafeb3213d8a331bc97c26fc962566af56569",
                 "60e9cd7a6525cd3b20bd677ce820e7fd8edc59be1d884ba0d3fc27b8ffe61aaa",
                 id="bessel-p7"),
    pytest.param(["bessel", "--p", "5", "--t-max", "3", "--n", "2", "3", "4"],
                 "1727d36fe8c71aa7e682ff6f0a249035bda1c0e49a7dac5fd857d8e4f4d1350a",
                 "6b948637845fedc8ed49f417a4ce3f7f4fc4fa48fcd9a716a8d5274b163ea754",
                 id="bessel-p5-t3"),
]


def _without_floats_and_timing(node):
    if isinstance(node, dict):
        return {k: 0 if k == "elapsed_seconds" else _without_floats_and_timing(v)
                for k, v in node.items() if k != "complex"}
    if isinstance(node, list):
        return [_without_floats_and_timing(v) for v in node]
    return node


@pytest.mark.parametrize("argv, json_sha256, csv_sha256", PINNED_REPORTS)
def test_report_bytes_pinned(tmp_path, capsys, argv, json_sha256, csv_sha256):
    out, table = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(argv + ["--out", str(out), "--csv", str(table)]) == 0
    capsys.readouterr()
    doc = _without_floats_and_timing(json.loads(out.read_text()))
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == json_sha256
    assert hashlib.sha256(table.read_bytes()).hexdigest() == csv_sha256


def _lab_caches():
    """Every function of the lab's modules that has a cache_clear."""
    for info in pkgutil.iter_modules(epsilonlab.__path__):
        if info.name.startswith("__"):
            continue  # __main__ runs the command line when imported
        module = importlib.import_module("epsilonlab." + info.name)
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                yield value


FLOAT_RUNS = [
    ["gauss", "--p", "7", "--t-max", "2"],
    ["stability", "--p", "5", "--t-max", "2", "--n", "1", "2", "3"],
    ["kloosterman", "--p", "5", "--t-max", "2", "--n", "2", "3", "4"],
    ["bessel", "--p", "5", "--t-max", "2", "--n", "2", "3"],
]


@pytest.mark.parametrize("argv", FLOAT_RUNS, ids=lambda argv: argv[0])
def test_float_run_builds_no_exact_scalar(monkeypatch, capsys, argv):
    """A float run takes every constant from its backend, so it constructs no
    CycNumber; measure_prefactor is exact by design and is not counted.  The
    run starts from cold caches, so an exact value an earlier test left in a
    lab cache cannot hide one the float run would build."""
    for cached in _lab_caches():
        cached.cache_clear()
    built, inside = [], [0]
    real_init, real_measure = CycNumber.__init__, cli.measure_prefactor

    def counting_init(self, *args):
        if not inside[0]:
            built.append(args)
        real_init(self, *args)

    def measure(*args, **kwargs):
        inside[0] += 1
        try:
            return real_measure(*args, **kwargs)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(CycNumber, "__init__", counting_init)
    monkeypatch.setattr(cli, "measure_prefactor", measure)
    assert main(argv + ["--backend", "float"]) == 0
    capsys.readouterr()
    assert len(built) == 0, built[:3]


def test_case_rows_are_sort_normalized():
    rep = cmd_kloosterman(config(p=3, t_max=2, n_list=(2,)))
    keys = [(c["n"], c["t"], c["omega_k"], c["y"]) for c in rep.cases]
    assert keys == sorted(keys)


def test_csv_flat_table(tmp_path):
    cfg = config(p=3, t_max=1, n_list=(3,))
    reports, _doc = run_suites(("kloosterman",), cfg)
    path = tmp_path / "cases.csv"
    cli.write_csv(str(path), reports)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "suite,case,status,detail"
    assert len(lines) == 1 + 4
    assert lines[1].startswith("kloosterman,kloosterman n=3 t=1")


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------


def test_main_pass_exit_zero(capsys):
    assert main(["gauss", "--p", "3", "--t-max", "1"]) == 0
    out = capsys.readouterr().out
    assert "RESULT PASS" in out


def test_main_config_error_exit_two(capsys):
    assert main(["gauss", "--p", "4"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, fragment", [
    (["gauss", "--backend", "float", "--tolerance", "inf"], "tolerance"),
    (["gauss", "--p", "2003", "--t-max", "2", "--n", "2", "--budget", "1000000000"],
     "table budget"),
    # the work estimate for this level has more digits than int() will print
    (["gauss", "--t-max", "100000"], "table budget"),
    # and so has the one for this rank
    (["gauss", "--n", "100000"], "exceeds the budget"),
    # its first Gauss sum would build a 44,310 x 10,080 rewrite table
    (["gauss", "--p", "211", "--t-max", "1", "--n", "2"], "rewrite table"),
])
def test_main_refuses_before_computing(monkeypatch, capsys, argv, fragment):
    # each used to end otherwise: the first passed vacuously, the others
    # raised TableBudgetError or ValueError as a traceback with exit 1
    monkeypatch.setattr(cli, "run_suites", lambda *a: pytest.fail("a suite ran"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and fragment in err


def test_main_refuses_a_huge_prime_without_trial_division(monkeypatch, capsys):
    # 2^89 - 1 is prime, but p > the table budget decides the refusal first
    def is_odd_prime(p):
        assert p <= cli._TABLE_BUDGET, "trial division of p = %d" % p
        return real(p)

    real = cli.is_odd_prime
    monkeypatch.setattr(cli, "is_odd_prime", is_odd_prime)
    monkeypatch.setattr(cli, "run_suites", lambda *a: pytest.fail("a suite ran"))
    assert main(["gauss", "--p", str(2 ** 89 - 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "table budget" in err


def test_main_failure_exit_one(monkeypatch, capsys):
    def broken(cfg):
        return SuiteReport("gauss", [{"case": "wired", "status": "fail", "detail": "x"}])
    monkeypatch.setitem(cli.SUITES, "gauss", broken)
    assert main(["gauss", "--p", "3", "--t-max", "1"]) == 1
    assert "RESULT FAIL" in capsys.readouterr().out


def test_main_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobenius"])
    assert exc.value.code == 2


def test_main_writes_report_files(tmp_path, capsys):
    out = tmp_path / "report.json"
    flat = tmp_path / "cases.csv"
    code = main(["kloosterman", "--p", "3", "--t-max", "1", "--n", "3",
                 "--out", str(out), "--csv", str(flat)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["config"]["p"] == 3
    assert [s["suite"] for s in doc["suites"]] == ["kloosterman"]
    assert flat.read_text().startswith("suite,case,status,detail")
    capsys.readouterr()


def test_main_all_runs_every_suite(tmp_path, capsys):
    out = tmp_path / "all.json"
    code = main(["all", "--p", "3", "--t-max", "1", "--n", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [s["suite"] for s in doc["suites"]] == \
        ["gauss", "stability", "kloosterman", "bessel"]
    capsys.readouterr()


def test_config_file_roundtrip(tmp_path, capsys):
    cfile = tmp_path / "run.json"
    cfile.write_text(json.dumps({"p": 3, "t_max": 1, "n_list": [3]}))
    out = tmp_path / "report.json"
    assert main(["kloosterman", "--config", str(cfile), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["p"] == 3 and doc["config"]["n_list"] == [3]
    capsys.readouterr()


def test_config_file_flags_win(tmp_path, capsys):
    cfile = tmp_path / "run.json"
    cfile.write_text(json.dumps({"p": 3, "t_max": 1, "n_list": [3]}))
    out = tmp_path / "report.json"
    assert main(["kloosterman", "--config", str(cfile), "--t-max", "2",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["t_max"] == 2
    capsys.readouterr()


@pytest.mark.parametrize("payload, fragment", [
    ('{"p": 3, "bogus": 1}', "unknown config keys"),
    ('{"p": 3, "n_list": "23"}', "rank"),
    ('[3]', "JSON object"),
    ('{not json', "cannot read"),
    ('{"tolerance": Infinity}', "tolerance"),
])
def test_config_file_rejections(tmp_path, capsys, payload, fragment):
    cfile = tmp_path / "run.json"
    cfile.write_text(payload)
    assert main(["gauss", "--config", str(cfile)]) == 2
    assert fragment in capsys.readouterr().err


def test_config_file_with_an_unreadable_integer_exits_two(monkeypatch, tmp_path, capsys):
    # json.load refuses a 5,000-digit integer with a ValueError that is not a
    # JSONDecodeError; it used to escape as a traceback with exit 1
    monkeypatch.setattr(cli, "run_suites", lambda *a: pytest.fail("a suite ran"))
    cfile = tmp_path / "run.json"
    cfile.write_text('{"budget": %s}' % ("9" * 5000))
    assert main(["gauss", "--config", str(cfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config file")


def test_config_file_with_wrong_types_exits_two(tmp_path, capsys):
    # a scalar n_list used to escape as a TypeError traceback, and JSON true
    # used to pass as the integer 1
    cfile = tmp_path / "run.json"
    for payload, fragment in [({"n_list": 3}, "list of ranks"),
                              ({"t_max": True, "n_list": [True]}, "t_max")]:
        cfile.write_text(json.dumps(payload))
        assert main(["gauss", "--config", str(cfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and fragment in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "epsilonlab", "gauss", "--p", "3", "--t-max", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "RESULT PASS" in proc.stdout
