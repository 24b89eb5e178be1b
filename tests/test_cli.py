"""Command-line suite behavior: configuration gate, case accounting, budget
paths, report shape, determinism, and exit codes.

The mathematical content of each suite is tested in its own module; here we
check the orchestration around it, so most runs use the smallest prime.
"""

import dataclasses
import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from epsilonlab import cli
from epsilonlab.scalars import CycNumber
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
    assert RunConfig(p=p, t_max=t, n_list=ns).estimate() == want


def test_budget_boundary_is_inclusive():
    config(p=5, t_max=2, n_list=(3,), budget=400)  # estimate == budget: allowed
    with pytest.raises(ConfigError):
        RunConfig(p=5, t_max=2, n_list=(3,), budget=399).validate()


# ---------------------------------------------------------------------------
# gauss suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gauss52():
    return cmd_gauss(config(p=5, t_max=2))


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


def test_stability_exact_checks_directly_only_the_cross_slice(monkeypatch):
    direct, certified = [], []
    _counting(monkeypatch, cli, "stability_check", direct)
    _counting(monkeypatch, cli.CertificateTable, "check_pairs", certified)
    rep = cmd_stability(config(p=5, t_max=2, n_list=(1, 2, 3)))
    assert rep.failures == [] and rep.skips == []
    # in-regime rows of each rank, in sweep order (the rows' sort order)
    want = []
    for n in (2, 3):
        asserted = [c for c in rep.cases if c["n"] == n]
        assert len(asserted) > 2 * cli.STRIDE
        want += [(c["pi"], c["chi_k"]) for c in asserted[::cli.STRIDE]]
    assert [(pi.describe(), chi.k) for pi, chi, _backend in direct] == want
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


def test_stability_direct_rejection_on_the_cross_slice_fails(tmp_path, capsys,
                                                             monkeypatch):
    original = cli.stability_check
    calls = []

    def rejects_first(pi, chi, backend):
        res = original(pi, chi, backend)
        calls.append((pi, chi))
        return dataclasses.replace(res, holds=False) if len(calls) == 1 else res
    monkeypatch.setattr(cli, "stability_check", rejects_first)
    code, failures = _fail_lines(tmp_path, capsys,
                                 ["stability", "--p", "3", "--t-max", "2", "--n", "2"])
    assert code == 1
    (row,) = failures
    pi, chi = calls[0]
    assert (row["pi"], row["chi_k"]) == (pi.describe(), chi.k)
    assert "; lhs {" in row["detail"]


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
    assert sample["algorithm"] == "direct"
    assert sample["n"] == 3 and sample["t"] == 1
    assert sample["value_exact_repr"] is not None
    assert len(sample["value_complex"]) == 2


def test_kloosterman_case_count_across_levels():
    rep = cmd_kloosterman(config(p=5, t_max=2, n_list=(2,)))
    assert rep.failures == []
    assert len(rep.cases) == 4 * 4 + 20 * 20


def test_kloosterman_rank_one_structural_skip():
    rep = cmd_kloosterman(config(p=3, t_max=1, n_list=(1,)))
    assert rep.passed
    assert len(rep.skips) == 1
    assert "n >= 2" in rep.skips[0]["detail"]


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


FLOAT_RUNS = [
    ["gauss", "--p", "7", "--t-max", "2"],
    ["stability", "--p", "5", "--t-max", "2", "--n", "1", "2", "3"],
    ["kloosterman", "--p", "5", "--t-max", "2", "--n", "2", "3", "4"],
    ["bessel", "--p", "5", "--t-max", "2", "--n", "2", "3"],
]


@pytest.mark.parametrize("argv", FLOAT_RUNS, ids=lambda argv: argv[0])
def test_float_run_builds_no_exact_scalar(monkeypatch, capsys, argv):
    """A float run takes every constant from its backend, so it constructs no
    CycNumber; measure_prefactor is exact by design and is not counted."""
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
])
def test_config_file_rejections(tmp_path, capsys, payload, fragment):
    cfile = tmp_path / "run.json"
    cfile.write_text(payload)
    assert main(["gauss", "--config", str(cfile)]) == 2
    assert fragment in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "epsilonlab", "gauss", "--p", "3", "--t-max", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "RESULT PASS" in proc.stdout
