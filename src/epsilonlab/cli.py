"""Command-line verification suites.

Each subcommand sweeps one family of identities exhaustively over a
configured range and reports every case:

* ``gauss``        - Gauss-sum moduli, the GL(1) functional equation, and the
                     additive twist law, for every character at level t_max;
* ``stability``    - the twisted-factor collapse
                     eps(chi x pi) = eps(omega chi) eps(chi)^{n-1} for every
                     block-built pi and every sufficiently ramified chi;
                     less ramified chi are recorded, never asserted.  Under
                     the exact backend the certificate engine decides the
                     asserted pairs of rank >= 2 and the direct engine
                     re-checks a fixed stride of them and every rejection;
* ``kloosterman``  - the direct unit-grid evaluation of hyper-Kloosterman
                     sums against the character-table factorization;
* ``bessel``       - Bessel-transform duality, the closed-form collapse with
                     the measured constant, and the prefactor report.

Nothing here ever samples: every case inside the configured ranges runs, in a
deterministic order, and case rows are sort-normalized before any report is
assembled.  For a fixed configuration the JSON report is reproducible except
for its wall-clock ``elapsed_seconds`` field.

Exit status: 0 when every executed case passed, 1 when any case failed,
2 when the configuration itself was rejected (nothing is computed then).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bessel import bessel_charsum, bessel_closedform, duality_check, measure_prefactor
from .characters import MultChar, enumerate_chars, trivial_char
from .kloosterman import (
    BudgetError,
    KLQuery,
    build_gauss_table,
    direct_term_count,
    kl_direct,
    kl_result_json,
    kl_via_dft,
)
from .local_factors import (
    Block,
    CertificateTable,
    EpsMonomial,
    RegimeError,
    RepnData,
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
from .padic import PadicNumber, is_odd_prime, phi, unit_group
from .scalars import Backend, CycNumber, ScaledScalar, backend_for

DEFAULT_BUDGET = 2_000_000


class ConfigError(ValueError):
    """The run configuration is unusable; nothing was computed."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs for every suite; call validate() before running anything.

    Rejection happens up front: a run is refused unless p is an odd prime and
    the coarse work estimate max(phi, phi^(max(n)-1)) with phi = phi(p^t_max)
    fits under the budget.  The suites still re-check their own finer
    per-case costs and skip (never silently truncate) whatever does not fit.
    """

    p: int = 5
    t_max: int = 2
    n_list: tuple = (2, 3)
    backend: str = "exact"
    tolerance: float = 1e-9
    budget: int = DEFAULT_BUDGET
    out: Optional[str] = None
    csv: Optional[str] = None

    def estimate(self) -> int:
        """Dominant term count: one character sweep, raised to the largest rank."""
        m = phi(self.p, self.t_max)
        return max(m, m ** (max(self.n_list) - 1))

    def validate(self) -> None:
        if not isinstance(self.p, int) or not is_odd_prime(self.p):
            raise ConfigError("p must be an odd prime, got %r" % (self.p,))
        if not isinstance(self.t_max, int) or self.t_max < 1:
            raise ConfigError("t_max must be an integer >= 1, got %r" % (self.t_max,))
        if not self.n_list:
            raise ConfigError("n_list must be a nonempty sequence of ranks")
        for n in self.n_list:
            if not isinstance(n, int) or n < 1:
                raise ConfigError("every rank n must be an integer >= 1, got %r" % (n,))
        if self.backend not in ("exact", "float"):
            raise ConfigError("backend must be 'exact' or 'float', got %r" % (self.backend,))
        if not isinstance(self.tolerance, (int, float)) or not self.tolerance > 0:
            raise ConfigError("tolerance must be a positive number, got %r" % (self.tolerance,))
        if not isinstance(self.budget, int) or self.budget < 1:
            raise ConfigError("budget must be a positive integer, got %r" % (self.budget,))
        est = self.estimate()
        if est > self.budget:
            raise ConfigError(
                "estimated work %d (phi(%d^%d)^%d terms) exceeds the budget %d; "
                "raise --budget or shrink the ranges"
                % (est, self.p, self.t_max, max(max(self.n_list) - 1, 1), self.budget)
            )

    def make_backend(self) -> Backend:
        return backend_for(self.backend, self.tolerance)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "t_max": self.t_max,
            "n_list": list(self.n_list),
            "backend": self.backend,
            "tolerance": self.tolerance,
            "budget": self.budget,
        }


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


class _Rows:
    """Accumulates (sort_key, case_row) pairs; emission is sort-normalized."""

    def __init__(self) -> None:
        self._rows: list = []

    def add(self, key: tuple, case_id: str, status: str, detail: str = "", **inputs) -> None:
        row = {"case": case_id, "status": status, "detail": detail}
        row.update(inputs)
        self._rows.append((key, row))

    def sorted(self) -> list:
        return [row for _key, row in sorted(self._rows, key=lambda kr: kr[0])]


@dataclass
class SuiteReport:
    """Everything one suite did, with every case row in normalized order.

    ``extras`` carries suite-specific tabulations (root numbers, out-of-regime
    tallies, prefactor reports).  ``elapsed`` is wall time and is the one
    field of the JSON form that varies between identical runs.
    """

    suite: str
    cases: list
    extras: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def failures(self) -> list:
        return [c for c in self.cases if c["status"] == "fail"]

    @property
    def skips(self) -> list:
        return [c for c in self.cases if c["status"] == "skip"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self, config: RunConfig) -> dict:
        return {
            "suite": self.suite,
            "version": __version__,
            "config": config.to_json(),
            "cases_run": len(self.cases),
            "passes": sum(1 for c in self.cases if c["status"] == "pass"),
            "failures": self.failures,
            "skips": self.skips,
            "extras": self.extras,
            "elapsed_seconds": self.elapsed,
        }


def _value_json(v) -> dict:
    """Serialize one backend scalar: exact short form when available, complex always."""
    if isinstance(v, CycNumber):
        z = v.to_complex()
        return {"exact": v.short_str(), "complex": [z.real, z.imag]}
    z = complex(v)
    return {"exact": None, "complex": [z.real, z.imag]}


def _scaled_json(s: ScaledScalar) -> dict:
    out = _value_json(s.coeff)
    out["qexp"] = str(s.qexp)
    return out


def _monomial_json(m: EpsMonomial) -> dict:
    out = _scaled_json(m.value)
    out["xexp"] = m.xexp
    return out


def _frac_json(fr: Fraction):
    return int(fr) if fr.denominator == 1 else str(fr)


# ---------------------------------------------------------------------------
# gauss suite
# ---------------------------------------------------------------------------


def cmd_gauss(config: RunConfig) -> SuiteReport:
    """Tabulate tau(chi) and W(chi) for every character at level t_max and
    check, per character: |tau|^2 = q^a, the functional equation
    eps(s, chi) eps(1-s, chi^{-1}) = chi(-1), and the additive twist law for
    the unit-group generator and for the uniformizer."""
    t0 = time.perf_counter()
    backend = config.make_backend()
    p, t = config.p, config.t_max
    ug = unit_group(p, t)
    rows = _Rows()
    table = []
    for chi in enumerate_chars(p, t):
        a = chi.conductor_exponent
        label = "chi[k=%d]" % chi.k
        inputs = {"p": p, "level": t, "k": chi.k, "conductor": a}
        cost = phi(p, max(a, 1))
        if cost > config.budget:
            rows.add((chi.k, 0), "gauss %s" % label, "skip",
                     "one Gauss sum needs %d terms, over budget %d" % (cost, config.budget),
                     **inputs)
            continue

        w = root_number(chi, backend)
        entry = {"k": chi.k, "conductor": a, "parity": chi.parity_sign(),
                 "W": _scaled_json(w)}
        if a == 0:
            rows.add((chi.k, 1), "gauss %s modulus" % label, "skip",
                     "unramified character: no Gauss sum", **inputs)
            entry["tau"] = None
        else:
            tau = gauss_sum(chi, backend)
            entry["tau"] = _value_json(tau)
            ok = backend.eq(backend.norm_squared(tau), Fraction(p) ** a)
            rows.add((chi.k, 1), "gauss %s modulus" % label,
                     "pass" if ok else "fail", "|tau|^2 = q^%d" % a, **inputs)
        table.append(entry)

        e = eps_gl1(chi, backend=backend)
        prod = e * eps_gl1(chi.inv(), backend=backend).reflect()
        want = EpsMonomial(ScaledScalar.of(backend.rational(chi.parity_sign())), 0)
        ok = prod.equals(want, p, backend)
        rows.add((chi.k, 2), "gauss %s functional-equation" % label,
                 "pass" if ok else "fail",
                 "eps(s) * eps(1-s, inverse) = chi(-1) = %d" % chi.parity_sign(), **inputs)

        u = ug.gen
        tw = eps_gl1(chi, psi_scale=u, backend=backend)
        want = e.scale(ScaledScalar.of(chi.eval(u, backend)))
        ok = tw.equals(want, p, backend)
        rows.add((chi.k, 3), "gauss %s unit-twist" % label,
                 "pass" if ok else "fail",
                 "psi(x) -> psi(%d x) multiplies the factor by chi(%d)" % (u, u), **inputs)

        twp = eps_gl1(chi, psi_scale=p, backend=backend)
        ok = twp.xexp == e.xexp + 1 and twp.value.eq_value(e.value, p, backend)
        rows.add((chi.k, 4), "gauss %s uniformizer-twist" % label,
                 "pass" if ok else "fail",
                 "psi(x) -> psi(p x) shifts the exponent by one", **inputs)

    report = SuiteReport("gauss", rows.sorted(),
                         extras={"characters": ug.order, "root_numbers": table})
    report.elapsed = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# stability suite
# ---------------------------------------------------------------------------


# Every STRIDE-th in-regime case of each rank, starting with the first, is
# re-decided by the direct engine when the certificate engine gives the verdict.
STRIDE = 32


def cmd_stability(config: RunConfig) -> SuiteReport:
    """Sweep eps(chi x pi) = eps(omega chi) eps(chi)^{n-1} exhaustively.

    For n = 1 the sweep degenerates to the two-character subgroup-twist
    identity eps(mu chi) = mu(v_chi) eps(chi) over every admissible pair
    (2 a(mu) <= a(chi)).  For n >= 2 every block-built pi with a(pi) <= t_max
    meets every ramified chi with a(chi) <= t_max: equality is asserted when
    a(chi) >= max(a(pi), 1) and only recorded (equal / unequal / incomparable
    tallies in extras) below that threshold.

    The engine follows from the backend.  Under the exact backend the asserted
    n >= 2 pairs are decided by the certificate engine, one
    CertificateTable(p, a) per conductor a, shared by every rank, and one
    check_pairs call per (pi, a); the direct engine stability_check re-decides
    every STRIDE-th asserted case of each rank and every pair the certificate
    rejects, and a row passes only when every engine that looked at it holds.  The float
    backend, rank one and the out-of-regime tallies run on the direct engines
    alone.
    """
    t0 = time.perf_counter()
    backend = config.make_backend()
    p, t = config.p, config.t_max
    rows = _Rows()
    pool = list(enumerate_chars(p, t))
    ramified = [chi for chi in pool if chi.conductor_exponent >= 1]
    out_of_regime = {"equal": 0, "unequal": 0, "incomparable": 0, "skipped": 0}
    rep_counts = {}
    # conductor a -> (table, the table rows of the ramified chi of conductor a
    # in sweep order); ramified[i] sits at position slot[i] of its rows.  Every
    # rank shares these tables, so each certificate column is tabulated once.
    tables: dict = {}
    slot = []
    if backend.exact:
        for chi in ramified:
            a_chi = chi.conductor_exponent
            if a_chi not in tables:
                tables[a_chi] = (CertificateTable(p, a_chi), [])
            table, table_rows = tables[a_chi]
            slot.append(len(table_rows))
            table_rows.append(table.index_of(chi))
        tables = {a: (table, np.array(table_rows, dtype=np.int64))
                  for a, (table, table_rows) in tables.items()}

    for n in sorted(set(config.n_list)):
        if n == 1:
            for mu in pool:
                for chi in ramified:
                    if 2 * mu.conductor_exponent > chi.conductor_exponent:
                        continue
                    inputs = {"p": p, "n": 1, "mu_k": mu.k, "mu_conductor": mu.conductor_exponent,
                              "chi_k": chi.k, "chi_conductor": chi.conductor_exponent}
                    cost = 2 * phi(p, chi.conductor_exponent)
                    case_id = "stability n=1 mu[k=%d] chi[k=%d]" % (mu.k, chi.k)
                    if cost > config.budget:
                        rows.add((1, 0, mu.k, chi.k), case_id, "skip",
                                 "needs %d terms, over budget %d" % (cost, config.budget),
                                 **inputs)
                        continue
                    res = gl1_stability_check(mu, chi, backend)
                    detail = "eps(mu chi) = mu(v_chi) eps(chi), v class rep %d" % res.vclass_rep
                    if not res.holds:
                        detail += "; lhs %s rhs %s" % (_scaled_json(res.lhs), _scaled_json(res.rhs))
                    rows.add((1, 0, mu.k, chi.k), case_id,
                             "pass" if res.holds else "fail", detail, **inputs)
            continue

        reps = [pi for pi in enumerate_reps(p, n, t) if pi.dim == n]
        rep_counts[str(n)] = len(reps)
        asserted = 0  # in-regime cases of this rank decided so far
        for pi_index, pi in enumerate(reps):
            pi_label = "pi[" + ",".join(
                "k%d.l%d.d%d" % (b.tau.k, b.tau.level, b.size) for b in pi.blocks) + "]"
            pi_json = pi.describe()
            a_pi = pi.conductor_exponent
            # One check_pairs call per in-regime conductor.  It raises RegimeError
            # only for a block too deep for its lemma columns, which cannot arise
            # here: pi is shiftless and a(pi) <= a, so a deep block (2 a(tau) > a)
            # has size 1 and is the only one; if a(tau) reaches a, every other
            # block is the trivial character and pi = tau + 1^{n-1}, which the
            # structural shortcut answers.
            verdicts = {a: table.check_pairs(pi, table_rows)
                        for a, (table, table_rows) in tables.items()
                        if a >= max(a_pi, 1) and (n + 1) * phi(p, a) <= config.budget}
            for i, chi in enumerate(ramified):
                a_chi = chi.conductor_exponent
                inputs = {"p": p, "n": n, "pi": pi_json, "a_pi": a_pi,
                          "chi_k": chi.k, "chi_conductor": a_chi}
                cost = (n + 1) * phi(p, a_chi)
                case_id = "stability n=%d %s chi[k=%d]" % (n, pi_label, chi.k)
                in_regime = a_chi >= max(a_pi, 1)
                if cost > config.budget:
                    if in_regime:
                        rows.add((n, pi_index + 1, chi.k, 0), case_id, "skip",
                                 "needs %d terms, over budget %d" % (cost, config.budget),
                                 **inputs)
                    else:
                        out_of_regime["skipped"] += 1
                    continue
                if in_regime:
                    holds = bool(verdicts[a_chi][slot[i]]) if backend.exact else True
                    if not backend.exact or not holds or asserted % STRIDE == 0:
                        res = stability_check(pi, chi, backend)
                        holds = holds and res.holds
                    asserted += 1
                    detail = "a(chi)=%d >= a(pi)=%d: asserted" % (a_chi, a_pi)
                    if not holds:
                        detail += "; lhs %s rhs %s" % (
                            _monomial_json(res.lhs), _monomial_json(res.rhs))
                    rows.add((n, pi_index + 1, chi.k, 0), case_id,
                             "pass" if holds else "fail", detail, **inputs)
                else:
                    try:
                        lhs = eps_rep_twisted(pi, chi, backend=backend)
                        rhs = stability_rhs(pi, chi, backend=backend)
                        key = "equal" if lhs.equals(rhs, p, backend) else "unequal"
                    except RegimeError:
                        key = "incomparable"
                    out_of_regime[key] += 1

    extras = {"out_of_regime": out_of_regime, "representations": rep_counts}
    report = SuiteReport("stability", rows.sorted(), extras=extras)
    report.elapsed = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# kloosterman suite
# ---------------------------------------------------------------------------


def cmd_kloosterman(config: RunConfig) -> SuiteReport:
    """For every rank n >= 2 in n_list, every level t <= t_max, every twist
    presented at level t and every unit argument y, evaluate the
    hyper-Kloosterman sum twice - as the direct (n-1)-fold unit grid and
    through the Gauss-sum table - and require equality.  The table keeps the
    row over y of each (n, omega), so the table side is computed once per row."""
    t0 = time.perf_counter()
    backend = config.make_backend()
    p = config.p
    rows = _Rows()
    samples = []
    instances = []

    for n in sorted(set(config.n_list)):
        if n < 2:
            rows.add((n, 0, 0, 0), "kloosterman n=%d" % n, "skip",
                     "hyper-Kloosterman sums need rank n >= 2: structural skip",
                     p=p, n=n)
            continue
        for t in range(1, config.t_max + 1):
            ug = unit_group(p, t)
            table = None
            ran = 0
            first_sample = True
            for omega in enumerate_chars(p, t):
                for y in ug.units():
                    y = int(y)
                    query = KLQuery(omega, n, y, t)
                    inputs = {"p": p, "n": n, "t": t, "omega_k": omega.k, "y": y}
                    case_id = "kloosterman n=%d t=%d omega[k=%d] y=%d" % (n, t, omega.k, y)
                    cost = direct_term_count(query)
                    if cost > config.budget:
                        rows.add((n, t, omega.k, y), case_id, "skip",
                                 "direct grid has %d terms, over budget %d" % (cost, config.budget),
                                 **inputs)
                        continue
                    if table is None:
                        try:
                            table = build_gauss_table(p, t, backend=backend,
                                                      budget=config.budget)
                        except BudgetError as err:
                            rows.add((n, t, omega.k, y), case_id, "skip", str(err), **inputs)
                            continue
                    v_direct = kl_direct(query, backend, term_budget=config.budget)
                    v_dft = kl_via_dft(query, table)
                    ok = backend.eq(v_direct, v_dft)
                    detail = "direct grid (%d terms) vs character table" % cost
                    if not ok:
                        detail += ": direct %s dft %s" % (_value_json(v_direct), _value_json(v_dft))
                    rows.add((n, t, omega.k, y), case_id, "pass" if ok else "fail",
                             detail, **inputs)
                    ran += 1
                    if first_sample:
                        samples.append(kl_result_json(query, v_direct, "direct"))
                        first_sample = False
            instances.append({"n": n, "t": t, "twists": ug.order, "units": ug.order,
                              "cases_run": ran})

    extras = {"instances": instances, "samples": samples}
    report = SuiteReport("kloosterman", rows.sorted(), extras=extras)
    report.elapsed = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# bessel suite
# ---------------------------------------------------------------------------


def _bessel_pi(p: int, n: int) -> RepnData:
    """The canonical depth->=2, finite-central-character probe of rank n."""
    if n == 2:
        return steinberg(MultChar(p, 1, 1), 2)
    if n == 3:
        return steinberg(trivial_char(p), 3)
    return RepnData.of(Block(trivial_char(p), n - 1), Block(trivial_char(p)))


def cmd_bessel(config: RunConfig) -> SuiteReport:
    """Per rank n: duality_check at every character of level t_max against a
    canonical probe representation, then the closed-form collapse with the
    measured constant at every point of the support shell, plus the
    prefactor report (measured exactly regardless of the configured backend)."""
    t0 = time.perf_counter()
    backend = config.make_backend()
    p, t = config.p, config.t_max
    rows = _Rows()
    extras = {"representations": [], "prefactor_reports": [], "duality": []}
    m = phi(p, t)

    for n in sorted(set(config.n_list)):
        if n < 2:
            rows.add((n, 0, 0), "bessel n=%d setup" % n, "skip",
                     "Bessel transforms need rank n >= 2: structural skip", p=p, n=n)
            continue
        pi = _bessel_pi(p, n)
        a_pi = pi.conductor_exponent
        if t < a_pi:
            rows.add((n, 0, 0), "bessel n=%d setup" % n, "skip",
                     "level t_max=%d is below the probe conductor %d; rerun with a deeper t_max"
                     % (t, a_pi), p=p, n=n, a_pi=a_pi)
            continue
        if m * m > config.budget:
            rows.add((n, 0, 0), "bessel n=%d setup" % n, "skip",
                     "character profile needs about %d operations, over budget %d"
                     % (m * m, config.budget), p=p, n=n)
            continue

        z = PadicNumber(p, Fraction(1, p ** t))
        extras["representations"].append({"n": n, "t": t, "pi": pi.describe()})

        vanishing = 0
        for chi in enumerate_chars(p, t):
            rep = duality_check(pi, z, chi, backend=backend)
            if rep.both_vanish:
                vanishing += 1
            rows.add((n, 1, chi.k), "bessel n=%d duality chi[k=%d]" % (n, chi.k),
                     "pass" if rep.passed else "fail",
                     "both sides vanish" if rep.both_vanish else "nonvanishing branch",
                     p=p, n=n, t=t, k=chi.k, conductor=chi.conductor_exponent)
        extras["duality"].append({"n": n, "characters": m, "vanishing": vanishing})

        pf = measure_prefactor(pi, z)
        pf_json = pf.to_json()
        pf_json["cofactor"] = _frac_json(pf.cofactor)
        pf_json["candidates"] = {name: _frac_json(v) for name, v in sorted(pf.candidates.items())}
        extras["prefactor_reports"].append(pf_json)

        for y0 in unit_group(p, t).units():
            y0 = int(y0)
            y = PadicNumber(p, Fraction(y0, p ** (n * t)))
            b_sum = bessel_charsum(pi, z, y, backend=backend)
            b_closed = bessel_closedform(pi, z, y, preset="measured", report=pf, backend=backend)
            ok = (b_sum.support_flag == b_closed.support_flag
                  and b_sum.value.eq_value(b_closed.value, p, backend))
            detail = "character sum vs measured-constant closed form"
            if not ok:
                detail += ": charsum %s closedform %s" % (
                    _scaled_json(b_sum.value), _scaled_json(b_closed.value))
            rows.add((n, 2, y0), "bessel n=%d closedform y0=%d" % (n, y0),
                     "pass" if ok else "fail", detail, p=p, n=n, t=t, y0=y0)

    report = SuiteReport("bessel", rows.sorted(), extras=extras)
    report.elapsed = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# assembly and entry point
# ---------------------------------------------------------------------------


SUITE_ORDER = ("gauss", "stability", "kloosterman", "bessel")
SUITES: dict = {
    "gauss": cmd_gauss,
    "stability": cmd_stability,
    "kloosterman": cmd_kloosterman,
    "bessel": cmd_bessel,
}


def run_suites(names: Sequence[str], config: RunConfig) -> tuple:
    """Run the named suites in canonical order; returns (reports, document)."""
    reports = [SUITES[name](config) for name in names]
    doc = {
        "version": __version__,
        "config": config.to_json(),
        "suites": [r.to_json(config) for r in reports],
        "passed": all(r.passed for r in reports),
    }
    return reports, doc


def write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, reports: Sequence[SuiteReport]) -> None:
    """Flat suite,case,status,detail table with one row per case."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "case", "status", "detail"])
        for report in reports:
            for case in report.cases:
                writer.writerow([report.suite, case["case"], case["status"],
                                 case.get("detail", "")])


def _print_summary(reports: Sequence[SuiteReport], stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    for r in reports:
        print("%-12s %5d cases  %3d failed  %3d skipped  %7.2fs  [%s]"
              % (r.suite, len(r.cases), len(r.failures), len(r.skips),
                 r.elapsed, "PASS" if r.passed else "FAIL"), file=stream)
        for case in r.failures:
            print("  FAIL %s: %s" % (case["case"], case.get("detail", "")), file=stream)
    total_failures = sum(len(r.failures) for r in reports)
    if total_failures:
        print("RESULT FAIL  (%d failing cases)" % total_failures, file=stream)
    else:
        print("RESULT PASS  (%d suites)" % len(reports), file=stream)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsilonlab",
        description="Exhaustive verification suites for p-adic local constants.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "gauss": "Gauss-sum moduli, functional equation and twist laws",
        "stability": "twisted-factor collapse across all block-built representations",
        "kloosterman": "direct hyper-Kloosterman grids against the character table",
        "bessel": "Bessel duality, closed form and prefactor measurement",
        "all": "every suite in canonical order",
    }
    for name in (*SUITE_ORDER, "all"):
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--p", type=int, default=None, help="odd prime (default 5)")
        sp.add_argument("--t-max", type=int, default=None, dest="t_max",
                        help="deepest level to sweep (default 2)")
        sp.add_argument("--n", type=int, nargs="+", default=None, dest="n_list",
                        metavar="N", help="ranks to cover (default 2 3)")
        sp.add_argument("--backend", choices=("exact", "float"), default=None,
                        help="cyclotomic integers or complex floats (default exact)")
        sp.add_argument("--tolerance", type=float, default=None,
                        help="relative tolerance of the float backend (default 1e-9)")
        sp.add_argument("--budget", type=int, default=None,
                        help="largest term count any single case may cost (default %d)"
                        % DEFAULT_BUDGET)
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="JSON file with the same keys as the flags; flags win")
        sp.add_argument("--out", default=None, metavar="FILE",
                        help="write the full JSON report here")
        sp.add_argument("--csv", default=None, metavar="FILE",
                        help="write a flat suite,case,status,detail table here")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError("cannot read config file %s: %s" % (args.config, err))
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object of settings")
        allowed = {f.name for f in fields(RunConfig)}
        unknown = set(loaded) - allowed
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        base.update(loaded)
    for key in ("p", "t_max", "n_list", "backend", "tolerance", "budget", "out", "csv"):
        value = getattr(args, key)
        if value is not None:
            base[key] = value
    if "n_list" in base:
        base["n_list"] = tuple(base["n_list"])
    config = RunConfig(**base)
    config.validate()
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    names = SUITE_ORDER if args.command == "all" else (args.command,)
    reports, doc = run_suites(names, config)
    if config.out:
        write_json(config.out, doc)
    if config.csv:
        write_csv(config.csv, reports)
    _print_summary(reports)
    return 0 if doc["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
