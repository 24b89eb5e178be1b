"""The four sweeps the benchmark times, and the verdicts each one must reach.

Each workload has two sizes: ``bench``, the one ``run.py`` times, takes a
few seconds per sweep, so that one run of the benchmark holds several
fresh-process sweeps; ``smoke`` takes well under a second and is only used by
``selftest.py``.

This module imports ``epsilonlab`` only inside ``prepare``, so that the
parent process can read the table without paying for the import.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str  # CLI suite name, or "" for the certificate grid
    sizes: dict  # size -> (p, t_max, n_list) for CLI suites, (p, n_max, a_max) for the grid
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kl-exact", "kloosterman",
            {"smoke": (3, 2, (2, 3)), "bench": (5, 2, (2, 3, 4))},
            "every hyper-Kloosterman case checked by the direct grid and the Gauss-table "
            "engine; dense cyclotomic products dominate"),
        Workload(
            "stability-exact", "stability",
            {"smoke": (3, 2, (1, 2, 3)), "bench": (7, 2, (1, 2, 3))},
            "thousands of small epsilon-factor checks through the direct engine; rational "
            "times root products, character algebra and report rows"),
        Workload(
            "bessel-exact", "bessel",
            {"smoke": (3, 2, (2, 3)), "bench": (7, 2, (2, 3, 4))},
            "Bessel duality, closed form and prefactor measurement; exercises the cached "
            "character-sum profile and kl_direct, never kl_via_dft"),
        Workload(
            "cert-grid", "",
            {"smoke": (5, 2, 3), "bench": (5, 4, 4)},
            "the millions-of-pairs stability grid through CertificateTable: numpy exponent "
            "arithmetic and character enumeration, almost no cyclotomic products"),
    )
}


PAUSE_CELLS = 2000  # about two seconds of the bench grid between pauses


def describe(name: str, size: str) -> str:
    w = WORKLOADS[name]
    a, b, c = w.sizes[size]
    if w.suite:
        return "%s p=%d t_max=%d n=%s" % (w.suite, a, b, ",".join(map(str, c)))
    return "enumerate_reps(%d, %d, %d) x CertificateTable.check_pairs" % (a, b, c)


def rows_digest(lines) -> str:
    """sha256 over the sorted verdict lines, one per case."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# sweeps (run in the child process)
# ---------------------------------------------------------------------------


def prepare(name: str, size: str, seed: int) -> Callable[[], dict]:
    """Import the lab and validate the inputs; return the sweep to time.

    Everything done here counts as set-up.  The returned callable runs the
    sweep and returns its raw output; ``verdicts`` turns that into the
    gated summary outside the timed region.  The certificate grid calls
    ``pause`` between blocks of cells, where the caller may time the
    reference loop outside the sweep's own time; the CLI suites do not.
    """
    w = WORKLOADS[name]
    if w.suite:
        from epsilonlab import cli

        p, t_max, n_list = w.sizes[size]
        config = cli.RunConfig(p=p, t_max=t_max, n_list=n_list)
        config.validate()
        return lambda pause=None: {"reports": cli.run_suites((w.suite,), config)}

    import numpy as np
    from epsilonlab import local_factors

    p, n_max, a_max = w.sizes[size]

    def sweep(pause=None) -> dict:
        # module attributes are read at call time so a traced run sees its wrappers
        reps = local_factors.enumerate_reps(p, n_max, a_max)
        pause = pause or (lambda: None)
        pause()
        cells = [(i, a) for i, pi in enumerate(reps)
                 for a in sorted({max(pi.conductor_exponent, 1), pi.conductor_exponent + 1})]
        random.Random(seed).shuffle(cells)
        tables, rows = {}, {}  # per conductor exponent: the table and all its row indices
        results = []
        for n, (i, a) in enumerate(cells, 1):
            if n % PAUSE_CELLS == 0:
                pause()
            table = tables.get(a)
            if table is None:
                table = tables[a] = local_factors.CertificateTable(p, a)
                rows[a] = np.arange(len(table.row_ks))
            ok = table.check_pairs(reps[i], rows[a])
            results.append((i, a, len(ok), int(np.count_nonzero(ok))))
        return {"reps": reps, "results": results, "tables": tables}

    return sweep


def verdicts(name: str, out: dict) -> dict:
    """Gated summary of one sweep: case count, failures, digest, extras."""
    if WORKLOADS[name].suite:
        reports, doc = out["reports"]
        cases = [c for r in reports for c in r.cases]
        summary = {
            "cases": len(cases),
            "failed": sum(1 for c in cases if c["status"] == "fail"),
            "digest": rows_digest("%s\t%s" % (c["case"], c["status"]) for c in cases),
        }
        if name == "bessel-exact":
            summary["prefactors"] = [
                [pf["n"], pf["t"], pf["measured_exponent"], pf["cofactor"]]
                for r in doc["suites"] for pf in r["extras"]["prefactor_reports"]]
        return summary
    reps, results = out["reps"], out["results"]
    pairs = sum(r[2] for r in results)
    true = sum(r[3] for r in results)
    lines = []
    for i, a, n, ok in results:
        key = ";".join("%d.%d.%d" % (b.tau.level, b.tau.k, b.size) for b in reps[i].blocks)
        lines.append("%s\t%d\t%d\t%d" % (key, a, n, ok))
    return {
        "cases": pairs,
        "failed": pairs - true,
        "digest": rows_digest(lines),
        "cells": len(results),
        "all_true": true == pairs,
        "fallbacks": sum(t.fallback_count for t in out["tables"].values()),
    }


def report_bytes(out: dict) -> int:
    """Size of every case row the CLI assembled, JSON-encoded (0 for the grid)."""
    if "reports" not in out:
        return 0
    return len(json.dumps([r.cases for r in out["reports"][0]], sort_keys=True))


# ---------------------------------------------------------------------------
# the verdict gate (run in the parent process)
# ---------------------------------------------------------------------------


def gate(name: str, got: dict, want: dict) -> list:
    """Reasons the sweep's verdicts differ from the recorded ones ([] if none)."""
    problems = []
    for key in ("cases", "digest", "cells", "all_true", "fallbacks"):
        if key in want and got.get(key) != want[key]:
            problems.append("%s is %r, expected %r" % (key, got.get(key), want[key]))
    if got.get("failed"):
        problems.append("%d cases failed" % got["failed"])
    if name == "bessel-exact":
        if not got.get("prefactors"):
            problems.append("no prefactor report")
        for n, t, exponent, cofactor in got.get("prefactors", []):
            expected = t * (n - 1) * (n - 2) // 2
            if Fraction(str(exponent)) != expected or Fraction(str(cofactor)) != 1:
                problems.append("prefactor for n=%d t=%d is %s * q^%s, expected q^%d"
                                % (n, t, cofactor, exponent, expected))
    return problems
