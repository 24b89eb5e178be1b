"""Self-test of the benchmark on the smoke sizes; takes well under a minute.

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run emit every
metric BENCHMARK.json names, with its unit; that the module self times plus
the unattributed time add up to the traced wall time, and that the
unattributed time stays under 5 % of it, so that a sweep whose time falls
outside the traced names fails; that the traced and untraced sweeps reach
the same verdict digest; and that a tampered golden digest makes the run
fail.  Last, it checks that the command refuses to report anything in a
directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads
from tracing import MODULES

SEED = 7
SECONDS = 1.0
UNATTRIBUTED_MAX = 0.05  # share of the traced wall that no traced name may cover

failures: list = []


def check(ok: bool, what: str) -> None:
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def check_metrics(name: str, result: dict, listed: list) -> None:
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, "%s emits every listed metric with its unit" % name)
    check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              for v in result["metrics"].values()), "%s metric values are finite numbers" % name)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(run.HERE, "golden.json")) as fh:
        golden = json.load(fh)

    for name in workloads.WORKLOADS:
        result, lines = run.run_benchmark(name, SEED, SECONDS, 0, spec, golden, "smoke")
        check(result["correct"] and result["failed"] == 0,
              "%s untraced run passes the verdict gate" % name)
        check_metrics(name + " untraced", result, spec["end_to_end"])

        result, lines = run.run_benchmark(name, SEED, SECONDS, 1, spec, golden, "smoke")
        check(result["correct"], "%s traced run passes, counts repeat across two traced runs"
              % name)
        check_metrics(name + " traced", result, spec["per_layer"])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if m:
            total = sum(m[mod + ".self_s"] for mod in MODULES) + m["trace.unattributed_s"]
            check(math.isclose(total, m["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9),
                  "%s module self times + unattributed = traced wall (%.6f vs %.6f)"
                  % (name, total, m["trace.wall_s"]))
            share = m["trace.unattributed_s"] / m["trace.wall_s"]
            check(share < UNATTRIBUTED_MAX, "%s unattributed time is %.1f %% of the traced wall"
                  % (name, 100 * share))

        probe = run.Run(name, "smoke", SEED, golden)
        plain, traced = probe.sweep("sweep"), probe.sweep("traced")
        check(plain is not None and traced is not None
              and plain["verdicts"]["digest"] == traced["verdicts"]["digest"],
              "%s traced and untraced sweeps give the same verdict digest" % name)

        tampered = copy.deepcopy(golden)
        digest = tampered["smoke"][name]["digest"]
        tampered["smoke"][name]["digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        result, lines = run.run_benchmark(name, SEED, SECONDS, 0, spec, tampered, "smoke")
        check(not result["correct"] and result["failed"] == result["attempted"] > 0,
              "%s fails on a tampered golden digest" % name)

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", "cert-grid", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        check(proc.returncode != 0 and not last.startswith("{"),
              "a directory without the sources gives exit %d and no result" % proc.returncode)

    print("%d failed checks" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
