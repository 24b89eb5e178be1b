"""Benchmark of the exact lab: time to a checked verdict, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each sweep runs in a fresh interpreter
(``child.py``), so every run pays cold caches the way a command-line user
does.  The load is a closed loop with one client: the next sweep starts only
after the previous process has exited, and nothing runs concurrently.

``--trace 0`` repeats the sweep until ``--seconds`` is used up (at least
three times), with a set-up-only launch before each sweep, and reports the
end-to-end metrics named in BENCHMARK.json (see ``end_to_end``).  ``--trace 1``
twice times the sweep untraced for a quarter of the budget and then once
under the tracer (``tracing.py``), and reports the per-layer metrics; the
two traced sweeps must give identical counts.

Every sweep passes the verdict gate: its case count and the digest of its
sorted (case, status) rows must equal the ones recorded in ``golden.json``
(the seed's verdicts).  A sweep that fails the gate or crashes counts all
its cases as failed, and the run then exits 1.  The seed picks the visiting
order of the certificate grid; the CLI suites are exhaustive in a fixed
order, so for them it is only recorded.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

MIN_SWEEPS = 3
RUN_DEADLINE_S = 170.0  # a run must end well inside three minutes
RAW_UNITS = {"wall_s": "s", "cases_per_s": "1/s", "cpu_s": "s", "ref_s": "s"}
COUNT_UNITS = ("count", "computed_ops", "bytes", "ratio")  # per-layer units that repeat exactly


class Run:
    """Children launched by one benchmark run, and what they reported."""

    def __init__(self, name: str, size: str, seed: int, golden: dict):
        self.name, self.size, self.seed = name, size, seed
        self.want = golden.get(size, {}).get(name)
        self.started = time.monotonic()
        self.setups: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.machine: dict = {}
        self.walls: list = []  # (wall_s, ref_s) of every untraced sweep that passed the gate

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def launch(self, mode: str, tag: str = "") -> dict | None:
        """Run one child to completion; None if it crashed or timed out."""
        run_id = "%s/%s/seed%d/%s%s" % (self.name, self.size, self.seed, mode, tag)
        argv = [sys.executable, CHILD, self.name, self.size, str(self.seed), mode, run_id]
        t_launch = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(RUN_DEADLINE_S - self.elapsed(), 1.0))
        except subprocess.TimeoutExpired:
            self.problems.append("%s: child timed out" % run_id)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append("%s: child exited %d: %s"
                                 % (run_id, proc.returncode, proc.stderr.strip()[-2000:]))
            return None
        out = json.loads(lines[-1])
        self.setups.append(out["t_ready"] - t_launch)
        self.machine = out.get("machine", self.machine)
        return out

    def sweep(self, mode: str, tag: str = "") -> dict | None:
        """One gated sweep; failures and crashes count every case as failed."""
        out = self.launch(mode, tag)
        expected = self.want["cases"] if self.want else 0
        if out is None:
            self.attempted += expected
            self.failed += expected
            return None
        got = out["verdicts"]
        problems = (workloads.gate(self.name, got, self.want) if self.want
                    else ["no recorded verdicts for %s at size %s" % (self.name, self.size)])
        self.attempted += max(got["cases"], expected)
        if problems:
            self.failed += max(got["cases"], expected)
            self.problems.extend("%s %s: %s" % (mode, tag, p) for p in problems)
            return None
        return out

    def repeat(self, budget_s: float, min_sweeps: int, setups: bool = False) -> list:
        """Untraced sweeps until the budget is used, at least min_sweeps.

        With ``setups``, a set-up-only launch precedes each sweep, so that the
        set-up samples spread over the whole run as the sweeps do.
        """
        done = []
        t0 = self.elapsed()
        while True:
            spent = self.elapsed() - t0
            if len(done) >= min_sweeps and spent + spent / len(done) > budget_s:
                break
            if self.elapsed() > RUN_DEADLINE_S / 2 and done:
                break
            if setups:
                self.launch("setup", str(len(done)))
            out = self.sweep("sweep", str(len(done)))
            if out is None:
                break
            done.append(out)
            self.walls.append((out["wall_s"], out["ref_s"]))
        return done


def end_to_end(run: Run, seconds: float) -> dict:
    """The run's end-to-end numbers.

    This machine's speed drifts by tens of percent over tens of seconds, and
    the sweeps' raw seconds drift with it.  So the gated times are the run's
    total sweep time divided by the summed mean time of the reference loop,
    which each sweep's process times right before and after the sweep and at
    its pauses (``*_ref``).  The reference loop runs no lab code, so of the
    code only the lab can move them.  Set-up time and memory are medians;
    the raw medians of the sweep times are printed alongside.
    """
    sweeps = run.repeat(seconds - run.elapsed(), MIN_SWEEPS, setups=True)
    if not sweeps:
        return {}
    med = lambda f: statistics.median(f(s) for s in sweeps)  # noqa: E731
    ref = sum(s["ref_s"] for s in sweeps)
    return {
        "wall_ref": sum(s["wall_s"] for s in sweeps) / ref,
        "cpu_ref": sum(s["cpu_s"] for s in sweeps) / ref,
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": med(lambda s: s["peak_rss_mb"]),
        "wall_s": med(lambda s: s["wall_s"]),
        "cases_per_s": med(lambda s: s["verdicts"]["cases"] / s["wall_s"]),
        "cpu_s": med(lambda s: s["cpu_s"]),
        "ref_s": med(lambda s: s["ref_s"]),
    }


def per_layer(run: Run, seconds: float, units: dict) -> dict:
    run.launch("setup")
    untraced, traced = [], []
    for tag in ("a", "b"):  # alternate, so that drifts in machine speed hit both sides
        untraced += run.repeat(seconds / 4, 1)
        traced.append(run.sweep("traced", tag))
    if not untraced or None in traced:
        return {}
    a, b = (t["layers"] for t in traced)
    digests = {s["verdicts"]["digest"] for s in untraced + traced}
    if len(digests) != 1:
        run.problems.append("traced and untraced sweeps disagree on the verdict digest")
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        if name not in a:
            run.problems.append("the tracer does not produce %s" % name)
            continue
        if unit in COUNT_UNITS:
            if a[name] != b[name]:
                run.problems.append("%s differs between two traced runs: %r vs %r"
                                    % (name, a[name], b[name]))
            out[name] = a[name]
        else:
            out[name] = (a[name] + b[name]) / 2
    out["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                               - statistics.median(s["wall_s"] for s in untraced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "epsilonlab", "__init__.py")):
        print("no src/epsilonlab under %s: run from the root of a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, args.trace,
                                  spec, golden)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_benchmark(name: str, seed: int, seconds: float, trace: int, spec: dict,
                  golden: dict, size: str = "bench") -> tuple:
    """One benchmark run; returns (result object, human-readable lines).

    ``size`` is ``bench`` except in ``selftest.py``, which passes ``smoke``.
    """
    run = Run(name, size, seed, golden)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    values = per_layer(run, seconds, units) if trace else end_to_end(run, seconds)

    lines = ["%s [%s: %s] seed %d, %d untraced%s sweeps, each in a fresh interpreter" % (
        name, size, workloads.describe(name, size), seed, len(run.walls),
        " and 2 traced" if trace else "")]
    if run.machine:
        lines.append("  machine: nproc %s, %s" % (
            os.cpu_count(), ", ".join("%s %s" % kv for kv in sorted(run.machine.items()))))
    metrics = {}
    for metric, unit in units.items():
        if metric in values:
            metrics[metric] = {"value": values[metric], "unit": unit}
            lines.append("  %-44s %14.6g %s" % (metric, values[metric], unit))
    for metric, unit in RAW_UNITS.items():
        if metric in values and metric not in units:
            lines.append("  %-44s %14.6g %s (shown, not gated)" % (metric, values[metric], unit))
    lines.append("  untraced wall_s per sweep: %s" % " ".join("%.3f" % w for w, _r in run.walls))
    lines.append("  untraced wall_ref per sweep: %s" % " ".join("%.2f" % (w / r)
                                                              for w, r in run.walls))
    lines.append("  failed_frac %.6g (%d of %d cases)" % (
        run.failed / run.attempted if run.attempted else 1.0, run.failed, run.attempted))
    for problem in run.problems:
        lines.append("  PROBLEM %s" % problem)
    correct = not run.problems and run.failed == 0 and set(metrics) == set(units)
    return ({"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed,
             "metrics": metrics}, lines)


if __name__ == "__main__":
    sys.exit(main())
