"""The benchmark's sweeps reach their recorded verdicts.

``perfbench/workloads.py`` and ``perfbench/golden.json`` are read here as they
stand, without installing or editing them, and each workload's smoke sweep is
run in-process: a change that breaks a benchmark verdict fails this suite, not
only the benchmark's own self-test.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_cert_grid_smoke_sweep_matches_its_golden(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    want = json.loads((PERFBENCH / "golden.json").read_text())["smoke"]["cert-grid"]
    got = workloads.verdicts("cert-grid", workloads.prepare("cert-grid", "smoke", 7)())
    keys = ("cases", "digest", "cells", "all_true", "fallbacks")
    assert {key: got[key] for key in keys} == {key: want[key] for key in keys}
    assert got["failed"] == 0


@pytest.mark.parametrize("name", ["kl-exact", "stability-exact", "bessel-exact"])
def test_suite_smoke_sweep_matches_its_golden(monkeypatch, name):
    workloads = _load_workloads(monkeypatch)
    want = json.loads((PERFBENCH / "golden.json").read_text())["smoke"][name]
    got = workloads.verdicts(name, workloads.prepare(name, "smoke", 7)())
    assert {key: got[key] for key in want} == want
    assert workloads.gate(name, got, want) == []
