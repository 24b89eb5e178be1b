"""The benchmark's certificate grid reaches its recorded verdicts.

``perfbench/workloads.py`` is read here as it stands, without installing it,
and its ``cert-grid`` smoke sweep is run in-process: a change that breaks a
grid verdict fails this suite, not only the benchmark's own self-test.
"""
import importlib.util
import json
import sys
from pathlib import Path

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
