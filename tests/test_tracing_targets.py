"""The names the benchmark tracer patches must exist in the lab.

``perfbench/tracing.py`` wraps lab functions by name and reads cache
statistics through ``cache_info()``.  It is read here as it stands, without
installing it, so that deleting or renaming a traced name fails this suite
and not only a traced benchmark run.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

from epsilonlab.characters import MultChar
from epsilonlab.kloosterman import KLQuery, direct_term_count

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _cached_functions():
    """(module, attribute) of each ``mods[...].name`` read into ``self._caches``."""
    tree = ast.parse(TRACING.read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Attribute)
                and node.targets[0].attr == "_caches"):
            return [(v.value.slice.value, v.attr) for v in node.value.values]
    raise AssertionError("tracing.py no longer assigns self._caches")


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    for mod, path, name, _kind in tracing.TARGETS:
        owner = importlib.import_module("epsilonlab." + mod)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), "%s: epsilonlab.%s.%s is gone" % (name, mod, path)
    for mod in tracing.MODULES:
        importlib.import_module("epsilonlab." + mod)


def test_every_traced_cache_has_cache_info():
    caches = _cached_functions()
    assert len(caches) >= 5
    for mod, attr in caches:
        fn = getattr(importlib.import_module("epsilonlab." + mod), attr)
        assert callable(getattr(fn, "cache_info", None)), "epsilonlab.%s.%s" % (mod, attr)


def test_the_term_counter_reads_one_row_grid():
    # the counter reads .p, .t and .n off kl_direct's query: one call adds
    # the m^(n-1) points of one row's unit grid
    count = _load_tracing().Tracer("t")._counter("kloosterman.kl_direct")
    counts = {"kloosterman.kl_direct.terms": 0}
    query = KLQuery(MultChar(5, 2, 3), 3, 2)
    count(counts, (query,), None)
    assert counts["kloosterman.kl_direct.terms"] == 20 ** 2 == direct_term_count(query)
