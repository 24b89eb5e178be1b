"""Every name in the lab has a caller in the lab, and every import is read.

Each module-level function and class of ``src/epsilonlab`` and each method
of such a class must be referenced somewhere in ``src/`` outside its own
definition: as a Name, as an Attribute, or in an import.  Public and private
names are checked alike; dunders are exempt, since Python calls them.  A
name that only tests call is test-only API; such a helper belongs in the
test that needs it.  The allowlist names the few public ones that stay for a
reason.

Every name a ``src/`` module imports must also be read in that module outside
its import statements (``from __future__`` imports are exempt): a dead import
is the trace of a deleted caller.

Every ``lru_cache`` in ``src/`` must have an integer ``maxsize``, so that a
long run cannot grow a cache without bound; the few unbounded ones are listed
with the reason each stays.

Known limit: names are matched by spelling, not resolved.  A method counts as
used when any attribute of the same name is read anywhere in ``src/`` (a
method ``exp`` would pass through ``np.exp``), so this catches a name with no
caller at all, not one whose only callers reach a namesake.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "epsilonlab"

ALLOWED = {
    "Backend.root_combination": "traced by perfbench; oracle for Backend.root_sum",
    "CertificateTable.fallback_count": "read by perfbench: the distinct certificate rows "
                                       "whose reduction the int64 guard sent to object dtype",
    "psi_eval": "traced by perfbench; the additive character the tests' literal sums read",
}


def _references(node) -> Counter:
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.split(".")[-1]] += 1
    return refs


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, short name, definition node) of every def and class
    at module level and every method of such a class, dunders excluded."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not _is_dunder(node.name):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not _is_dunder(item.name):
                    yield "%s.%s" % (node.name, item.name), item.name, item


def _callers_in_src(private: bool = False) -> dict:
    """Qualified name of every public (or every private) definition -> its
    references in src/ outside its own definition."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    everywhere = sum((_references(tree) for tree in trees), Counter())
    return {qual: everywhere[name] - _references(node)[name]
            for tree in trees for qual, name, node in _definitions(tree)
            if name.startswith("_") == private}


def test_every_public_name_has_a_caller_in_src():
    unused = sorted(qual for qual, refs in _callers_in_src().items()
                    if refs <= 0 and qual not in ALLOWED)
    assert unused == [], "public names with no caller in src/: %s" % unused


def test_every_private_name_has_a_caller_in_src():
    # a private helper whose last caller went, such as a method kept on a
    # class after the path that read it was deleted
    unused = sorted(qual for qual, refs in _callers_in_src(private=True).items() if refs <= 0)
    assert unused == [], "private names with no caller in src/: %s" % unused


def test_allowlist_names_exist():
    assert set(ALLOWED) <= set(_callers_in_src())


def test_allowlist_has_no_stale_entry():
    # an allowlisted name that has gained a caller in src/ no longer needs its entry
    stale = sorted(qual for qual, refs in _callers_in_src().items()
                   if refs > 0 and qual in ALLOWED)
    assert stale == [], "allowlisted names with a caller in src/: %s" % stale


def _imported_names(tree):
    """(bound name, line) of every name the module's imports bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_read():
    dead = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        dead += ["%s:%d %s" % (path.name, line, name)
                 for name, line in _imported_names(tree) if name not in read]
    assert dead == [], "imported names never read: %s" % dead


UNBOUNDED_CACHES = {
    "get_context": "one CycContext per field order N, read by every exact product; "
                   "a run meets a few dozen orders",
    "cyclotomic_poly": "one coefficient tuple per order, read only while a CycContext is built",
    "unit_group": "one unit group per (p, t), read by every character evaluation",
    "_conductor_exponent": "one int per (p, level, k), read for every character",
    "_quadratic_gauss_sum": "one Gauss sum per prime p",
}


def _lru_caches():
    """(function name, the decorator's maxsize node or None) of every function
    in src/ decorated with lru_cache or cache."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                target = call.func if call else dec
                if (getattr(target, "id", None) or getattr(target, "attr", None)) not in (
                        "lru_cache", "cache"):  # functools.cache is an unbounded lru_cache
                    continue
                sizes = ([kw.value for kw in call.keywords if kw.arg == "maxsize"]
                         + call.args[:1]) if call else []
                yield node.name, sizes[0] if sizes else None


def test_every_cache_is_bounded():
    unbounded = sorted(name for name, size in _lru_caches()
                       if not (isinstance(size, ast.Constant) and type(size.value) is int))
    assert unbounded == sorted(UNBOUNDED_CACHES), "caches without an integer maxsize: %s" % [
        name for name in unbounded if name not in UNBOUNDED_CACHES]
