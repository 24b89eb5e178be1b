"""Every public name in the lab has a caller in the lab.

Each public module-level function and class of ``src/epsilonlab`` and each
public method of such a class must be referenced somewhere in ``src/``
outside its own definition: as a Name, as an Attribute, or in an import.  A
name that only tests call is test-only API; such a helper belongs in the test
that needs it.  The allowlist names the few that stay for a reason.

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
    "gauss_sum_full_level": "oracle for build_gauss_table in the tests",
    "Backend.root_combination": "traced by perfbench; oracle for Backend.root_sum",
    "CertificateTable.fallback_count": "read by perfbench",
    "ResidueClass.lifts": "probe that a result does not depend on the chosen representative",
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


def _public_definitions(tree):
    """(qualified name, short name, definition node) of every public def and class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                    yield "%s.%s" % (node.name, item.name), item.name, item


def test_every_public_name_has_a_caller_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    everywhere = sum((_references(tree) for tree in trees), Counter())
    unused = sorted(
        qual for tree in trees for qual, name, node in _public_definitions(tree)
        if everywhere[name] - _references(node)[name] <= 0 and qual not in ALLOWED)
    assert unused == [], "public names with no caller in src/: %s" % unused


def test_allowlist_names_exist():
    defined = {qual for path in SRC.glob("*.py")
               for qual, _name, _node in _public_definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined
