"""The two engines for an identity share nothing past the arithmetic layer.

Each identity the lab checks has a production engine and an independent
cross-check engine; a helper both of them reach would let one fault pass both
checks.  For each pair below, the lab definitions that each side reaches by
name from its entry points are collected, and the two sets may meet only in
the arithmetic layer (``scalars``, ``padic``, ``characters``) or in the pair's
allowlist, each entry with its reason.  A shared input type may appear in
every pair, with its constructor.

What a definition reaches: every Name in its body (annotations too) that
spells a module-level function or class of ``src/epsilonlab``, an import
alias read as the name it binds, and, inside a method, every ``self.x`` that
spells a method or property of the enclosing class.  A class reached by name
reaches its ``__init__`` and ``__post_init__``.  Other attributes (``obj.x``)
are not followed: attribute namesakes such as ``.p``, ``.order`` and
``.scale`` would join unrelated definitions.

Known limit: names are matched by spelling, not resolved, as the caller check
in test_public_api.py does.  The test catches a shared helper reached by name;
one reached only through another object's attribute is not seen.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "epsilonlab"

ARITHMETIC = {"scalars", "padic", "characters"}

INPUT_TYPES = {
    "RepnData": "the representation both sides are asked about",
    "Block": "the blocks a representation is built of",
    "RegimeError": "the refusal both sides raise outside the theorem's regime",
}

# (entry points of one engine, entry points of the other, the pair's allowlist)
PAIRS = [
    (["kl_direct"], ["kl_via_dft"], {}),
    (["CertificateTable.__init__", "CertificateTable.check_pairs"],
     ["RootNumberForms.__init__", "RootNumberForms.stability_key", "RootNumberForms.gl1_verdict"],
     {"gauss_sum": "the literal Gauss sums, which test_full_level_sum_matches_per_unit_definition "
                   "pins term by term",
      "_gauss_sum_at_level": "the literal Gauss sums, cached by character",
      "_times_g": "multiplication by the quadratic Gauss sum g, inside _gauss_form",
      "_gauss_form": "reads a value as a Gauss-sum form; test_gauss_form_round_trip pins it "
                     "against the literal sums"}),
    # the duality check: the literal unit-circle integral against the profile
    # of Gauss-sum forms and the forms verdict that reads it
    (["gauss_integral"], ["_charsum_profile", "_forms_verdict"], {}),
    # the prefactor measurement divides the character-sum row by kl_direct's
    (["kl_direct"], ["_charsum_row"], {}),
]

# the Gauss-sum form layer, which the literal engines must not reach
FORMS = {"_level_forms", "_gauss_form", "_form_product", "_times_g"}


def _lab():
    """(definitions, aliases): qualified name -> (module, node) for every
    module-level def and class and every method of such a class, and
    (module, bound name) -> imported name for each renamed lab import."""
    defs, aliases = {}, {}
    for path in sorted(SRC.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = (module, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs["%s.%s" % (node.name, item.name)] = (module, item)
            if isinstance(node, ast.ImportFrom) and node.level:
                aliases.update({(module, a.asname): a.name for a in node.names if a.asname})
    return defs, aliases


def _reached(entries, defs, aliases) -> dict:
    """Qualified name -> module of every lab definition the entries reach."""
    seen, todo = {}, list(entries)
    while todo:
        qual = todo.pop()
        if qual in seen or qual not in defs:
            continue
        module, node = seen[qual] = defs[qual]
        if isinstance(node, ast.ClassDef):
            todo += [qual + ".__init__", qual + ".__post_init__"]
            continue
        owner = qual.rpartition(".")[0]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                todo.append(aliases.get((module, sub.id), sub.id))
            elif (owner and isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id == "self"):
                todo.append("%s.%s" % (owner, sub.attr))
    return {qual: module for qual, (module, _node) in seen.items()}


def _shared(left, right) -> dict:
    """The definitions both sides reach outside the arithmetic layer and the
    input types (with their members), by module."""
    defs, aliases = _lab()
    assert set(left + right) <= set(defs)
    a, b = _reached(left, defs, aliases), _reached(right, defs, aliases)
    return {qual: a[qual] for qual in set(a) & set(b)
            if a[qual] not in ARITHMETIC and qual.partition(".")[0] not in INPUT_TYPES}


def test_engine_pairs_share_only_the_arithmetic_layer():
    for left, right, allowed in PAIRS:
        shared = sorted(set(_shared(left, right)) - set(allowed))
        assert shared == [], "%s and %s share %s" % (left, right, shared)


def test_allowlists_name_what_each_pair_shares():
    # an entry whose sharing ended goes, so each list says what is shared today
    for left, right, allowed in PAIRS:
        assert set(allowed) <= set(_shared(left, right)), (left, right)


def test_the_walk_follows_names_aliases_and_self():
    defs, aliases = _lab()
    kl = _reached(["kl_direct"], defs, aliases)
    assert {"_direct_row", "_direct_profile", "KLQuery.__post_init__"} <= set(kl)
    dft = _reached(["kl_via_dft"], defs, aliases)
    assert {"_form_row", "_power_row", "_shifted_products", "shifted_root_sums"} <= set(dft)
    assert "represent_at_level" in kl  # imported under its own name
    forms = _reached(["RootNumberForms.stability_key"], defs, aliases)
    assert {"RootNumberForms._key", "RootNumberForms._side", "_form_product"} <= set(forms)
    assert "represent_at_level" in forms  # imported as _represent_at_level
    assert "RootNumberForms.p" not in forms and "GaussTable.order" not in forms


def test_literal_engines_reach_no_gauss_sum_form():
    defs, aliases = _lab()
    for entry in ("gauss_integral", "kl_direct"):
        assert FORMS.isdisjoint(_reached([entry], defs, aliases)), entry
    # and the walk does see the form layer where it is used
    assert FORMS <= set(_reached(["_charsum_row", "_forms_verdict"], defs, aliases))
