"""The package's surface: every export resolves, none is stale, and every
public function, class and method is something the package itself runs."""

import ast
import pathlib

import codegb

PACKAGE = pathlib.Path(codegb.__file__).resolve().parent

# Public members that no package module calls, each kept on purpose.
KEPT = {
    "reduce": "the decoding API: the normal form of a word under a Groebner basis",
    "WeightOrder": "turns a cone witness into a term order (acceptance criterion 9)",
    "graver_lawrence": "the paper's route; perfbench/spans.py wraps the names it imports into codegb.graver",
    "word_of_binomial": "the decoding API: the codeword a binomial encodes (perfbench's decode gate)",
}


def imported_names():
    with open(codegb.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }


def test_every_export_resolves():
    missing = [name for name in codegb.__all__ if not hasattr(codegb, name)]
    assert missing == []


def test_exports_are_exactly_the_imported_names():
    assert len(codegb.__all__) == len(set(codegb.__all__))
    assert set(codegb.__all__) == imported_names()


def public_members(tree, module):
    """(qualified name, name) of each public top-level function and class,
    and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_every_public_member_is_used_by_the_package_or_kept():
    """A member whose name no module but __init__.py mentions, as a name or
    an attribute, is called only from outside the package.

    Matching by name is a floor, not a proof: a member that shares its name
    with something the package does use passes unseen.  The deleted
    `VariableSpace.index` did, behind `operator.index` in binomials.py."""
    members, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        members.update(public_members(tree, path.stem))
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    unused = sorted(q for q, name in members.items() if name not in used and name not in KEPT)
    assert unused == []
    assert sorted(name for name in KEPT if name in used) == []
