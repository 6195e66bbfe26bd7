"""src/sextic holds only what the library runs: code that only the tests
call lives under tests/ (permgroups.py, oracles.py)."""

import ast
from pathlib import Path

import sextic

SRC = Path(__file__).resolve().parents[1] / "src" / "sextic"

# top-level names that no module of src/sextic loads and sextic.__all__
# does not list, each with the reason it stays
UNLOADED = {
    "exact.divisors": "perfbench/spans.py traces the name (TARGETS); ROADMAP item 2 removes it",
    "roots.find_roots": "perfbench/spans.py traces the name (TARGETS); ROADMAP item 2 removes it",
    "resolvents.resolvent_numeric_in_frame": "perfbench/spans.py traces the name (TARGETS); ROADMAP item 2 removes it",
    "groups.MATCHING_GROUP_GENERATORS": "the paper's generators of the matching group, kept as data",
    "groups.MATCHING_EVEN_GENERATORS": "the paper's generators of its even part, kept as data",
    "groups.PARTITION_EVEN_GENERATORS": "the paper's (odd) generator pair, kept as data",
}


def _top_level_names(tree):
    """Functions, classes and assigned names at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _loaded_names(tree):
    """Every name read in tree, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_top_level_name_in_src_is_used_by_the_library():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    unloaded = {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _top_level_names(tree)
        if not name.startswith("__") and name not in loaded and name not in sextic.__all__
    }
    assert unloaded == set(UNLOADED)
