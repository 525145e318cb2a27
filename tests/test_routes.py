"""Route separation, read from the source.

The verifier checks each identity by two routes to the same integers, so
the routes must share no code that could make them agree by construction.
Each route is one module, and this test parses it with ``ast``:

* it imports no chainex module but the ones its entry allows (the series
  builders none at all);
* it reads from ``partition`` only the names its entry allows, whether
  through ``from .partition import ...`` or through attributes of the
  module (``pt.<name>`` after ``from . import partition as pt``);
* within ``partition.py``, the names it reads never reach those its entry
  forbids: the brute-force engine never reaches ``chain_mex_maex``, the
  one-r loop of the bijection side, and the bijections never reach the
  walk or the chain scan of the engine.
"""

import ast
from pathlib import Path

import pytest

import chainex

SRC = Path(chainex.__file__).parent

# module -> (the chainex modules it imports, the partition names it may
# read, the partition names those must never reach)
ROUTES = {
    "brute": ({"partition"},
              {"EMPTY", "Partition", "_is_count", "walk_scans", "scan_start", "scan_step",
               "count_multiples", "largest_repeating", "top_multiple_multiplicity",
               "smallest_repeating", "parts_above"},
              {"chain_mex_maex"}),
    "bijections": ({"partition"},
                   {"Partition", "_cut_pairs", "_merge_pairs", "chain_mex_maex",
                    "is_regular", "is_strict", "largest_repeating"},
                   {"walk_scans", "scan_start", "scan_step"}),
    "qseries": (set(), set(), set()),
}


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def source_module(node):
    """The chainex module an ``ImportFrom`` reads from ("" for the package
    itself), or None for a module outside chainex."""
    if node.level:
        return node.module or ""
    if node.module == "chainex" or (node.module or "").startswith("chainex."):
        return node.module.removeprefix("chainex").removeprefix(".")
    return None


def chainex_imports(tree):
    """Every chainex module the tree imports; a plain ``import chainex...``
    counts as the whole package, which no route may import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update("chainex" for alias in node.names
                         if alias.name.split(".")[0] == "chainex")
        elif isinstance(node, ast.ImportFrom):
            module = source_module(node)
            if module == "":
                found.update(alias.name for alias in node.names)
            elif module is not None:
                found.add(module)
    return found


def partition_reads(tree):
    """The names the tree reads from ``partition``.  A bare use of a name
    bound to the module itself, one not followed by an attribute, counts
    as ``*``: it could read anything."""
    reads, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = source_module(node)
            if module == "partition":
                reads.update(alias.name for alias in node.names)
            elif module == "":
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "partition")
    attributed = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            reads.add(node.attr)
            attributed.add(id(node.value))
    if any(isinstance(node, ast.Name) and node.id in aliases and id(node) not in attributed
           for node in ast.walk(tree)):
        reads.add("*")
    return reads


def reach(names):
    """Every module-level name of ``partition.py`` that ``names`` use, the
    names themselves included, following each definition's body."""
    defs = {}
    for node in parse("partition").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((target.id, node) for target in node.targets
                        if isinstance(target, ast.Name))
    uses = {name: {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            for name, node in defs.items()}
    seen, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(uses.get(name, set()) & defs.keys())
    return seen


@pytest.mark.parametrize("module", ROUTES)
def test_imports_only_its_route(module):
    assert chainex_imports(parse(module)) == ROUTES[module][0]


@pytest.mark.parametrize("module", ROUTES)
def test_reads_only_the_partition_names_it_may(module):
    assert partition_reads(parse(module)) <= ROUTES[module][1]


@pytest.mark.parametrize("module", ROUTES)
def test_partition_names_read_never_reach_the_other_route(module):
    reached = reach(partition_reads(parse(module)))
    assert not reached & ROUTES[module][2], sorted(reached & ROUTES[module][2])


def test_reads_follow_both_import_forms():
    tree = ast.parse("from . import partition as pt\nfrom .partition import walk_scans\n"
                     "x = pt.parts_above(lam, 3)\ny = getattr(pt, name)\n")
    assert chainex_imports(tree) == {"partition"}
    assert partition_reads(tree) == {"walk_scans", "parts_above", "*"}
    assert "scan_step" in reach({"walk_scans"})
    assert "chain_mex_maex" in reach({"parts_above_mex"})
