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

Two more checks keep each import honest.  No module under ``chainex``
imports a chainex name it never uses, so the package re-exports nothing,
and a fresh interpreter that imports ``partition`` or one route module
loads no chainex module but the package, that module and the ones its
entry allows.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainex

SRC = Path(chainex.__file__).parent

# module -> (the chainex modules it imports, the partition names it may
# read, the partition names those must never reach)
ROUTES = {
    "brute": ({"partition"},
              {"Partition", "_is_count", "scan_start", "scan_step",
               "count_multiples", "largest_repeating", "top_multiple_multiplicity",
               "smallest_repeating", "parts_above"},
              {"chain_mex_maex"}),
    "bijections": ({"partition"},
                   {"Partition", "_conjugate_pairs", "_cut_pairs", "_merge_pairs",
                    "chain_mex_maex", "is_regular", "is_strict"},
                   {"scan_start", "scan_step"}),
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


def unused_imports(tree):
    """The names the tree imports from chainex and never reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or "chainex" for alias in node.names
                         if alias.name.split(".")[0] == "chainex")
        elif isinstance(node, ast.ImportFrom) and source_module(node) is not None:
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_chainex_name_it_never_uses():
    tree = ast.parse("import chainex.cli\nfrom chainex import brute as b\nfrom . import qseries\n"
                     "from .partition import EMPTY, chain_mex\nfrom collections import namedtuple\n"
                     "x = qseries.DEFAULT_ORDER + chain_mex(EMPTY, 1)\n")
    assert unused_imports(tree) == {"chainex", "b"}
    unused = {path.name: sorted(unused_imports(ast.parse(path.read_text())))
              for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


@pytest.mark.parametrize("module", ["partition", *ROUTES])
def test_a_fresh_import_loads_only_its_route(module):
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = (f"import sys, chainex.{module}; "
            "print(*sorted(name for name in sys.modules if name.split('.')[0] == 'chainex'))")
    loaded = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True).stdout.split()
    allowed = ROUTES.get(module, (set(),))[0]
    assert set(loaded) == {"chainex", f"chainex.{module}"} | {f"chainex.{m}" for m in allowed}


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
    tree = ast.parse("from . import partition as pt\nfrom .partition import partitions\n"
                     "x = pt.parts_above(lam, 3)\ny = getattr(pt, name)\n")
    assert chainex_imports(tree) == {"partition"}
    assert partition_reads(tree) == {"partitions", "parts_above", "*"}
    assert {"Partition", "PartitionError"} <= reach({"partitions"})
    assert "chain_mex_maex" in reach({"parts_above_mex"})
