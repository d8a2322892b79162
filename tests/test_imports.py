"""Every module-level import in ``src/carlitz`` is used or exported.

A name imported at module level that the module never reads and does not
list in ``__all__`` is dead code.  The only ones allowed are those the
benchmark's tracer patches by name (ROADMAP item 2); the list can only
shrink, since an entry that is used again or no longer imported fails too.
"""

import ast
import pathlib

import carlitz

SRC = pathlib.Path(carlitz.__file__).resolve().parent

# (module, name): imported, unused, and patched by perfbench/tracer.py
ALLOWED = {("motive", "lfun_order_at"), ("scan", "analytic_rank")}


def _unused_imports(path):
    """Names a module binds by a module-level import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return bound - read


def test_no_unused_module_imports():
    unused = {(path.stem, name) for path in SRC.glob("*.py")
              for name in _unused_imports(path)}
    assert unused - ALLOWED == set(), "unused imports"
    # an allowed name that is used again, or gone, leaves the list
    assert ALLOWED <= unused, "stale entries in ALLOWED"
