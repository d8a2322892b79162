"""Static checks on the imports of ``src/carlitz``.

Every module-level import is used or exported: a name imported at module
level that the module never reads and does not list in ``__all__`` is dead
code.  The only ones allowed are those the benchmark's tracer patches by
name (ROADMAP item 2); the list can only shrink, since an entry that is
used again or no longer imported fails too.

No module holds an ``assert`` statement: ``python -O`` strips them, so a
guard (the overflow bounds of ``linalg`` and ``euler``) or an invariant
check must raise.

The Euler route stays independent of the other two: ``euler`` builds the
τ-matrix's coefficients itself, so its agreement with the determinant
still tests the determinant's band, and it reads nothing of ``linalg``.

``ff`` alone converts GF(p^e) codes to base-p digits and back: no other
module raises p to an ``arange`` of digit positions.

``ff.check_int`` alone decides which ints a caller may pass: no other module
raises a message of a hand-written int bound.

``ff`` alone reads a field's flat tables (``.tables()``): the other modules
go through ``ff.field_tables`` or ``ff.array_ops``, so none builds its own
array copies of them or its own refusal above the table cap.
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


def _package_imports(path):
    """(module, name) for every import of a ``carlitz`` module, at any depth:
    ``from .m import x`` gives ("m", "x"); ``from . import m`` and
    ``import carlitz.m`` give ("m", "*")."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("carlitz")):
            mod = (node.module or "").removeprefix("carlitz").lstrip(".")
            out.update((mod, a.name) if mod else (a.name, "*")
                       for a in node.names)
        elif isinstance(node, ast.Import):
            out.update((a.name.removeprefix("carlitz."), "*")
                       for a in node.names if a.name.startswith("carlitz."))
    return out


def test_euler_reads_only_the_twist_from_the_other_routes():
    # the batch builds P(θ)(T - θ)^n's coefficients itself; reading the
    # determinant's band (motive._band_codes, band_signs), the determinant
    # or the point engine would make the cross-check between the routes
    # circular; the generator table it shares with linalg comes from ff
    got = {(mod, name) for mod, name in _package_imports(SRC / "euler.py")
           if mod in ("motive", "fastrank", "linalg")}
    assert got == {("motive", "TwistedPower")}


def _digit_place_values(path):
    """Lines of ``x ** arange(...)``: the place values of a by-hand digit
    decode or encode."""
    return [node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Call)
            and getattr(node.right.func, "attr",
                        getattr(node.right.func, "id", None)) == "arange"]


def test_only_ff_converts_codes_to_digits():
    found = {(path.name, line) for path in sorted(SRC.glob("*.py"))
             if path.stem != "ff" for line in _digit_place_values(path)}
    assert found == set(), "use ff.to_digits / ff.from_digits"
    assert _digit_place_values(SRC / "ff.py"), "the check sees ff's own"


def test_no_assert_statements():
    found = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


_BOUND_PHRASES = ("must be >=", "must be a code in", "out of range")


def _hand_written_bounds(path):
    """Lines of a ``raise`` whose message reads like an int bound."""
    return [node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Raise) and node.exc is not None
            and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and any(w in c.value for w in _BOUND_PHRASES)
                    for c in ast.walk(node.exc))]


def test_only_ff_writes_int_bounds():
    found = {(path.name, line) for path in sorted(SRC.glob("*.py"))
             if path.stem != "ff" for line in _hand_written_bounds(path)}
    assert found == set(), "use ff.check_int"
    assert _hand_written_bounds(SRC / "ff.py"), "the check sees ff's own"


def _table_readers(path):
    """Module-level defs and classes that call ``.tables()``."""
    return {getattr(node, "name", "<module>")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "tables"}


def test_only_ff_reads_the_flat_tables():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             if path.stem != "ff" for name in _table_readers(path)}
    assert found == set(), "use ff.field_tables or ff.array_ops"
    assert _table_readers(SRC / "ff.py"), "the check sees ff's own"
