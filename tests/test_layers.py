import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "matsuo2"

# each module imports only modules to its left, at module level
LAYERS = ("gf", "fischer", "transposition", "matsuo", "decomp", "miyamoto", "verify", "cli")
# the package files sit above every layer
ENTRY = ("__init__", "__main__")
# (importer, enclosing function, imported): fischer builds the group-derived
# catalog spaces and reads .gens files through transposition, at call time
ALLOWED = {("fischer", "catalog", "transposition"), ("fischer", "load_space", "transposition")}


def _imports(text):
    """(enclosing function or None, imported matsuo2 module) for each import
    of a matsuo2 module in text, in source order."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.ImportFrom):
                if child.level == 1:
                    module = child.module
                elif child.module == "matsuo2" or (child.module or "").startswith("matsuo2."):
                    module = child.module[len("matsuo2."):] or None
                else:
                    continue
                if module is None:  # from . import fischer
                    found.extend((func, a.name) for a in child.names)
                else:  # from .gf import vec_support
                    found.append((func, module.split(".")[0]))
            elif isinstance(child, ast.Import):
                found.extend((func, a.name.split(".")[1]) for a in child.names
                             if a.name.startswith("matsuo2."))
            visit(child, inner)

    visit(ast.parse(text), None)
    return found


def _violations(me, text):
    """The imports of matsuo2.<me>, as (function, module) pairs, that are not
    listed in ALLOWED and sit inside a function or reach a module at or above
    its layer."""
    if me in ENTRY:
        return []
    lower = LAYERS[:LAYERS.index(me)]
    return [(func, mod) for func, mod in _imports(text)
            if (func is not None or mod not in lower) and (me, func, mod) not in ALLOWED]


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(LAYERS + ENTRY)


def test_modules_import_only_lower_layers():
    found = {p.stem: _violations(p.stem, p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {me: v for me, v in found.items() if v} == {}


def test_the_listed_exceptions_are_used():
    text = (SRC / "fischer.py").read_text(encoding="utf-8")
    assert {(func, mod) for func, mod in _imports(text) if func} == {
        (func, mod) for me, func, mod in ALLOWED}


def test_an_upward_import_is_caught():
    text = ("from . import gf, matsuo\n"
            "from .decomp import classify_space\n"
            "import matsuo2.miyamoto\n"
            "from matsuo2 import verify\n"
            "def catalog(name):\n"
            "    from . import transposition\n"
            "def elsewhere():\n"
            "    from .transposition import preset\n"
            "    from .gf import vec_support\n")
    assert _violations("fischer", text) == [
        (None, "matsuo"), (None, "decomp"), (None, "miyamoto"), (None, "verify"),
        ("elsewhere", "transposition"), ("elsewhere", "gf")]
    # the algebra layers stay out of fischer even inside a function
    assert _violations("fischer", "def load_space(s):\n    from . import matsuo\n") == [
        ("load_space", "matsuo")]
