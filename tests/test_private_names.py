import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "matsuo2"
MODULES = {p.stem for p in SRC.glob("*.py")}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_reads(text, me):
    """The `module._name`s that the source of matsuo2.<me> reads from another
    matsuo2 module, as an attribute of the imported module or by a
    from-import, sorted."""
    tree = ast.parse(text)
    imported, found = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            package, module = True, node.module
        else:
            package = node.module == "matsuo2"
            module = node.module[len("matsuo2."):] if node.module.startswith("matsuo2.") else None
        if module is None and package:  # from . import fischer
            imported.update((a.asname or a.name, a.name) for a in node.names
                            if a.name in MODULES and a.name != me)
        elif module in MODULES and module != me:  # from .gf import _name
            found.update(f"{module}.{a.name}" for a in node.names if _private(a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported and _private(node.attr)):
            found.add(f"{imported[node.value.id]}.{node.attr}")
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    assert {"fischer", "matsuo", "miyamoto", "verify"} <= MODULES
    reads = {path.stem: _foreign_private_reads(path.read_text(encoding="utf-8"), path.stem)
             for path in sorted(SRC.glob("*.py"))}
    assert {me: names for me, names in reads.items() if names} == {}


def test_a_private_read_is_caught():
    text = ("from . import fischer, matsuo as m\n"
            "from .gf import Field, _rref_gf2\n"
            "from matsuo2.decomp import _chain\n"
            "LINES = fischer._CQ_LINES\n"
            "def f(alg):\n"
            "    from . import transposition\n"
            "    transposition._parse_affine_body('[0|]')\n"
            "    return m._fold(1, alg.dim), m.__name__, alg._ad_rows, fischer.wedge\n")
    assert _foreign_private_reads(text, "miyamoto") == [
        "decomp._chain", "fischer._CQ_LINES", "gf._rref_gf2", "matsuo._fold",
        "transposition._parse_affine_body"]
    # a module's own private names are its own to read
    assert _foreign_private_reads("from . import matsuo\nmatsuo._fold(1, 2)\n", "matsuo") == []
