import importlib
import re
from pathlib import Path

from matsuo2 import verify

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = ("gf", "fischer", "matsuo", "decomp", "miyamoto", "transposition", "verify", "cli")

# a backticked span that opens with module.name, as `miyamoto.group_closure`
# or `fischer.load_space(source)`
_CITED = re.compile(r"`(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)[^`]*`")


def _stale(text):
    """The cited `module.name`s of text, sorted, that are neither an attribute
    of matsuo2.<module> nor a claim id of either verify suite."""
    claims = {cid for cid, _ in verify.CLAIMS + verify.FAMILY_CLAIMS}
    cited = {m.groups() for m in _CITED.finditer(text)}
    return sorted(f"{mod}.{name}" for mod, name in cited
                  if f"{mod}.{name}" not in claims
                  and not hasattr(importlib.import_module(f"matsuo2.{mod}"), name))


def test_every_readme_name_resolves():
    text = README.read_text(encoding="utf-8")
    assert _CITED.search(text)
    assert _stale(text) == []


def test_a_stale_readme_name_is_caught():
    text = ("`miyamoto.group_closure` and `miyamoto._packed_closure`, then\n"
            "`decomp.witness_hall`, `gf.apply_images(rows, x)` and `gf.no_such(x)`;\n"
            "`matsuo.predict_line_row(sp, line)` and `matsuo.predict_line_line(sp, a, b)`;\n"
            "`gf._mul_raw(a, b, k, modulus)` and `gf.Field`;\n"
            "`fischer._plane_lines(key, pm, collinear, wedge, line_ids)` and `fischer.wedge`;\n"
            "`miyamoto._cq_miyamoto_matrices(alg, field, lines, lams)`, "
            "`miyamoto.cq_miyamoto_matrix(alg, field, line, lam)`,\n"
            "`miyamoto._cq_generators(alg, field)` and `miyamoto.cq_miyamoto_maps(alg, field)`")
    assert _stale(text) == ["fischer._plane_lines", "gf._mul_raw", "gf.no_such",
                            "matsuo.predict_line_line", "miyamoto._cq_generators",
                            "miyamoto._cq_miyamoto_matrices", "miyamoto._packed_closure",
                            "miyamoto.cq_miyamoto_matrix"]
