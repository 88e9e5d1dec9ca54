import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matsuo2
from matsuo2 import cli, fischer, transposition
from matsuo2.transposition import gens_to_text, preset


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_table(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "w_d4" in out and "12" in out
    assert "3_3_sym4" in out and "18" in out
    lines = out.strip().splitlines()
    assert len(lines) == 8  # header + 7 spaces


def test_space_from_catalog(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "space", "--space", "w_a4",
                         "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["n_points"] == 10
    assert report["symplectic"] is True
    assert len(report["line_census"]) == 10
    assert report["line_census"][0]["p2"] == 6


def test_space_needs_a_source(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["space"])
    assert exc.value.code == 2
    assert "--space" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["nosuch", "hall.txt"])
def test_unknown_source_is_a_usage_error_everywhere(capsys, tmp_path, source):
    path = tmp_path / source
    path.write_text("fischer 6\n0 1 2\n0 4 5\n1 3 5\n2 3 4\n")
    message = (f"error: {str(path)!r} is neither a catalog name "
               f"{fischer.CATALOG_NAMES} nor a .fischer/.gens file\n")
    for argv in (("space", "--space", str(path)),
                 ("decompose", "--space", str(path))):
        assert run_cli(capsys, *argv) == (2, "", message)


def test_load_space_takes_a_str_or_a_path(tmp_path):
    expected = fischer.space_to_text(fischer.catalog("w_d4"))
    fischer_path = tmp_path / "w_d4.fischer"
    fischer_path.write_text(expected)
    gens_path = tmp_path / "w_d4.gens"
    gens_path.write_text(gens_to_text(*preset("w_d4")))
    for source in ("w_d4", Path("w_d4"), fischer_path, str(fischer_path),
                   gens_path, str(gens_path)):
        assert fischer.space_to_text(fischer.load_space(source)) == expected, source


# sha256 of the `space --space X` stdout, for each catalog name and for the
# .gens text of each preset
SPACE_JSON_SHA256 = {
    "cq": "fffe29a07fa407db55b6b6dbbcfc45fdfdd347795e2cb97dfeed1cc4d62c8dee",
    "ag23": "24d127b598c5b241014f2b0bbc61caa4fb8a6ded612585fbc6719ca0df3425be",
    "w_a4": "29f0583b06e189417a3462dd4906aa7081cb6a4a84f39a16e55af5b8ca973a7e",
    "w_d4": "970fcef038d58f4dcf529f18b51437192a4d88436edeb36accd5a4fef19fd94f",
    "3_3_sym4": "68b60e776179a561a6353b4a428d76eb53167990f089dcb8cd2af765ede6385f",
    "ag33": "be8adc0430b969cbc769644450f3d73cdd4b8fe05910248d4793467b1eaa4d9f",
    "su32": "f3039820b7431b8c5b609286a6e93705ed02543c0177fe71e609303942708192",
    "sym4.gens": "11f5baf4d3482db409595d5afc56ae3628d337b44e33fc440bcca159bd39af66",
    "sym5.gens": "894e61423ed53f80e7ca8043e673eccdad230fdfee99647145e1cbca42edadd2",
    "3_2_2.gens": "e3f5de75393b3b2a66a1e3f8df2e463540b8d90c89705661fbff38bf1e03e9be",
    "w_d4.gens": "a4e64906fe77067ea65b4696aaea8a605a7a73572c49c15384d9f4bba55f3a10",
    "3_3_sym4.gens": "f13262f07faa5f14d70fff289402c77b43bda32715053bc9fcf6f7d33a65c531",
    "su32.gens": "2711fc4c1bf601d12b0972193424b989a8debe8990a2562c817d235e6d8942d9",
}


@pytest.mark.parametrize("source", SPACE_JSON_SHA256)
def test_space_json_bytes_pinned(capsys, tmp_path, source):
    arg = source
    if source.endswith(".gens"):
        path = tmp_path / source
        path.write_text(gens_to_text(*preset(source[:-len(".gens")])))
        arg = str(path)
    code, out, _ = run_cli(capsys, "space", "--space", arg)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SPACE_JSON_SHA256[source]


def test_space_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.fischer"
    bad.write_text("fischer 4\n0 1 2\n0 1 3\n")
    code, _, err = run_cli(capsys, "space", "--space", str(bad))
    assert code == 2
    assert err == "error: line 3: lines (0, 1, 2) and (0, 1, 3) share two points 0, 1\n"


def test_space_rejects_a_point_count_the_lines_cannot_cover(capsys, tmp_path):
    big = tmp_path / "big.fischer"
    big.write_text("fischer 1000000\n0 1 2\n")
    assert run_cli(capsys, "space", "--space", str(big)) == (
        2, "", "error: point count 1000000 exceeds 3 times the number of lines (1)\n")


def test_space_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.fischer"
    bad.write_text("fischer 3\nlabel 2\n0 1 2\n")
    code, _, err = run_cli(capsys, "space", "--space", str(bad))
    assert code == 2
    assert err == "error: line 2: expected 'label <index> <text>'\n"
    bad.write_text("fischer 3\nlabel 0 a\n# again\nlabel 0 b\n0 1 2\n")
    assert run_cli(capsys, "space", "--space", str(bad)) == (
        2, "", "error: line 4: point 0 already has a label, on line 2\n")


def test_gens_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.gens"
    bad.write_text("perm 4\n(1 2\n(2 3)\n(3 4)\nseed (1 2)\n")
    code, _, err = run_cli(capsys, "space", "--space", str(bad))
    assert code == 2
    assert err == "error: line 2: bad cycle notation '(1 2'\n"
    bad.write_text("affineperm 0 2\n[1,0 | ()]\nseed [0,0 | ()]\n")
    code, _, err = run_cli(capsys, "space", "--space", str(bad))
    assert code == 2
    assert err == "error: line 1: bad prime '0'\n"
    bad.write_text("perm 4\n(1 2)(2 3)\nseed (1 2)\n")
    code, _, err = run_cli(capsys, "space", "--space", str(bad))
    assert code == 2
    assert err == "error: line 2: letter 2 is in two cycles of '(1 2)(2 3)'\n"
    bad.write_text("affinemat-gf4 3\n[0,0,0 | 1,1,0,1,1,0,0,0,1]\nseed [0,0,0 | 1,0,0,0,1,0,0,0,1]\n")
    code, _, err = run_cli(capsys, "space", "--space", str(bad))
    assert code == 2
    assert err == "error: line 2: the 3x3 matrix is singular\n"
    bad.write_text("perm 0\n()\nseed ()\n")
    code, _, err = run_cli(capsys, "space", "--space", str(bad))
    assert code == 2
    assert err == "error: line 1: bad degree '0'\n"


def test_space_from_gens_su32(capsys, tmp_path):
    gens, seed = preset("su32")
    path = tmp_path / "su32.gens"
    path.write_text(gens_to_text(gens, seed))
    code, out, _ = run_cli(capsys, "space", "--space", str(path))
    assert code == 0
    assert json.loads(out)["n_points"] == 36


def test_decompose_gens_file_matches_catalog(capsys, tmp_path):
    gens, seed = preset("su32")
    path = tmp_path / "su32.gens"
    path.write_text(gens_to_text(gens, seed))
    code, from_gens, _ = run_cli(capsys, "decompose", "--space", str(path),
                                 "--format", "json")
    assert code == 0
    code, from_catalog, _ = run_cli(capsys, "decompose", "--space", "su32",
                                    "--format", "json")
    assert code == 0
    assert json.loads(from_gens)["lines"] == json.loads(from_catalog)["lines"]


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nosuch'" in err
    assert "'paper'" in err and "'families'" in err


def test_seed_outside_the_generated_group_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.gens"
    bad.write_text("perm 4\n(2 3)\n(3 4)\nseed (1 2)\n")
    for argv in (("space", "--space", str(bad)),
                 ("decompose", "--space", str(bad))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == ("error: line 4: d*e*d = (2 3) is not in the class, for "
                       "collinear pair ((1 2), (1 3))\n")


@pytest.mark.parametrize("text, message", [
    ("perm 3\n(1 2)\nseed (1 2 3)\n", "line 3: seed must be an involution"),
    # the reflections of the dihedral group of order 10 on 5 points
    ("perm 5\n(1 2 3 4 5)\n# reflection\nseed (2 5)(3 4)\n",
     "line 4: product order > 3 for pair ((2 5)(3 4), (1 4)(2 3))"),
    # 14535 double transpositions of Sym(20)
    ("perm 20\n(1 2)\n(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20)\n"
     "seed (1 2)(3 4)\n", "line 4: class size exceeds cap 10000"),
    # three commuting involutions: a class with no lines
    ("perm 6\n(1 3)(2 4)\n(3 5)(4 6)\n\nseed (1 2)\n",
     "line 5: point count 3 exceeds 3 times the number of lines (0)"),
    ("perm 4\n(1 2)\n(2 3)\n(3 4)\nseed (1 2)\nseed (1 2)(3 4)\n",
     "line 6: a second seed line; the seed is on line 5"),
    ("perm 4\n(1 2)\n(2 3)\nseeds (1 2)\n",
     "line 4: unknown keyword 'seeds'; the seed line is 'seed <element>'"),
    ("perm 4\n(1 2)\nseed(1 2)\n",
     "line 3: unknown keyword 'seed(1'; the seed line is 'seed <element>'"),
    # a body token that is not an integer, in each model
    ("perm 4\n(1 x)\n(2 3)\nseed (1 2)\n", "line 2: bad letter 'x'"),
    ("affineperm 3 2\n[1,x | ()]\nseed [0,0 | ()]\n", "line 2: bad coordinate 'x'"),
    ("affineperm 3 2\n[1,0 | ()]\nseed [ | ()]\n", "line 3: bad coordinate ''"),
    ("affinemat-gf4 3\n[0,0,0 | 1,0,0,0,1,0,0,0,1,]\nseed [0,0,0 | 1,0,0,0,1,0,0,0,1]\n",
     "line 2: bad matrix entry ''"),
], ids=["not_an_involution", "product_order_5", "class_cap", "no_lines", "second_seed",
        "misspelt_seed", "seed_without_space", "perm_letter", "affineperm_coordinate",
        "affineperm_empty_vector", "affinemat_trailing_comma"])
def test_gens_errors_name_their_file_line(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.gens"
    bad.write_text(text)
    assert run_cli(capsys, "space", "--space", str(bad)) == (2, "", f"error: {message}\n")


def test_decompose_text(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--space", "cq",
                           "--line", "0,1,2")
    assert code == 0
    assert "gen dims (4, 2)" in out
    assert "Z/2Z-graded" in out


def test_decompose_json_schema(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--space", "ag23",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["z2_graded"] is True
    assert len(report["lines"]) == 12
    entry = report["lines"][0]
    assert entry["gen_dims"] == [5, 4]
    assert entry["eigen_dims"] == [4, 4]
    assert entry["semisimple"] is False
    assert set(entry["fusion"]) == {"00", "01", "11"}


# sha256 of the `decompose --space X --format json` stdout of each catalog space
DECOMPOSE_JSON_SHA256 = {
    "cq": "732784a11502b08f8137cd651e8fc72fe0664268e6e83258e6d2409c8090d973",
    "ag23": "893fc841d2c0e52170a8355836b1815babed2b746530a09ed18108a2e02c7b3e",
    "w_a4": "2a49c83da18db6aa1759db52965425d294cdc173a8263656ea58e4c1e117bd56",
    "w_d4": "c49af548f7aa6c07c63d8a72116acdea824d86f00f0045ba70f4a9baec6ec804",
    "3_3_sym4": "e4bcc2b6753da3454c0b05f1f69cc6b2d4e4cb490857d2da5374786a99b8d3f6",
    "ag33": "7cf3c29775dcc4271b8abd636d5ddf3654aee32ec5e71e9851bbc1508fa0aeff",
    "su32": "97ec61b55a0f42db547d1573901beae796fa36938e5375fe5054e86e7d65f11b",
}


@pytest.mark.parametrize("name", fischer.CATALOG_NAMES)
def test_decompose_json_bytes_pinned(capsys, name):
    code, out, _ = run_cli(capsys, "decompose", "--space", name, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_JSON_SHA256[name]


def _decompose_json(capsys, name):
    code, out, _ = run_cli(capsys, "decompose", "--space", name, "--format", "json")
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", fischer.CATALOG_NAMES)
def test_decompose_json_is_invariant_under_relabelling(capsys, monkeypatch, relabelled,
                                                       name, seed):
    """The catalog space renumbered by a seeded permutation reports each line
    as before, once its points are mapped back.  A witness is compared by its
    presence alone: it is the first pair of an echelon basis, and the basis
    follows the point order."""
    expected = _decompose_json(capsys, name)
    catalog = fischer.catalog
    moved, perm = relabelled(catalog(name), f"{seed}:{name}")
    monkeypatch.setattr(fischer, "catalog", lambda n: moved if n == name else catalog(n))
    got = _decompose_json(capsys, name)
    back = {q: p for p, q in enumerate(perm)}

    def unmoved(entry, point=back.__getitem__):
        return dict(entry, line=sorted(map(point, entry["line"])),
                    witness=entry["witness"] is not None)

    got_lines = sorted(map(unmoved, got.pop("lines")), key=lambda e: e["line"])
    assert got_lines == [unmoved(e, int) for e in expected.pop("lines")]
    assert got == expected


def test_decompose_reduced(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--space", "ag23",
                           "--reduced", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 8
    assert all(e["semisimple"] for e in report["lines"])


@pytest.mark.parametrize("line,message", [("0,1,3", "not a line"), ("", "bad --line ''")],
                         ids=["0,1,3", "empty"])
def test_decompose_unknown_line(capsys, line, message):
    code, out, err = run_cli(capsys, "decompose", "--space", "cq", "--line", line)
    assert code == 2
    assert message in err
    assert out == ""


def test_decompose_unknown_space(capsys):
    code, _, err = run_cli(capsys, "decompose", "--space", "nope")
    assert code == 2
    assert "catalog" in err


@pytest.mark.parametrize("field,order", [(2, 48), (3, 448), (4, 3840)])
@pytest.mark.parametrize("reduced", [False, True])
def test_miyamoto_report(capsys, field, order, reduced):
    argv = ["miyamoto", "--field", str(field)] + (["--reduced"] if reduced else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report == {
        "aut_full_order": 96,
        "aut_reduced_order": 24,
        "field_k": field,
        "group_order": order,
        "is_all_s_matrices": True,
        "restriction_injective": True,
    }


def test_miyamoto_refuses_other_spaces(capsys):
    code, _, err = run_cli(capsys, "miyamoto", "--field", "2",
                           "--space", "ag23")
    assert code == 2
    assert "trivial" in err


def test_miyamoto_unknown_space_is_located(capsys):
    code, _, err = run_cli(capsys, "miyamoto", "--field", "2", "--space", "nosuch")
    assert code == 2
    assert "neither a catalog name" in err


@pytest.mark.parametrize("space", ["w_a4", "w_d4"])
def test_miyamoto_refuses_reduced_strong_law_spaces_other_than_cq(capsys, space):
    # every line of the reduced algebra has an empty 1*1 cell; only the
    # quadrilateral's group is computed
    code, _, err = run_cli(capsys, "miyamoto", "--field", "2", "--space", space,
                           "--reduced")
    assert code == 2
    assert "non-empty" not in err
    assert "quadrilateral" in err


def test_miyamoto_space_given_as_fischer_file(capsys, tmp_path, relabelled):
    # the catalog's cq, the same cq with its points renumbered, and the Sym(4)
    # class, whose lines are (0,1,2), (0,3,4), (1,3,5), (2,4,5), all report
    # as the catalog does
    path = tmp_path / "cq.fischer"
    path.write_text(fischer.space_to_text(fischer.catalog("cq")), encoding="utf-8")
    moved = tmp_path / "moved.fischer"
    fischer.save_space(relabelled(fischer.catalog("cq"), 606)[0], moved)
    gens = tmp_path / "sym4.gens"
    gens.write_text(gens_to_text(*preset("sym4")), encoding="utf-8")
    for reduced in ((), ("--reduced",)):
        expected = run_cli(capsys, "miyamoto", "--field", "2", "--space", "cq", *reduced)
        assert expected[0] == 0
        for source in (path, moved, gens):
            assert run_cli(capsys, "miyamoto", "--field", "2", "--space", str(source),
                           *reduced) == expected


def test_aut_reports(capsys):
    code, out, _ = run_cli(capsys, "aut")
    assert code == 0
    report = json.loads(out)
    assert report["aut_full_order"] == 96
    assert report["quadratic_identity"] is True
    code, out, _ = run_cli(capsys, "aut", "--reduced")
    assert code == 0
    assert json.loads(out)["aut_reduced_order"] == 24


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose"])  # missing required --space
    assert exc.value.code == 2


def test_python_dash_m_runs_the_cli():
    src = str(Path(matsuo2.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "matsuo2", "catalog"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "su32" in proc.stdout
