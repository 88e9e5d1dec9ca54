import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matsuo2
from matsuo2 import cli, transposition
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
    code, _, _ = run_cli(capsys, "space", "--from-catalog", "w_a4",
                         "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["n_points"] == 10
    assert report["symplectic"] is True
    assert len(report["line_census"]) == 10
    assert report["line_census"][0]["p2"] == 6


def test_space_source_exclusive(capsys):
    code, _, err = run_cli(capsys, "space")
    assert code == 2
    assert "exactly one" in err


def test_space_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.fischer"
    bad.write_text("fischer 4\n0 1 2\n0 1 3\n")
    code, _, err = run_cli(capsys, "space", "--from-file", str(bad))
    assert code == 2
    assert "share two points" in err


def test_space_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.fischer"
    bad.write_text("fischer 3\nlabel 2\n0 1 2\n")
    code, _, err = run_cli(capsys, "space", "--from-file", str(bad))
    assert code == 2
    assert err == "error: line 2: expected 'label <index> <text>'\n"


def test_gens_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.gens"
    bad.write_text("perm 4\n(1 2\n(2 3)\n(3 4)\nseed (1 2)\n")
    code, _, err = run_cli(capsys, "space", "--from-gens", str(bad))
    assert code == 2
    assert err == "error: line 2: bad cycle notation '(1 2'\n"
    bad.write_text("affineperm 0 2\n[1,0 | ()]\nseed [0,0 | ()]\n")
    code, _, err = run_cli(capsys, "space", "--from-gens", str(bad))
    assert code == 2
    assert err == "error: line 1: bad prime '0'\n"
    bad.write_text("perm 4\n(1 2)(2 3)\nseed (1 2)\n")
    code, _, err = run_cli(capsys, "space", "--from-gens", str(bad))
    assert code == 2
    assert err == "error: line 2: letter 2 is in two cycles of '(1 2)(2 3)'\n"
    bad.write_text("affinemat-gf4 3\n[0,0,0 | 1,1,0,1,1,0,0,0,1]\nseed [0,0,0 | 1,0,0,0,1,0,0,0,1]\n")
    code, _, err = run_cli(capsys, "space", "--from-gens", str(bad))
    assert code == 2
    assert err == "error: line 2: the 3x3 matrix is singular\n"


def test_space_from_gens_su32(capsys, tmp_path):
    gens, seed = preset("su32")
    path = tmp_path / "su32.gens"
    path.write_text(gens_to_text(gens, seed))
    code, out, _ = run_cli(capsys, "space", "--from-gens", str(path))
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


@pytest.mark.parametrize("content", [None, "fischer 4\n0 1 2\n0 1 3\n"],
                         ids=["missing", "malformed"])
def test_verify_bad_hall_data_is_a_usage_error(capsys, tmp_path, content):
    data = tmp_path / "hall.fischer"
    if content is not None:
        data.write_text(content)
    out_path = tmp_path / "R.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "paper",
                             "--hall-data", str(data), "--out", str(out_path))
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    assert not out_path.exists()


def test_seed_outside_the_generated_group_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.gens"
    bad.write_text("perm 4\n(2 3)\n(3 4)\nseed (1 2)\n")
    for argv in (("space", "--from-gens", str(bad)),
                 ("decompose", "--space", str(bad)),
                 ("verify", "--suite", "paper", "--hall-data", str(bad))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == ("error: d*e*d = (2 3) is not in the class, for "
                       "collinear pair ((1 2), (1 3))\n")


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


def test_decompose_reduced(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--space", "ag23",
                           "--reduced", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 8
    assert all(e["semisimple"] for e in report["lines"])


def test_decompose_unknown_line(capsys):
    code, _, err = run_cli(capsys, "decompose", "--space", "cq",
                           "--line", "0,1,3")
    assert code == 2
    assert "not a line" in err


def test_decompose_unknown_space(capsys):
    code, _, err = run_cli(capsys, "decompose", "--space", "nope")
    assert code == 2
    assert "catalog" in err


def test_miyamoto_report(capsys):
    code, out, _ = run_cli(capsys, "miyamoto", "--field", "2")
    assert code == 0
    report = json.loads(out)
    assert report == {
        "aut_full_order": 96,
        "aut_reduced_order": 24,
        "field_k": 2,
        "group_order": 48,
        "is_all_s_matrices": True,
        "restriction_injective": True,
    }


def test_miyamoto_refuses_other_spaces(capsys):
    code, _, err = run_cli(capsys, "miyamoto", "--field", "2",
                           "--space", "ag23")
    assert code == 2
    assert "trivial" in err


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
