"""Cheap self-tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from matsuo2 import decomp, fischer, matsuo  # noqa: E402


def test_relabelling_round_trip_maps_verdicts_back_exactly():
    for name in ("cq", "ag23", "w_a4", "3_3_sym4"):
        sp = fischer.catalog(name)
        ref = {v.line: workloads.summary(v)
               for v in decomp.classify_space(matsuo.build(sp)).verdicts}
        perm = workloads.shuffled(sp.n_points, workloads.rng_for("test", 7, name))
        inverse = [0] * sp.n_points
        for i, p in enumerate(perm):
            inverse[p] = i
        moved = workloads.relabel(sp, perm)
        assert moved.lines != sp.lines or name == "cq"
        alg = matsuo.build(moved)
        got = {}
        for v in decomp.classify_space(alg).verdicts:
            got[workloads.map_back(v.line, inverse)] = workloads.summary(v)
            assert workloads.witness_problem(alg, v) is None
        assert got == ref
        assert [moved.labels[perm[i]] for i in range(sp.n_points)] == list(sp.labels)


def test_classify_check_matches_reference_and_rejects_a_wrong_verdict():
    spaces = workloads.classify_setup(3, None)
    results = workloads.classify_run(spaces)
    problems, _ = workloads.classify_check(spaces, results)
    assert problems == []
    name, sp, inverse = spaces[0]
    swapped = [(name, sp, list(reversed(inverse)))] + spaces[1:]
    problems, _ = workloads.classify_check(swapped, results)
    assert problems


def test_self_time_of_a_synthetic_nested_span():
    t = spans.Tracer()
    root = t.span("decomp.line_verdict", 0.0, 10.0)
    a = t.span("gf.FieldMatrix.kernel", 1.0, 4.0, root)
    t.span("gf.FieldMatrix.rref", 1.5, 3.5, a)
    t.span("decomp.fusion_table", 5.0, 9.0, root)
    assert t.self_times() == [3.0, 1.0, 2.0, 4.0]
    m = t.metrics()
    assert m["decomp.self_s"] == 7.0
    assert m["gf.self_s"] == 3.0
    assert m["gf.FieldMatrix.kernel.calls"] == 1
    assert m["gf.FieldMatrix.rref.self_s"] == 2.0


def test_speed_factor_is_the_mean_speed_over_the_window():
    ref = speed.K_REF_NS
    samples = [(float(t), ref if t < 5 else 2 * ref) for t in range(10)]
    assert speed.factor(samples, 0.0, 4.5) == 1.0
    assert speed.factor(samples, 5.0, 9.0) == 0.5
    assert speed.factor(samples, 0.0, 9.0) == 0.75
    # a window with too few samples borrows the nearest: t = 7, 6 and 8
    assert speed.factor(samples, 6.9, 7.1) == 0.5


def test_speed_probe_records_samples_and_stops():
    probe = speed.Probe()
    time.sleep(0.3)
    samples = probe.stop()
    assert probe.proc.returncode == 0
    assert len(samples) >= 3
    assert all(k > 0 for _, k in samples)
    assert 0 < speed.factor(samples, samples[0][0], samples[-1][0]) < 10


def test_tracer_wraps_library_and_reports_missing_names_as_absent(monkeypatch):
    attrs, moves = spans.LAYERS["fischer"]
    monkeypatch.setitem(spans.LAYERS, "fischer", (attrs + ("_deleted_helper",), moves))
    t = spans.Tracer()
    t.install()
    try:
        gv = decomp.classify_space(matsuo.build(fischer.catalog("ag23")))
    finally:
        t.uninstall()
    assert not hasattr(fischer.validate, "__wrapped__")
    assert gv.graded
    assert t.absent == ["fischer._deleted_helper"]
    m = t.metrics()
    assert set(m) == set(spans.metric_names())
    assert m["trace.absent"] == 1
    assert m["fischer.catalog.calls"] == 1
    assert m["decomp.line_verdict.calls"] == 12
    assert m["fischer._generated_subspace_capped.calls"] > 0
    assert 0 < m["fischer.capped_closure.useful_ratio"] <= 1
    # spans nest: every decompose_line span has a line_verdict parent
    lv = t.name_ids["decomp.line_verdict"]
    for sid, nid in enumerate(t.span_name):
        if nid == t.name_ids["decomp.decompose_line"]:
            assert t.span_name[t.span_parent[sid]] == lv


def test_hall_generator_yields_1080_lines_closed_under_the_product():
    lines = workloads.hall_lines()
    assert len(lines) == 1080
    for line in lines:
        for x, y in itertools.permutations(line, 2):
            assert workloads.hall_op(x, y) in line and workloads.hall_op(x, y) not in (x, y)
    pairs = {frozenset(p) for line in lines for p in itertools.combinations(line, 2)}
    assert len(pairs) == 81 * 80 // 2
    assert workloads.hall_closure(workloads.HALL_WITNESS_LINE) == frozenset(
        workloads.HALL_WITNESS_LINE)


def test_hall_setup_is_seeded_and_labels_match_coordinates():
    a = workloads.hall_setup(5, None)
    b = workloads.hall_setup(5, None)
    c = workloads.hall_setup(6, None)
    assert a["text"] == b["text"] and a["verdict_lines"] == b["verdict_lines"]
    assert a["text"] != c["text"]
    labels = {}
    for row in a["text"].splitlines():
        if row.startswith("label "):
            _, i, lab = row.split()
            labels[int(i)] = lab
    assert all(labels[i] == workloads.hall_label(c) for c, i in a["index"].items())
    assert len(a["verdict_lines"]) == 1 + workloads.HALL_SAMPLE
    assert all(t in a["lines"] for t in a["verdict_lines"])


def test_benchmark_json_names_exist_in_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == spans.metric_names()
    assert all(m["unit"] == spans.unit(m["name"]) for m in bench["per_layer"])
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hall81", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
