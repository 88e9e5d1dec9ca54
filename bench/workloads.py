"""Benchmark workloads: seeded inputs, one timed pass each, and their oracle checks.

Run as a child process by bench/run.py, one process per pass:

    python3 bench/workloads.py <workload> <seed> <setup|pass|trace> <spawn_clock> <scratch_dir>

The child builds its inputs from the seed (set-up), times one pass through
matsuo2's public entry points, checks the outputs and prints one JSON line.
`spawn_clock` is the parent's `time.monotonic()` just before the spawn.  The
child reports its CPU seconds for set-up (interpreter start, `import matsuo2`
and input generation) and for the pass, each with its monotonic window, so
the parent can scale them by the speed the probe (bench/speed.py) measured.
In `setup` mode the child stops after set-up; in `trace` mode it wraps the
library's functions (bench/spans.py) before the pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import matsuo2
from matsuo2 import cli, decomp, fischer, matsuo, miyamoto

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Spaces whose algebras are Z/2Z-graded: the symplectic ones and the affine plane.
GRADED = {"cq", "ag23", "w_a4", "w_d4"}
# The one paper claim documented to fail (README, "Known discrepancy").
EXPECTED_FAILURE = "decomp.witness_su32"
# Line verdicts per hall81 pass besides the witness line; each costs about 0.1 s.
HALL_SAMPLE = 8
HALL_WITNESS_LINE = ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0))
HALL_WITNESS_U = ((0, 1, 0, 0), (1, 1, 0, 0))
HALL_WITNESS_V = ((0, 0, 0, 1), (1, 0, 0, 1))
MIYAMOTO_FIELDS = (2, 3, 4)


def load_reference() -> dict:
    """Outputs recorded at the commit that defined the benchmark (bench/reference.py)."""
    return json.loads((HERE / "reference.json").read_text())


def rng_for(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


# -- seeded inputs ---------------------------------------------------------------


def shuffled(n: int, rng: random.Random) -> list[int]:
    """A permutation: point i is renamed perm[i]."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(space, perm):
    """The same space with point i renamed perm[i], re-validated from scratch."""
    lines = [tuple(sorted(perm[p] for p in t)) for t in space.lines]
    labels = [None] * space.n_points
    for i, lab in enumerate(space.labels):
        labels[perm[i]] = lab
    return fischer.validate(space.n_points, lines, labels=labels, meta=space.meta)


def map_back(line, inverse) -> tuple[int, int, int]:
    return tuple(sorted(inverse[p] for p in line))


def hall_op(x, y):
    """Hall's product on F_3^4: x o y = -x - y + (0, 0, 0, (x3 - y3)(x1 y2 - x2 y1))."""
    twist = (x[2] - y[2]) * (x[0] * y[1] - x[1] * y[0])
    return (
        (-x[0] - y[0]) % 3,
        (-x[1] - y[1]) % 3,
        (-x[2] - y[2]) % 3,
        (-x[3] - y[3] + twist) % 3,
    )


HALL_POINTS = tuple(itertools.product(range(3), repeat=4))


def hall_lines() -> list[tuple]:
    """The 1080 lines {x, y, x o y} of Hall's 81-point triple system, as coordinates."""
    seen = set()
    out = []
    for i, x in enumerate(HALL_POINTS):
        for y in HALL_POINTS[i + 1:]:
            line = tuple(sorted((x, y, hall_op(x, y))))
            if line not in seen:
                seen.add(line)
                out.append(line)
    return out


def hall_closure(points) -> frozenset:
    """Closure of a coordinate set under x o y, computed without the library."""
    pts = set(points)
    frontier = list(pts)
    while frontier:
        new = []
        for x in frontier:
            for y in list(pts):
                if x != y:
                    z = hall_op(x, y)
                    if z not in pts:
                        pts.add(z)
                        new.append(z)
        frontier = new
    return frozenset(pts)


def hall_label(c) -> str:
    return "[" + ",".join(str(d) for d in c) + "]"


def hall_text(index: dict, lines) -> str:
    """The space as `.fischer` text; `index` maps coordinates to point numbers."""
    out = [f"fischer {len(index)}"]
    for c, i in sorted(index.items(), key=lambda item: item[1]):
        out.append(f"label {i} {hall_label(c)}")
    triples = sorted(tuple(sorted(index[c] for c in line)) for line in lines)
    out += [f"{a} {b} {c}" for a, b, c in triples]
    return "\n".join(out) + "\n"


# -- shared checks -----------------------------------------------------------------


def summary(verdict) -> list:
    """The label-independent part of a line verdict."""
    d = verdict.decomposition
    return [list(d.gen_dims()), [d.eigen0_dim, d.eigen1_dim], d.semisimple,
            verdict.fusion.to_json_dict(), verdict.z2_graded]


def witness_problem(alg, verdict):
    """Re-check an ungraded line's witness with multiply and component_flags."""
    if verdict.z2_graded:
        return None if verdict.witness is None else "graded line carries a witness"
    w = verdict.witness
    if w is None:
        return "ungraded line without a witness"
    dec = verdict.decomposition
    if dec.component_flags(w.u) != (False, True) or dec.component_flags(w.v) != (False, True):
        return "witness factor outside the 1-part"
    if matsuo.multiply(alg, w.u, w.v) != w.product:
        return "witness product differs from multiply"
    if not dec.component_flags(w.product)[1]:
        return "witness product has no 1-component"
    return None


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- workloads ---------------------------------------------------------------------
#
# Each workload is (setup, run, check, units).  setup(seed, scratch) -> state is
# untimed; run(state) -> result is the timed pass; check(state, result) returns
# (problems, digest), where digest must agree across the passes of one run.


def paper_suite_setup(seed, scratch):
    return {"out": scratch / "suite.json"}


def paper_suite_run(state):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify", "--suite", "paper", "--out", str(state["out"])])


def paper_suite_check(state, exit_code):
    raw = state["out"].read_bytes()
    state["out"].unlink()
    report = json.loads(raw)
    status = {c["id"]: c["status"] for c in report["claims"]}
    failing = {cid for cid, s in status.items() if s == "fail"}
    problems = [f"claim {cid} fails" for cid in sorted(failing - {EXPECTED_FAILURE})]
    problems += [
        f"claim {cid} passed at the reference commit, now {status.get(cid, 'missing')}"
        for cid in load_reference()["paper_suite"]["passing"]
        if status.get(cid) != "pass"
    ]
    if exit_code != (1 if failing else 0):
        problems.append(f"exit code {exit_code} with failing claims {sorted(failing)}")
    return problems, hashlib.sha256(raw).hexdigest()


def classify_setup(seed, scratch):
    spaces = []
    for name in fischer.CATALOG_NAMES:
        sp = fischer.catalog(name)
        perm = shuffled(sp.n_points, rng_for("classify_catalog", seed, name))
        inverse = [0] * sp.n_points
        for i, p in enumerate(perm):
            inverse[p] = i
        spaces.append((name, relabel(sp, perm), inverse))
    return spaces


def classify_run(spaces):
    out = []
    for name, sp, _ in spaces:
        alg = matsuo.build(sp)
        out.append((alg, decomp.classify_space(alg)))
    return out


def classify_check(spaces, results):
    reference = load_reference()["classify_catalog"]
    problems = []
    mapped = {}
    for (name, _, inverse), (alg, gv) in zip(spaces, results):
        ref = reference[name]
        lines = {}
        for v in gv.verdicts:
            key = ",".join(map(str, map_back(v.line, inverse)))
            lines[key] = summary(v)
            bad = witness_problem(alg, v)
            if bad:
                problems.append(f"{name} line {v.line}: {bad}")
        if lines != ref["lines"]:
            diff = sorted(k for k in set(lines) | set(ref["lines"])
                          if lines.get(k) != ref["lines"].get(k))
            problems.append(f"{name}: verdicts differ from the reference on lines {diff[:5]}")
        good = sorted(list(map_back(t, inverse)) for t in gv.good_lines)
        if good != ref["good_lines"]:
            problems.append(f"{name}: good lines differ from the reference")
        if gv.graded != (name in GRADED):
            problems.append(f"{name}: graded {gv.graded}")
        mapped[name] = lines
    return problems, digest(mapped)


def hall_setup(seed, scratch):
    rng = rng_for("hall81", seed, "relabel")
    perm = shuffled(len(HALL_POINTS), rng)
    index = {c: perm[i] for i, c in enumerate(HALL_POINTS)}
    lines = hall_lines()
    witness = tuple(sorted(index[c] for c in HALL_WITNESS_LINE))
    others = [t for t in lines if set(t) != set(HALL_WITNESS_LINE)]
    sample = [tuple(sorted(index[c] for c in t)) for t in rng.sample(others, HALL_SAMPLE)]
    while True:  # a 4-point seed that generates everything, by the oracle closure
        gen_seed = rng.sample(HALL_POINTS, 4)
        if len(hall_closure(gen_seed)) == len(HALL_POINTS):
            break
    return {
        "text": hall_text(index, lines),
        "index": index,
        "lines": {tuple(sorted(index[c] for c in t)) for t in lines},
        "verdict_lines": [witness] + sample,
        "gen_seed": [index[c] for c in gen_seed],
    }


def hall_run(state):
    sp = fischer.parse_space(state["text"])
    alg = matsuo.build(sp)
    return sp, alg, [decomp.line_verdict(alg, t) for t in state["verdict_lines"]]


def hall_check(state, result):
    sp, alg, verdicts = result
    index = state["index"]
    problems = []
    if (sp.n_points, len(sp.lines)) != (81, 1080) or set(sp.lines) != state["lines"]:
        problems.append(f"parsed {sp.n_points} points and {len(sp.lines)} lines")
    if any(sp.labels[i] != hall_label(c) for c, i in index.items()):
        problems.append("point labels do not match their coordinates")
    if fischer.is_symplectic_type(sp):
        problems.append("space reported as symplectic")
    if len(fischer.generated_subspace(sp, state["gen_seed"])) != 81:
        problems.append(f"seed {state['gen_seed']} does not generate all 81 points")
    expected = load_reference()["hall81"]["line_summary"]
    for v in verdicts:
        if summary(v) != expected:
            problems.append(f"line {v.line}: verdict {summary(v)}")
        bad = witness_problem(alg, v)
        if bad:
            problems.append(f"line {v.line}: {bad}")
    dec = verdicts[0].decomposition
    u = (1 << index[HALL_WITNESS_U[0]]) ^ (1 << index[HALL_WITNESS_U[1]])
    v = (1 << index[HALL_WITNESS_V[0]]) ^ (1 << index[HALL_WITNESS_V[1]])
    if dec.component_flags(u) != (False, True) or dec.component_flags(v) != (False, True):
        problems.append("recorded witness factors are not in the 1-part")
    elif dec.component_flags(matsuo.multiply(alg, u, v)) != (False, True):
        problems.append("recorded witness product does not land in the 1-part")
    return problems, digest([summary(v) for v in verdicts])


def miyamoto_setup(seed, scratch):
    return None


def miyamoto_run(state):
    return (
        [miyamoto.verify_cq_miyamoto(k) for k in MIYAMOTO_FIELDS],
        miyamoto.aut_count_full(),
        miyamoto.aut_enumerate_reduced(),
        miyamoto.aut_reduced_unconstrained(),
    )


def miyamoto_check(state, result):
    reports, full, reduced, sweep = result
    problems = []
    for k, rep in zip(MIYAMOTO_FIELDS, reports):
        order = (1 << (2 * k)) * ((1 << k) - 1)
        if (rep.group_order, rep.reduced_group_order) != (order, order):
            problems.append(f"k={k}: orders {rep.group_order}, {rep.reduced_group_order}")
    if (full.order, full.reduced_order, reduced.size()) != (96, 24, 24):
        problems.append(f"automorphism orders {full.order}, {reduced.size()}")
    if not full.sets_agree:
        problems.append("block-built automorphisms disagree with the enumeration")
    if sweep != reduced.elements:
        problems.append("unconstrained sweep disagrees with the constrained enumeration")
    return problems, digest([[r.group_order for r in reports], full.order, len(sweep)])


WORKLOADS = {
    # claims per pass
    "paper_suite": (paper_suite_setup, paper_suite_run, paper_suite_check, 32),
    # line verdicts per pass
    "classify_catalog": (classify_setup, classify_run, classify_check, 393),
    # input lines validated per pass
    "hall81": (hall_setup, hall_run, hall_check, 1080),
    # group elements closed per pass: 48 + 448 + 3840
    "miyamoto_gf16": (miyamoto_setup, miyamoto_run, miyamoto_check, 4336),
}


def main(argv) -> int:
    workload, seed, mode, spawn_clock, scratch = argv
    out = {"ok": False}
    try:
        if not Path(matsuo2.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"matsuo2 imported from {matsuo2.__file__}, not this checkout")
        setup, run, check, units = WORKLOADS[workload]
        state = setup(int(seed), Path(scratch))
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading compares.
        # The parent turns CPU seconds into reference seconds over each window.
        out["setup_cpu_s"] = time.process_time()
        out["setup_window"] = [float(spawn_clock), time.monotonic()]
        if mode == "setup":
            out["ok"] = True
        else:
            tracer = None
            if mode == "trace":
                from spans import Tracer

                tracer = Tracer()
                tracer.install()
            w0, c0 = time.monotonic(), time.process_time()
            result = run(state)
            out["run_cpu_s"] = time.process_time() - c0
            out["run_window"] = [w0, time.monotonic()]
            if tracer is not None:
                tracer.uninstall()  # the check below is not part of the pass
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out["units"] = units
            problems, out["digest"] = check(state, result)
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            out["ok"] = not problems
            if tracer is not None:
                out["layers"] = tracer.metrics()
                tracer.write(ROOT / ".bench_build" / "trace", f"{workload}-{seed}")
    except Exception:
        traceback.print_exc()
    print(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
