"""Outside-in tracing of matsuo2: wrappers installed with setattr, spans in memory.

Each wrapped function records one span per call: its name, start, end and
parent span.  The wrappers replace the module (or class) attributes, so calls
made inside a module, which resolve through that module's globals, are traced
too.  Spans live in flat arrays while the pass runs and are written out once,
at the end, by `Tracer.write`.  Nothing in the library is edited.

`LAYERS` is the single list of what is wrapped.  Each entry also names the
end-to-end metrics and workloads it should move, so a later change can cite
the prediction it tests.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path
from statistics import median

# module -> (wrapped attributes, {end-to-end metric: [workloads it should move]})
LAYERS = {
    "cli": (("main",), {"run_s": ["paper_suite"]}),
    "fischer": (
        ("validate", "parse_space", "catalog", "plane_type", "generated_subspace",
         "_generated_subspace_capped", "_lines_inside", "points_p0_p2",
         "cqs_through_line", "affine_planes_through_line"),
        {"run_s": ["paper_suite", "hall81"]},
    ),
    "transposition": (
        ("conjugacy_class", "fischer_from_class"),
        {"run_s": ["paper_suite"], "setup_s": ["classify_catalog"]},
    ),
    "matsuo": (
        ("build", "multiply", "ad_matrix", "predict_point_line",
         "predict_line_line", "annihilator"),
        {"run_s": ["paper_suite"]},
    ),
    "decomp": (
        ("decompose_line", "fusion_table", "line_verdict", "classify_space",
         "cq_pair_case"),
        {"run_s": ["classify_catalog", "hall81", "paper_suite"]},
    ),
    "gf": (
        ("FieldMatrix.kernel", "FieldMatrix.rref", "FieldMatrix.__mul__",
         "FieldMatrix.__pow__", "FieldMatrix.inverse", "FieldMatrix.matvec"),
        {"run_s": ["classify_catalog", "miyamoto_gf16"]},
    ),
    "miyamoto": (
        ("group_closure", "verify_cq_miyamoto", "miyamoto_map",
         "aut_enumerate_reduced", "aut_reduced_unconstrained", "aut_count_full"),
        {"run_s": ["miyamoto_gf16"]},
    ),
    "verify": ((), {"run_s": ["paper_suite"]}),
}

# The claims of `matsuo2 verify --suite paper` at the commit that defined this
# benchmark; each gets a `verify.claim.<id>.s` metric.
CLAIM_IDS = (
    "catalog.point_counts", "catalog.symplectic_flags", "catalog.line_counts",
    "oracle.point_line", "oracle.line_line", "oracle.point_products_on_line",
    "algebra.square_zero_random", "algebra.annihilator",
    "algebra.ad_point_square_zero", "algebra.ad_line_idempotent",
    "decomp.cq_dims", "decomp.cq_fusion", "decomp.affine_plane",
    "decomp.affine_plane_reduced", "decomp.grading_biconditional",
    "decomp.witness_3_3_sym4", "decomp.witness_ag33", "decomp.witness_su32",
    "decomp.witness_hall", "decomp.good_lines_3_3_sym4",
    "fischer.p0_wedge_closure", "fischer.converse_p0", "decomp.cq_pairs_w_a4",
    "decomp.cq_pairs_w_d4", "miyamoto.closure_gf4", "miyamoto.closure_gf8",
    "miyamoto.gf2_trivial", "miyamoto.tau_formula",
    "miyamoto.characters_compose", "miyamoto.s_matrix_law",
    "aut.reduced_order_24", "aut.full_order_96",
)

# Wasted-work ratios: useful outcomes of a function divided by its attempts.
CAPPED = "fischer._generated_subspace_capped"
CLOSURE = "miyamoto.group_closure"
MATMUL = "gf.FieldMatrix.__mul__"
USEFUL = {
    CAPPED: lambda result: result is not None,
    CLOSURE: lambda result: len(result.elements),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, (attrs, _) in LAYERS.items():
        names.append(f"{module}.self_s")
        for attr in attrs:
            names += [f"{module}.{attr}.calls", f"{module}.{attr}.self_s"]
    names += [f"verify.claim.{cid}.s" for cid in CLAIM_IDS]
    names += ["fischer.capped_closure.useful_ratio",
              "miyamoto.closure.useful_ratio",
              "trace.run_s", "trace.absent"]
    return names


def unit(name: str) -> str:
    """The unit of a per-layer metric, as BENCHMARK.json declares it."""
    if name.endswith((".calls", ".absent")):
        return "count"
    return "ratio" if name.endswith("_ratio") else "s"


class Tracer:
    """Span recorder; `install` wraps the library, `metrics` reduces the spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.useful: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, useful=None):
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter
        self.useful.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if useful is not None:
                self.useful[name] += useful(result)
            return result

        return traced

    def span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly; used to build synthetic traces."""
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def _patch(self, owner, attr: str, name: str) -> None:
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, USEFUL.get(name)))

    def install(self) -> None:
        """Wrap every function named in LAYERS and every suite claim."""
        for module, (attrs, _) in LAYERS.items():
            mod = importlib.import_module(f"matsuo2.{module}")
            for attr in attrs:
                owner = mod
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                self._patch(owner, leaf, f"{module}.{attr}")
        verify = importlib.import_module("matsuo2.verify")
        present = {cid for cid, _ in verify.CLAIMS}
        self.absent += [f"verify.claim.{cid}" for cid in CLAIM_IDS if cid not in present]
        self._patched.append((verify, "CLAIMS", verify.CLAIMS))
        verify.CLAIMS = tuple(
            (cid, self.wrap(f"verify.claim.{cid}", fn)) for cid, fn in verify.CLAIMS
        )

    def uninstall(self) -> None:
        """Put back every attribute `install` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= dur[sid]
        return own

    def _has_ancestor(self, sid: int, nid: int) -> bool:
        parent = self.span_parent[sid]
        while parent >= 0:
            if self.span_name[parent] == nid:
                return True
            parent = self.span_parent[parent]
        return False

    def metrics(self) -> dict[str, float]:
        """Per-layer values of one traced pass, keyed as in metric_names()."""
        own = self.self_times()
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        for sid, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += own[sid]
            total[nid] += self.end[sid] - self.start[sid]
        out = {name: 0.0 for name in metric_names()}
        for nid, name in enumerate(self.names):
            module = name.split(".", 1)[0]
            out[f"{module}.self_s"] += self_s[nid]
            if name.startswith("verify.claim."):
                key = f"{name}.s"
                if key in out:
                    out[key] = total[nid]
            elif f"{name}.calls" in out:
                out[f"{name}.calls"] = calls[nid]
                out[f"{name}.self_s"] = self_s[nid]
        if CAPPED in self.name_ids and calls[self.name_ids[CAPPED]]:
            out["fischer.capped_closure.useful_ratio"] = (
                self.useful[CAPPED] / calls[self.name_ids[CAPPED]]
            )
        if CLOSURE in self.name_ids and MATMUL in self.name_ids:
            closure, matmul = self.name_ids[CLOSURE], self.name_ids[MATMUL]
            inside = sum(
                1 for sid, nid in enumerate(self.span_name)
                if nid == matmul and self._has_ancestor(sid, closure)
            )
            if inside:
                out["miyamoto.closure.useful_ratio"] = self.useful[CLOSURE] / inside
        out["trace.absent"] = len(self.absent)
        return out

    def write(self, directory: Path, stem: str) -> None:
        """Write the spans (binary arrays) and an index of names and absences."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.start, self.end):
                arr.tofile(fh)
        index = {
            "spans": len(self.start),
            "names": self.names,
            "absent": self.absent,
            "layout": "int32 name[spans], int32 parent[spans], "
                      "float64 start[spans], float64 end[spans]",
        }
        (directory / f"{stem}.json").write_text(json.dumps(index, indent=1) + "\n")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Per-name median over the traced passes of one run."""
    return {name: median(p[name] for p in per_pass) for name in metric_names()}
