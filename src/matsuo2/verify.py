"""The claim verification suites behind `matsuo2 verify --suite NAME`.

Each claim is an independent check of one finite statement.  The `paper`
suite covers the catalog spaces and their algebras: point counts, the
combinatorial product oracles, the decomposition dimensions and fusion laws,
the grading biconditional with its explicit counterexample witnesses, the
quadrilateral dichotomy, and the Miyamoto/automorphism group structure.  The
`families` suite covers spaces outside the catalog: Hall's 81-point space.
Each suite is deterministic, so its JSON report is byte-identical across runs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import decomp, fischer, matsuo, miyamoto, transposition
from .gf import Field, FieldMatrix, lift_matrix, vec_scale

GF2 = matsuo.GF2

EXPECTED_POINTS = {
    "cq": 6, "ag23": 9, "w_a4": 10, "w_d4": 12,
    "3_3_sym4": 18, "ag33": 27, "su32": 36,
}
EXPECTED_SYMPLECTIC = {
    "cq": True, "ag23": False, "w_a4": True, "w_d4": True,
    "3_3_sym4": False, "ag33": False, "su32": False,
}


class SuiteContext:
    """Shared immutable artifacts for the paper claims; built once per run."""

    def __init__(self) -> None:
        self.spaces = {name: fischer.catalog(name) for name in fischer.CATALOG_NAMES}
        self.algebras = {name: matsuo.build(sp) for name, sp in self.spaces.items()}
        self.reduced = {name: matsuo.reduce(a) for name, a in self.algebras.items()}
        self._verdicts: dict = {}
        self._aut = None

    def verdict(self, name: str) -> decomp.GradingVerdict:
        if name not in self._verdicts:
            self._verdicts[name] = decomp.classify_space(self.algebras[name])
        return self._verdicts[name]

    def aut(self) -> miyamoto.AutFullReport:
        """The quadrilateral's Aut report; it carries the quotient's group too."""
        if self._aut is None:
            self._aut = miyamoto.aut_count_full()
        return self._aut


class FamiliesContext:
    """The spaces of the families claims, built from their formulas."""

    def __init__(self) -> None:
        self.hall_space = fischer.hall81()


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    status: str  # pass | fail | skipped
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    results: tuple[ClaimResult, ...]

    def counts(self) -> tuple[int, int, int]:
        n = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.results:
            n[r.status] += 1
        return n["pass"], n["fail"], n["skipped"]

    @property
    def exit_code(self) -> int:
        return 1 if any(r.status == "fail" for r in self.results) else 0

    def to_json_dict(self) -> dict:
        n_pass, n_fail, n_skipped = self.counts()
        return {
            "suite": self.suite,
            "n_pass": n_pass,
            "n_fail": n_fail,
            "n_skipped": n_skipped,
            "claims": [
                {"id": r.claim_id, "status": r.status, "detail": r.detail}
                for r in self.results
            ],
        }

    def format_text(self) -> str:
        lines = []
        for r in self.results:
            tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r.status]
            lines.append(f"{tag:4s} {r.claim_id}: {r.detail}")
        n_pass, n_fail, n_skipped = self.counts()
        lines.append(f"---- {n_pass} passed, {n_fail} failed, {n_skipped} skipped")
        return "\n".join(lines)


def _ok(detail: str) -> tuple[str, str]:
    return ("pass", detail)


def _bad(detail: str) -> tuple[str, str]:
    return ("fail", detail)


# -- individual claims -------------------------------------------------------------


def claim_catalog_point_counts(ctx):
    got = {name: sp.n_points for name, sp in ctx.spaces.items()}
    if got != EXPECTED_POINTS:
        return _bad(f"point counts {got}")
    return _ok("6, 9, 10, 12, 18, 27, 36")


def claim_catalog_symplectic_flags(ctx):
    for name, sp in ctx.spaces.items():
        computed = fischer.is_symplectic_type(sp)
        if computed != EXPECTED_SYMPLECTIC[name] or computed != sp.meta.symplectic:
            return _bad(f"{name}: computed {computed}, declared {sp.meta.symplectic}")
    return _ok("symplectic exactly for cq, w_a4, w_d4")


def claim_catalog_line_counts(ctx):
    counts = []
    for name, sp in ctx.spaces.items():
        recount = sum(m.bit_count() for m in sp.collinear)
        if recount != 6 * len(sp.lines):
            return _bad(f"{name}: {len(sp.lines)} lines vs incidence recount {recount / 6}")
        counts.append(f"{name}={len(sp.lines)}")
    return _ok(" ".join(counts))


def claim_oracle_point_line(ctx):
    total = 0
    for name, sp in ctx.spaces.items():
        alg = ctx.algebras[name]
        nils = [(t, matsuo.line_nilpotent(alg, t), matsuo.predict_point_row(sp, t))
                for t in sp.lines]
        for x in range(sp.n_points):
            for t, ln, row in nils:
                if matsuo.multiply(alg, 1 << x, ln) != row[x]:
                    return _bad(f"{name}: point {x}, line {t}")
                total += 1
    return _ok(f"{total} point*line products agree")


def claim_oracle_line_line(ctx):
    total = 0
    for name, sp in ctx.spaces.items():
        alg = ctx.algebras[name]
        nils = [(t, matsuo.line_nilpotent(alg, t)) for t in sp.lines]
        for t1, n1 in nils:
            row = matsuo.predict_line_row(sp, t1)
            for (t2, n2), want in zip(nils, row):
                if matsuo.multiply(alg, n1, n2) != want:
                    return _bad(f"{name}: lines {t1}, {t2}")
                total += 1
    return _ok(f"{total} line*line products agree")


def claim_square_zero_random(ctx):
    rng = random.Random(0x5EED)
    for name, alg in ctx.algebras.items():
        for _ in range(1000):
            u = rng.randrange(1 << alg.dim)
            if matsuo.multiply(alg, u, u) != 0:
                return _bad(f"{name}: element {u:#x} has nonzero square")
    return _ok("1000 random squares vanish per algebra")


def claim_annihilator(ctx):
    for name, alg in ctx.algebras.items():
        basis = matsuo.annihilator(alg)  # raises if not <s>
        if len(basis) != 1:
            return _bad(f"{name}: annihilator dimension {len(basis)}")
        matsuo.annihilator(ctx.reduced[name])  # raises if nontrivial
    return _ok("Ann(A) is the all-points line, Ann(A') trivial")


def claim_ad_point_square_zero(ctx):
    for name, alg in ctx.algebras.items():
        for x in range(alg.dim):
            ad = matsuo.ad_matrix(alg, 1 << x)
            if not (ad * ad).is_zero():
                return _bad(f"{name}: ad of point {x} does not square to zero")
    return _ok("ad_x^2 = 0 for every point of every space")


def claim_ad_line_idempotent(ctx):
    for name, sp in ctx.spaces.items():
        alg = ctx.algebras[name]
        failures = 0
        for t in sp.lines:
            ad = matsuo.ad_matrix(alg, matsuo.line_nilpotent(alg, t))
            if ad * ad != ad:
                failures += 1
        if fischer.is_symplectic_type(sp) and failures:
            return _bad(f"{name}: {failures} non-idempotent line operators")
        if not fischer.is_symplectic_type(sp) and not failures:
            return _bad(f"{name}: all line operators idempotent despite affine planes")
    return _ok("ad line idempotent exactly on symplectic-type spaces")


def claim_cq_decomposition(ctx):
    alg = ctx.algebras["cq"]
    one_parts = []
    for v in ctx.verdict("cq").verdicts:
        d = v.decomposition
        if d.gen_dims() != (4, 2) or not d.semisimple:
            return _bad(f"line {v.line}: dims {d.gen_dims()}, semisimple {d.semisimple}")
        one_parts.append(d.basis1)
    if any(b != one_parts[0] for b in one_parts):
        return _bad("1-eigenspaces differ between lines")
    return _ok("dims (4,2) per line, common 2-dimensional 1-part")


def claim_cq_fusion(ctx):
    for v in ctx.verdict("cq").verdicts:
        if v.fusion.entry(1, 1) != frozenset():
            return _bad(f"line {v.line}: 1*1 = {sorted(v.fusion.entry(1, 1))}")
        if not v.z2_graded:
            return _bad(f"line {v.line} not graded")
    return _ok("1*1 cell empty on all 4 lines (integer grading)")


def claim_affine_decomposition(ctx):
    for v in ctx.verdict("ag23").verdicts:
        d = v.decomposition
        if d.gen_dims() != (5, 4) or (d.eigen0_dim, d.eigen1_dim) != (4, 4):
            return _bad(f"line {v.line}: gen {d.gen_dims()}, eigen {(d.eigen0_dim, d.eigen1_dim)}")
        if d.semisimple or not v.z2_graded or v.fusion.entry(1, 1) != frozenset({0}):
            return _bad(f"line {v.line}: semisimple {d.semisimple}, graded {v.z2_graded}")
    return _ok("generalized dims (5,4), eigen dims (4,4), graded, not semisimple")


def claim_affine_reduced(ctx):
    red = ctx.reduced["ag23"]
    for t in red.space.lines:
        v = decomp.line_verdict(red, t)
        d = v.decomposition
        if d.gen_dims() != (4, 4) or not d.semisimple:
            return _bad(f"line {t}: dims {d.gen_dims()}, semisimple {d.semisimple}")
        if not v.z2_graded:
            return _bad(f"line {t} of the reduced algebra not graded")
    return _ok("reduced algebra semisimple with dims (4,4) and graded")


def claim_main_biconditional(ctx):
    got = []
    for name, sp in ctx.spaces.items():
        orbits = decomp.orbit_verdicts(ctx.algebras[name])
        graded = all(v.z2_graded for v, _ in orbits)
        expected = fischer.is_symplectic_type(sp) or name == "ag23"
        if graded != expected:
            return _bad(f"{name}: graded {graded}, expected {expected}")
        got.append(f"{name}={'graded' if graded else 'ungraded'}")
    return _ok(" ".join(got))


def claim_witness_3_3_sym4(ctx):
    sp = ctx.spaces["3_3_sym4"]
    alg = ctx.algebras["3_3_sym4"]
    for t in sp.lines:
        quads = fischer.cqs_through_line(sp, t)
        planes = fischer.affine_planes_through_line(sp, t)
        if quads and planes:
            break
    else:
        return _bad("no line lies in both a quadrilateral and an affine plane")
    # z: an off-point of the quadrilateral; a, b the line points it sees
    z = min(set(quads[0]) - set(t))
    ab = [p for p in t if sp.are_collinear(z, p)]
    a = ab[0]
    b = ab[1]
    v = matsuo.multiply(alg, matsuo.line_nilpotent(alg, t), 1 << z)
    # m: a line of the affine plane parallel to t; match its points to a, b
    plane = planes[0]
    inside = [u for u in sp.lines if plane.issuperset(u)]
    m = next(u for u in inside if not set(u) & set(t))
    a2 = m[0]
    la = tuple(sorted((a, a2, fischer.wedge(sp, a, a2))))
    lb = next(
        u for u in inside
        if b in u and not set(u) & set(la)
    )
    b2 = next(p for p in lb if p in m)
    u_el = (1 << a2) ^ (1 << b2)
    dec = decomp.decompose_line(alg, t)
    for name, el in (("a'+b'", u_el), ("line*z", v)):
        f0, f1 = dec.component_flags(el)
        if f0 or not f1:
            return _bad(f"witness element {name} is not in the 1-part")
    f0, f1 = dec.component_flags(matsuo.multiply(alg, u_el, v))
    if not f1:
        return _bad("witness product stays inside the generalized 0-part")
    return _ok(f"line {t}: (a'+b')(line*z) leaks into the 1-part")


def _witness_in_one_part_check(alg, line, u, v):
    dec = decomp.decompose_line(alg, line)
    for el in (u, v):
        f0, f1 = dec.component_flags(el)
        if f0 or not f1:
            return _bad("a witness element is not in the 1-part")
    p = matsuo.multiply(alg, u, v)
    f0, f1 = dec.component_flags(p)
    if not f1:
        return _bad("witness product stays inside the generalized 0-part")
    if f0:
        return _bad(
            "witness product leaves the 0-part as required, but it has a "
            "nonzero 0-component, so it is not an element of the 1-part"
        )
    return None


def _labelled_witness(sp, alg, line, u, v, unlabelled, passed):
    """Check a witness named by point labels: a line's three points and the
    two points of each of u and v.  Labels that are not one per point fail
    with their count, and a missing label fails with `unlabelled`."""
    index = {label: i for i, label in enumerate(sp.labels)}
    if len(index) != sp.n_points:
        return _bad(f"{sp.n_points} points carry {len(index)} distinct labels")
    try:
        line = tuple(sorted(index[x] for x in line))
        u, v = ((1 << index[a]) ^ (1 << index[b]) for a, b in (u, v))
    except KeyError:
        return _bad(unlabelled)
    if not sp.is_line(line):
        return _bad(f"{line} is not a line")
    return _witness_in_one_part_check(alg, line, u, v) or _ok(passed)


def claim_witness_ag33(ctx):
    return _labelled_witness(
        ctx.spaces["ag33"], ctx.algebras["ag33"],
        ("[0,0,0]", "[1,0,0]", "[2,0,0]"),
        ("[0,1,0]", "[1,1,0]"), ("[1,0,1]", "[2,0,1]"),
        "coordinate labeling of the affine 3-space is off",
        "[0,1,0]+[1,1,0] times [1,0,1]+[2,0,1] lands back in the 1-part",
    )


def claim_witness_su32(ctx):
    # the catalog labels point i with the label of class element i
    d, e, f = transposition.su32_matrix_involutions()
    ded = d * e * d
    defed = d * e * f * e * d
    w, w1 = 2, 3  # GF(4) bit patterns for w and w+1
    pt_f = transposition.AffineMat((0, 0, w), f.matrix)
    pt_defed = transposition.AffineMat((w1, 1, w), defed.matrix)
    return _labelled_witness(
        ctx.spaces["su32"], ctx.algebras["su32"],
        (d.label(), e.label(), ded.label()),
        (f.label(), defed.label()), (pt_f.label(), pt_defed.label()),
        "space lacks the affine GF(4) labels of the su32 class",
        "[0,f]+[0,defed] times [(0,0,w),f]+[(w+1,1,w),defed] lands in the 1-part",
    )


def claim_witness_hall(ctx):
    sp = ctx.hall_space
    return _labelled_witness(
        sp, matsuo.build(sp),
        ("[0,0,0,0]", "[1,0,0,0]", "[2,0,0,0]"),
        ("[0,1,0,0]", "[1,1,0,0]"), ("[0,0,0,1]", "[1,0,0,1]"),
        "space lacks [p,q,r,s] coordinate labels over F_3",
        "witness product lands back in the 1-part",
    )


def claim_good_lines_3_3_sym4(ctx):
    gv = ctx.verdict("3_3_sym4")
    good = set(gv.good_lines)
    if not good:
        return _bad("no line is contained only in affine planes")
    for v in gv.verdicts:
        if v.line in good and not v.z2_graded:
            return _bad(f"good line {v.line} is not graded")
    bad_line_failures = [
        v.line for v in gv.verdicts if v.line not in good and not v.z2_graded
    ]
    if not bad_line_failures:
        return _bad("every line inside a quadrilateral is graded")
    n_good_graded = sum(1 for v in gv.verdicts if v.line in good)
    return _ok(
        f"{n_good_graded} good lines all graded; "
        f"{len(bad_line_failures)} quadrilateral lines fail"
    )


def claim_p0_wedge_closure(ctx):
    for name, sp in ctx.spaces.items():
        for t in sp.lines:
            p0, _, _ = fischer.points_p0_p2(sp, t)
            p0set = set(p0)
            for v, w in itertools.combinations(p0, 2):
                if sp.are_collinear(v, w) and fischer.wedge(sp, v, w) not in p0set:
                    return _bad(f"{name}: line {t}, pair ({v}, {w})")
    return _ok("P0 of every line is wedge-closed in all 7 spaces")


def claim_converse_p0(ctx):
    checked = 0
    for name in ("w_a4", "w_d4"):
        sp = ctx.spaces[name]
        for t in sp.lines:
            p0, _, _ = fischer.points_p0_p2(sp, t)
            if not p0:
                continue
            quads = fischer.cqs_through_line(sp, t)
            for w in p0:
                hit = False
                for q1, q2 in itertools.combinations(quads, 2):
                    res = decomp.cq_pair_case(sp, t, q1, q2)
                    if res.case == "a" and res.w == w:
                        hit = True
                        break
                if not hit:
                    return _bad(f"{name}: no quadrilateral pair realizes {w} over {t}")
                checked += 1
    return _ok(f"{checked} points of P0 realized by quadrilateral pairs")


def claim_cq_pair_w_a4(ctx):
    sp = ctx.spaces["w_a4"]
    pairs = 0
    for t in sp.lines:
        p0, _, _ = fischer.points_p0_p2(sp, t)
        for q1, q2 in itertools.combinations(fischer.cqs_through_line(sp, t), 2):
            res = decomp.cq_pair_case(sp, t, q1, q2)
            if res.case != "a" or res.w not in p0:
                return _bad(f"line {t}: case {res.case}")
            pairs += 1
    if pairs == 0:
        return _bad("no quadrilateral pairs found")
    return _ok(f"{pairs} pairs, all matching case (a) with a valid common point")


def claim_cq_pair_w_d4(ctx):
    sp = ctx.spaces["w_d4"]
    cases = {"a": 0, "b": 0}
    for t in sp.lines:
        for q1, q2 in itertools.combinations(fischer.cqs_through_line(sp, t), 2):
            res = decomp.cq_pair_case(sp, t, q1, q2)  # raises if unclassifiable
            cases[res.case] += 1
    if cases["b"] == 0:
        return _bad("case (b) never occurs")
    return _ok(f"all pairs classified; case counts {cases}")


def claim_miyamoto_gf4(ctx):
    rep = miyamoto.verify_cq_miyamoto(2)
    return _ok(f"order {rep.group_order}, all S-matrices, restriction bijective")


def claim_miyamoto_gf8(ctx):
    rep = miyamoto.verify_cq_miyamoto(3)
    return _ok(f"order {rep.group_order}, all S-matrices, restriction bijective")


def claim_miyamoto_gf2_trivial(ctx):
    for v in ctx.verdict("cq").verdicts:
        if miyamoto.miyamoto_map(v, GF2, 1) != FieldMatrix.identity(GF2, v.decomposition.dim):
            return _bad(f"map for line {v.line} is not the identity")
    return _ok("over GF(2) the only unit gives the identity map")


def claim_tau_ell_formula(ctx):
    # nontrivial scalings need the strong law (cq, reduced w_a4 and w_d4);
    # the full w_a4 has 1*1 = {0}, so only lambda = 1 passes there
    f4 = Field(2)
    alg = ctx.algebras["cq"]
    for v in ctx.verdict("cq").verdicts:
        t = v.line
        ad = lift_matrix(f4, matsuo.ad_matrix(alg, matsuo.line_nilpotent(alg, t)))
        ident = FieldMatrix.identity(f4, alg.dim)
        for lam in f4.nonzero():
            tau = miyamoto.miyamoto_map(v, f4, lam)
            one_plus = 1 ^ lam
            scaled = FieldMatrix(
                f4, alg.dim, alg.dim,
                (vec_scale(f4, r, one_plus, alg.dim) for r in ad.rows),
            )
            if tau != ident + scaled:
                return _bad(f"line {t}, lambda {lam}")
    w_alg = ctx.algebras["w_a4"]
    w_verdict = decomp.line_verdict(w_alg, w_alg.space.lines[0])
    try:
        miyamoto.miyamoto_map(w_verdict, f4, 2)
        return _bad("a nontrivial unit scaling passed on a non-integer-graded space")
    except ValueError:
        pass
    return _ok("map equals id + (1+lambda) ad on the quadrilateral's lines")


def claim_miyamoto_characters(ctx):
    f8 = Field(3)
    v = ctx.verdict("cq").verdicts[0]
    maps = {lam: miyamoto.miyamoto_map(v, f8, lam) for lam in f8.nonzero()}
    for lam in f8.nonzero():
        for mu in f8.nonzero():
            if maps[lam] * maps[mu] != maps[f8.mul(lam, mu)]:
                return _bad(f"composition fails for ({lam}, {mu})")
    return _ok("maps compose like the units of the field on each line")


def claim_s_matrix_law(ctx):
    rng = random.Random(0xABCD)
    for k in (2, 3, 4):
        field = Field(k)
        for _ in range(200):
            p1 = (rng.randrange(field.order), rng.randrange(field.order),
                  rng.randrange(1, field.order))
            p2 = (rng.randrange(field.order), rng.randrange(field.order),
                  rng.randrange(1, field.order))
            lhs = miyamoto.s_matrix(field, *p1) * miyamoto.s_matrix(field, *p2)
            rhs = miyamoto.s_matrix(field, *miyamoto.s_compose(field, p1, p2))
            if lhs != rhs:
                return _bad(f"k={k}: {p1} * {p2}")
        # conjugation of the unipotent part by the torus rescales parameters
        for _ in range(50):
            a, b = rng.randrange(field.order), rng.randrange(field.order)
            lam = rng.randrange(1, field.order)
            lhs = (
                miyamoto.s_matrix(field, 0, 0, lam)
                * miyamoto.s_matrix(field, a, b, 1)
                * miyamoto.s_matrix(field, 0, 0, field.inv(lam))
            )
            if miyamoto.parse_s_matrix(lhs) != (field.mul(lam, a), field.mul(lam, b), 1):
                return _bad(f"k={k}: conjugation of ({a},{b})")
    return _ok("composition law matches realized products in GF(4), GF(8), GF(16)")


def claim_aut_reduced(ctx):
    group = ctx.aut().reduced_group
    if group.size() != 24:
        return _bad(f"order {group.size()}")
    if not all(m.entry(2, 2) == 1 for m in group.elements):
        return _bad("some automorphism moves the line nilpotent off itself")
    s_res = [
        miyamoto.s_matrix(GF2, a, b, 1, reduced=True) for a in (0, 1) for b in (0, 1)
    ]
    if not all(m in group for m in s_res):
        return _bad("an S(alpha, beta, 1) restriction is not an automorphism")
    sweep = miyamoto.aut_reduced_unconstrained()
    if sweep != group.elements:
        return _bad("unconstrained sweep disagrees with constrained enumeration")
    return _ok("order 24, confirmed by the unconstrained 2^25 sweep")


def claim_aut_full(ctx):
    rep = ctx.aut()
    if rep.order != 96 or not rep.sets_agree:
        return _bad(f"order {rep.order}, block agreement {rep.sets_agree}")
    if not rep.quadratic_identity or not rep.nu_all_one:
        return _bad("quadratic action identity or unit constraint fails")
    return _ok("order 96, block shape exact, quadratic identity holds")


def claim_point_products_on_line(ctx):
    for name, sp in ctx.spaces.items():
        alg = ctx.algebras[name]
        for t in sp.lines:
            nil = matsuo.line_nilpotent(alg, t)
            for x, y in itertools.combinations(t, 2):
                if matsuo.multiply(alg, 1 << x, 1 << y) != nil:
                    return _bad(f"{name}: points {x}, {y} of line {t}")
    return _ok("any two points of a line multiply to the line nilpotent")


CLAIMS = (
    ("catalog.point_counts", claim_catalog_point_counts),
    ("catalog.symplectic_flags", claim_catalog_symplectic_flags),
    ("catalog.line_counts", claim_catalog_line_counts),
    ("oracle.point_line", claim_oracle_point_line),
    ("oracle.line_line", claim_oracle_line_line),
    ("oracle.point_products_on_line", claim_point_products_on_line),
    ("algebra.square_zero_random", claim_square_zero_random),
    ("algebra.annihilator", claim_annihilator),
    ("algebra.ad_point_square_zero", claim_ad_point_square_zero),
    ("algebra.ad_line_idempotent", claim_ad_line_idempotent),
    ("decomp.cq_dims", claim_cq_decomposition),
    ("decomp.cq_fusion", claim_cq_fusion),
    ("decomp.affine_plane", claim_affine_decomposition),
    ("decomp.affine_plane_reduced", claim_affine_reduced),
    ("decomp.grading_biconditional", claim_main_biconditional),
    ("decomp.witness_3_3_sym4", claim_witness_3_3_sym4),
    ("decomp.witness_ag33", claim_witness_ag33),
    ("decomp.witness_su32", claim_witness_su32),
    ("decomp.good_lines_3_3_sym4", claim_good_lines_3_3_sym4),
    ("fischer.p0_wedge_closure", claim_p0_wedge_closure),
    ("fischer.converse_p0", claim_converse_p0),
    ("decomp.cq_pairs_w_a4", claim_cq_pair_w_a4),
    ("decomp.cq_pairs_w_d4", claim_cq_pair_w_d4),
    ("miyamoto.closure_gf4", claim_miyamoto_gf4),
    ("miyamoto.closure_gf8", claim_miyamoto_gf8),
    ("miyamoto.gf2_trivial", claim_miyamoto_gf2_trivial),
    ("miyamoto.tau_formula", claim_tau_ell_formula),
    ("miyamoto.characters_compose", claim_miyamoto_characters),
    ("miyamoto.s_matrix_law", claim_s_matrix_law),
    ("aut.reduced_order_24", claim_aut_reduced),
    ("aut.full_order_96", claim_aut_full),
)


FAMILY_CLAIMS = (
    ("decomp.witness_hall", claim_witness_hall),
)


# suite name -> its context and claims; CLAIMS is read when the suite runs,
# so a patched CLAIMS (the benchmark's tracer installs one) is what runs
SUITES = {
    "paper": lambda: (SuiteContext(), CLAIMS),
    "families": lambda: (FamiliesContext(), FAMILY_CLAIMS),
}


def run_suite(suite: str = "paper") -> SuiteResult:
    """Run every claim of one suite; results keep the fixed claim order."""
    ctx, claims = SUITES[suite]()
    results = []
    for claim_id, func in claims:
        try:
            status, detail = func(ctx)
        except Exception as exc:  # a crashed claim is a failed claim
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        results.append(ClaimResult(claim_id, status, detail))
    return SuiteResult(suite, tuple(results))
