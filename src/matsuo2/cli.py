"""Command-line interface.

Subcommands: catalog, space, decompose, miyamoto, aut, verify.
Exit codes: 0 success, 1 verification failure, 2 usage or validation error.
JSON output is deterministic (sorted keys, fixed layout) so repeated runs on
the same input are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import decomp, fischer, matsuo, miyamoto, verify


def _emit_json(obj, out_path=None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_catalog(args) -> int:
    rows = []
    for name in fischer.CATALOG_NAMES:
        sp = fischer.catalog(name)
        rows.append(
            (name, sp.n_points, len(sp.lines), sp.meta.rank,
             "yes" if fischer.is_symplectic_type(sp) else "no")
        )
    print(f"{'name':10s} {'points':>6s} {'lines':>6s} {'rank':>4s} {'symplectic':>10s}")
    for r in rows:
        print(f"{r[0]:10s} {r[1]:6d} {r[2]:6d} {r[3]:4d} {r[4]:>10s}")
    return 0


def cmd_space(args) -> int:
    sp = fischer.load_space(args.space)
    census = []
    for t in sp.lines:
        p0, p2, p3 = fischer.points_p0_p2(sp, t)
        census.append({
            "line": list(t),
            "p0": len(p0), "p2": len(p2), "p3": len(p3),
        })
    report = {
        "name": sp.meta.name if sp.meta else None,
        "n_points": sp.n_points,
        "n_lines": len(sp.lines),
        "symplectic": fischer.is_symplectic_type(sp),
        "rank": sp.meta.rank if sp.meta else None,
        "line_census": census,
    }
    _emit_json(report, args.out)
    return 0


def _fusion_text(v: decomp.LineVerdict) -> str:
    def cell(x, y):
        e = sorted(v.fusion.entry(x, y))
        return "{" + ",".join(str(i) for i in e) + "}"

    d = v.decomposition
    flags = []
    flags.append("semisimple" if d.semisimple else "not semisimple")
    flags.append("Z/2Z-graded" if v.z2_graded else "not Z/2Z-graded")
    out = [
        f"line {v.line}: gen dims {d.gen_dims()}, "
        f"eigen dims {(d.eigen0_dim, d.eigen1_dim)}, {', '.join(flags)}",
        "    *  |    0      1",
        "  -----+--------------",
        f"    0  | {cell(0, 0):>5s}  {cell(0, 1):>5s}",
        f"    1  | {cell(0, 1):>5s}  {cell(1, 1):>5s}",
    ]
    if v.witness is not None:
        from .gf import vec_support

        out.append(
            f"  witness: u={vec_support(v.witness.u)} v={vec_support(v.witness.v)} "
            f"bad 1-component {vec_support(v.witness.bad_component)}"
        )
    return "\n".join(out)


def cmd_decompose(args) -> int:
    sp = fischer.load_space(args.space)
    alg = matsuo.build(sp)
    if args.reduced:
        alg = matsuo.reduce(alg)
    if args.line:
        try:
            t = tuple(int(x) for x in args.line.split(","))
        except ValueError:
            print(f"error: bad --line {args.line!r}; expected i,j,k", file=sys.stderr)
            return 2
        verdicts = [decomp.line_verdict(alg, t)]
    else:
        verdicts = [decomp.line_verdict(alg, t) for t in sp.lines]
    if args.format == "json":
        _emit_json({
            "space": sp.meta.name if sp.meta else None,
            "reduced": alg.reduced,
            "dim": alg.dim,
            "z2_graded": all(v.z2_graded for v in verdicts),
            "lines": [v.to_json_dict() for v in verdicts],
        }, args.out)
    else:
        for v in verdicts:
            print(_fusion_text(v))
    return 0


def cmd_miyamoto(args) -> int:
    alg = matsuo.build(fischer.load_space(args.space))
    if args.reduced:
        alg = matsuo.reduce(alg)
    miyamoto.require_miyamoto_space(alg)
    try:
        rep = miyamoto.verify_cq_miyamoto(args.field)
    except miyamoto.MiyamotoCheckError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    aut_full = miyamoto.aut_count_full()
    report = {
        "field_k": rep.field_k,
        "group_order": rep.reduced_group_order if args.reduced else rep.group_order,
        "is_all_s_matrices": rep.all_s_matrices,
        "restriction_injective": rep.restriction_injective,
        "aut_reduced_order": aut_full.reduced_order,
        "aut_full_order": aut_full.order,
    }
    _emit_json(report, args.out)
    return 0


def cmd_aut(args) -> int:
    rep = miyamoto.aut_count_full()
    ok = rep.sets_agree and rep.quadratic_identity and rep.nu_all_one
    if args.reduced:
        group = rep.reduced_group
        report = {
            "aut_reduced_order": group.size(),
            "line_coefficient_fixed": all(m.entry(2, 2) == 1 for m in group.elements),
        }
    else:
        report = {
            "aut_reduced_order": rep.reduced_order,
            "aut_full_order": rep.order,
            "block_shape_agrees": rep.sets_agree,
            "quadratic_identity": rep.quadratic_identity,
        }
    _emit_json(report, args.out)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    result = verify.run_suite(args.suite)
    print(result.format_text())
    if args.out:
        _emit_json(result.to_json_dict(), args.out)
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="matsuo2",
        description="Fischer spaces and nilpotent Matsuo algebras over GF(2^k)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the built-in spaces")

    ps = sub.add_parser("space", help="validate and summarize a space")
    ps.add_argument("--space", required=True,
                    help="catalog name or .fischer/.gens path")
    ps.add_argument("--out", metavar="REPORT.json")

    pd = sub.add_parser("decompose", help="per-line decompositions and fusion laws")
    pd.add_argument("--space", required=True,
                    help="catalog name or .fischer/.gens path")
    pd.add_argument("--line", metavar="I,J,K")
    pd.add_argument("--reduced", action="store_true")
    pd.add_argument("--format", choices=("json", "text"), default="text")
    pd.add_argument("--out", metavar="REPORT.json")

    pm = sub.add_parser("miyamoto", help="Miyamoto group of the quadrilateral")
    pm.add_argument("--field", type=int, required=True, metavar="K",
                    help="field degree k of GF(2^k)")
    pm.add_argument("--space", default="cq")
    pm.add_argument("--reduced", action="store_true")
    pm.add_argument("--out", metavar="REPORT.json")

    pa = sub.add_parser("aut", help="automorphism groups of the quadrilateral algebra")
    pa.add_argument("--reduced", action="store_true")
    pa.add_argument("--out", metavar="REPORT.json")

    pv = sub.add_parser("verify", help="run the claim verification suite")
    pv.add_argument("--suite", choices=tuple(verify.SUITES), required=True)
    pv.add_argument("--out", metavar="REPORT.json")

    return p


_HANDLERS = {
    "catalog": cmd_catalog,
    "space": cmd_space,
    "decompose": cmd_decompose,
    "miyamoto": cmd_miyamoto,
    "aut": cmd_aut,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:  # InvalidSpaceError, NotTranspositionClass too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
