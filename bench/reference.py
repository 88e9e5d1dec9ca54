"""Record the outputs the benchmark's oracle checks compare against.

    PYTHONPATH=src python3 bench/reference.py     # about 3 minutes

Writes bench/reference.json from the unrelabelled inputs:
- paper_suite: the claims of `matsuo2 verify --suite paper` that pass;
- classify_catalog: each catalog line's verdict summary and the good lines;
- hall81: the one verdict summary shared by all 1080 lines of Hall's space
  (the script checks every line and refuses to write if they differ).
Run it only at a commit whose outputs are known to be right; the checks
treat this file as ground truth.
"""

from __future__ import annotations

import json

from matsuo2 import decomp, fischer, matsuo, verify

from workloads import HALL_POINTS, HERE, hall_lines, hall_text, summary


def main() -> None:
    suite = verify.run_suite()
    passing = [r.claim_id for r in suite.results if r.status == "pass"]

    catalog = {}
    for name in fischer.CATALOG_NAMES:
        gv = decomp.classify_space(matsuo.build(fischer.catalog(name)))
        catalog[name] = {
            "lines": {",".join(map(str, v.line)): summary(v) for v in gv.verdicts},
            "good_lines": sorted(list(t) for t in gv.good_lines),
        }

    index = {c: i for i, c in enumerate(HALL_POINTS)}
    sp = fischer.parse_space(hall_text(index, hall_lines()))
    alg = matsuo.build(sp)
    summaries = {json.dumps(summary(decomp.line_verdict(alg, t))) for t in sp.lines}
    if len(summaries) != 1:
        raise SystemExit(f"hall81 lines have {len(summaries)} different verdicts")

    reference = {
        "paper_suite": {"passing": passing},
        "classify_catalog": catalog,
        "hall81": {"line_summary": json.loads(summaries.pop())},
    }
    (HERE / "reference.json").write_text(json.dumps(reference, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
