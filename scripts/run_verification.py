#!/usr/bin/env python3
"""Run the full identity catalog at acceptance scale and save the JSON report.

Usage:
    python scripts/run_verification.py [--n-max 8] [--m-set 1,2,3]
                                       [--r-set 1,2,3] [--seed 0]
                                       [--out verification_report.json]

Each entry's line shows its point count and its time.  Exit code 0 when
every identity passes (discrepancy findings are reported, not counted as
failures), 1 otherwise.
"""

import argparse
import json
import sys
import time

from dowlab import CATALOG, all_passed, report_document, run_identity


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--m-set", default="1,2,3")
    parser.add_argument("--r-set", default="1,2,3")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="verification_report.json")
    args = parser.parse_args()

    m_set = tuple(int(v) for v in args.m_set.split(","))
    r_set = tuple(int(v) for v in args.r_set.split(","))

    reports = []
    started = time.perf_counter()
    for ident in CATALOG:
        entry_started = time.perf_counter()
        report = run_identity(ident, args.n_max, m_set, r_set, args.seed)
        entry_s = time.perf_counter() - entry_started
        reports.append(report)
        line = f"{report.status:18s} {report.id:24s} ({report.params_tested} points, {entry_s:.3f}s)"
        print(line, flush=True)
        if report.finding:
            print(f"{'':18s} finding: {report.finding}")
        if report.counterexample:
            print(f"{'':18s} counterexample: {json.dumps(report.counterexample)}")
    elapsed = time.perf_counter() - started

    document = report_document(reports, args.n_max, m_set, r_set, args.seed)
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"\n{len(reports)} identities in {elapsed:.1f}s -> {args.out}")
    return 0 if all_passed(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
