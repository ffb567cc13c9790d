#!/usr/bin/env python3
"""Check that one injected fault stayed contained in a batch CSV.

Compares the default CSV of a `bddmin_cli batch` run with one failpoint
armed against the fault-free baseline of the same batch:

  * both files have the same header and the same number of rows;
  * at most one row differs from the baseline;
  * a differing row has the status the point's class allows:
    `resource-limit` for the out-of-memory points (`*_oom`) and
    `minimize_deadline`, `error` for `job_decode_corrupt`; any other
    point (stalls, the noexcept cache growth) must change no row;
  * the batch exit code matches: 4 for a degraded row, 3 for an error
    row, 0 when no row changed;
  * `audit_findings` is 0 in every row.

Exit status 0 when the fault was contained, 1 otherwise (message on
stderr).

    check_fault_csv.py BASE.csv FAULTED.csv --point NAME --exit CODE
"""
import argparse
import csv
import sys


def fail(msg: str) -> int:
    print(f"check_fault_csv: {msg}", file=sys.stderr)
    return 1


def read_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def allowed_status(point: str):
    if point == "job_decode_corrupt":
        return "error"
    if point.endswith("_oom") or point == "minimize_deadline":
        return "resource-limit"
    return None  # the point must not change any row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base", help="fault-free baseline CSV")
    parser.add_argument("faulted", help="CSV of the run with the point armed")
    parser.add_argument("--point", required=True, help="failpoint name")
    parser.add_argument("--exit", type=int, required=True, dest="code",
                        help="exit code of the faulted batch run")
    args = parser.parse_args()

    base = read_rows(args.base)
    faulted = read_rows(args.faulted)
    if not base or not faulted or base[0] != faulted[0]:
        return fail("headers differ")
    if len(base) != len(faulted):
        return fail(f"{len(faulted) - 1} rows, baseline has {len(base) - 1}")
    header = base[0]
    status_col = header.index("status")
    findings_col = header.index("audit_findings")
    for row in faulted[1:]:
        if row[findings_col] != "0":
            return fail(f"row {row[0]}: {row[findings_col]} audit findings")

    changed = [f for b, f in zip(base[1:], faulted[1:]) if b != f]
    if len(changed) > 1:
        return fail(f"{args.point}: {len(changed)} rows differ "
                    f"(jobs {', '.join(r[0] for r in changed)})")
    if not changed:
        if args.code != 0:
            return fail(f"{args.point}: no row changed but exit {args.code}")
        print(f"check_fault_csv: {args.point}: no row changed")
        return 0

    row = changed[0]
    want = allowed_status(args.point)
    if want is None or row[status_col] != want:
        return fail(f"{args.point}: job {row[0]} finished {row[status_col]}, "
                    f"expected {want or 'no change'}")
    want_code = 3 if want == "error" else 4
    if args.code != want_code:
        return fail(f"{args.point}: exit {args.code}, expected {want_code}")
    print(f"check_fault_csv: {args.point}: job {row[0]} {row[status_col]} "
          f"(exit {args.code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
