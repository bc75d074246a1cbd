"""Command line front end.

Exit codes: 0 on success (including a true verify verdict), 1 when
verify parses a well-formed matrix that is not Hadamard, 2 on domain,
format or resource errors, 3 when an internal invariant fails (for
example a search candidate that does not certify).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .bitmask import ingredient_counts, mask_tables
from .distributions import class_budget, enumerate_distributions
from .recipes import class_masks
from .search import (
    ResourceLimitError,
    brute_force,
    export_solutions,
    run_search,
    verify_matrix_file,
)

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _cmd_search(args: argparse.Namespace) -> int:
    report = run_search(args.t, distribution=args.distribution, jobs=args.jobs)
    for dist_report in report.reports:
        print(dist_report.summary_line())
    print(f"candidates checked: {report.candidates_checked}")
    print(f"total hadamard: {report.hadamard_count}")
    if args.out is not None:
        written = export_solutions(report, args.out)
        print(f"wrote {len(written)} matrix files to {args.out}")
    return EXIT_OK


def _cmd_brute_force(args: argparse.Namespace) -> int:
    report = brute_force(args.t)
    print(f"canonical subsets: {report.space}")
    for entries, count in sorted(report.counts_by_distribution().items(), reverse=True):
        print(f"distribution {entries}: hadamard {count}")
    print(f"total hadamard: {report.hadamard_count}")
    return EXIT_OK


def _cmd_distributions(args: argparse.Namespace) -> int:
    for dist in enumerate_distributions(args.t):
        print("{}  {}".format(dist.entries, "+".join(str(d) for d in dist.deficits)))
    return EXIT_OK


def _cmd_ingredients(args: argparse.Namespace) -> int:
    t = args.t
    side = class_masks(t, args.k)
    k = min(args.k, t - args.k)
    print(f"t={t} k={k} entry={class_budget(t, k)}")
    # The catalog holds every mask of sizes k and t - k.  Complements pair them
    # within a profile (t is odd, so the sizes differ): half are of size k.
    profiles = ingredient_counts(mask_tables(t), side.flat[side.starts]).T.tolist()
    for counts, size in zip(profiles, side.sizes.tolist()):
        print(f"profile {tuple(counts)}: {size // 2} masks")
    print(f"profiles: {len(profiles)}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    t, verdict = verify_matrix_file(args.file)
    print(f"t={t} hadamard: {'true' if verdict else 'false'}")
    return EXIT_OK if verdict else EXIT_VERDICT_FALSE


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cochad",
        description="Search for and verify cocyclic Hadamard matrices over Z_t x Z_2^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="pruned exhaustive search over canonical subsets")
    p.add_argument("--t", type=int, required=True, help="odd parameter >= 3; matrices have order 4t")
    p.add_argument(
        "--distribution",
        type=int,
        default=None,
        help="restrict to one distribution, by its position in the distributions listing",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes across distributions")
    p.add_argument("--out", default=None, help="directory for matrix files and the run summary")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("brute-force", help="scan every canonical subset (small t only)")
    p.add_argument("--t", type=int, required=True, help="odd parameter >= 3, capped at 7")
    p.set_defaults(func=_cmd_brute_force)

    p = sub.add_parser("distributions", help="admissible budget distributions for t")
    p.add_argument("--t", type=int, required=True, help="odd parameter >= 3")
    p.set_defaults(func=_cmd_distributions)

    p = sub.add_parser("ingredients", help="head profile catalog for one class size")
    p.add_argument("--t", type=int, required=True, help="odd parameter >= 3")
    p.add_argument("--k", type=int, required=True, help="class size in [0, t]")
    p.set_defaults(func=_cmd_ingredients)

    p = sub.add_parser("verify", help="check a matrix text file for the Hadamard property")
    p.add_argument("file", help="matrix file as written by search --out")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ResourceLimitError) as exc:
        # MatrixFormatError is a ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
