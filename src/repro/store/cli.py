"""``python -m repro cache`` — inspect and maintain a verdict store.

Subcommands::

    repro cache stats   --store PATH            entries, invalidated, bytes
    repro cache clear   --store PATH            delete every verdict
    repro cache compact --store PATH [--max-bytes N]
                                                delete stale-checker rows,
                                                evict least-recently-used
                                                rows until under the cap

Exit codes: 0 on success, 2 on usage errors or an unusable store path
(matching the main CLI).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .verdicts import VerdictStore


def _byte_cap(value: str) -> int:
    """``--max-bytes`` accepts a non-negative integer (argparse reports
    the ``ValueError`` of a non-integer as a usage error)."""
    cap = int(value)
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {cap}")
    return cap


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect and maintain a persistent verdict store.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    for name, doc in (
        ("stats", "show store entries, invalidated rows and size"),
        ("clear", "delete every verdict in the store"),
        ("compact", "delete stale rows and enforce a size cap"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--store", required=True, help="store directory")
        if name == "compact":
            p.add_argument(
                "--max-bytes",
                type=_byte_cap,
                default=None,
                help="evict least-recently-used verdicts until the "
                "database fits under this many bytes",
            )
    return parser


def cache_main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        store = VerdictStore(args.store, read_only=(args.action == "stats"))
    except (OSError, ValueError) as err:  # a regular file, or ''
        print(f"error: {err}", file=sys.stderr)
        return 2
    with store:
        if args.action == "stats":
            stats = store.stats()
            print(f"store: {stats.path}", file=out)
            print(
                f"  entries: {stats.entries}  invalidated: {stats.invalidated}"
                f"  bytes: {stats.bytes}  io errors: {stats.io_errors}",
                file=out,
            )
        elif args.action == "clear":
            removed = store.clear()
            print(f"cleared {removed} verdict(s) from {store.path}", file=out)
        else:
            summary = store.compact(max_bytes=args.max_bytes)
            print(
                f"compacted {store.path}: removed {summary['removed_entries']} "
                f"verdict(s); {summary['remaining_entries']} verdict(s) "
                f"({summary['remaining_bytes']} bytes) remain",
                file=out,
            )
    return 0
