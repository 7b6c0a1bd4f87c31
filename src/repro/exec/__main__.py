"""``python -m repro.exec`` — inspect, clear, or bound the result cache."""

from __future__ import annotations

import argparse
import sys

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .pool import auto_jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="parallel-execution layer: worker info and result cache",
    )
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help=f"cache root (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--clear", action="store_true",
                        help="delete every cached result and exit")
    parser.add_argument("--evict", action="store_true",
                        help="sweep stale source generations and orphaned "
                             "temp files; with --max-mb, also bound the "
                             "store by evicting oldest entries")
    parser.add_argument("--max-mb", type=float, default=None,
                        help="with --evict: bound total size to this many "
                             "megabytes")
    parser.add_argument("--namespace", default="",
                        help="restrict --clear/--evict to one namespace "
                             "(default: all)")
    args = parser.parse_args(argv)

    cache = ResultCache(root=args.cache_dir, namespace=args.namespace)
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached result(s) from {args.cache_dir}")
        return 0
    if args.evict:
        max_bytes = (int(args.max_mb * 1024 * 1024)
                     if args.max_mb is not None else None)
        out = cache.evict(max_bytes=max_bytes)
        print(f"evicted {out['entries_removed']} entr(ies), "
              f"{out['stale_generations']} stale generation(s), "
              f"{out['tmp_removed']} orphaned temp file(s) "
              f"({out['bytes_freed']} bytes freed)")
        return 0

    print(f"workers with -j auto : {auto_jobs()}")
    print(f"cache root           : {args.cache_dir}")
    entries, total_bytes = cache.usage()
    print(f"cached results       : {entries}")
    print(f"cache bytes          : {total_bytes}")
    print(f"source fingerprint   : {cache.source_fp[:16]}…")
    return 0


if __name__ == "__main__":
    sys.exit(main())
