#!/usr/bin/env python3
"""Tabulate both Euler-product forms of the leading constant per field.

One shared prime pass covers every requested d, so the run cost is one
sieve regardless of how many fields are listed.
"""

import argparse
import sys
import time

from bianchisurf.census import leading_constants_bundle


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ds", default="3,7,11,15,19,23", help="comma-separated d values")
    ap.add_argument("--prime-limit", type=int, default=None, help="default: 3e8")
    ns = ap.parse_args(argv)
    ds = tuple(int(v) for v in ns.ds.split(","))

    t0 = time.time()
    try:
        bundle = leading_constants_bundle(ds, ns.prime_limit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.time() - t0
    print(f"{'d':>4} {'l_main':>20} {'l_census_form':>20} {'gap':>10} {'bound':>10}")
    for d in ds:
        rep = bundle[d]
        bound = rep.l_main_bound + rep.l_census_bound
        print(
            f"{d:>4} {rep.l_main:>20.15f} {rep.l_census_form:>20.15f} "
            f"{rep.chain_gap:>10.2e} {bound:>10.2e}"
        )
    first = bundle[ds[0]]
    print(
        f"# truncation prime {first.truncation_prime}, {first.prime_count} primes, "
        f"{elapsed:.1f}s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
