#!/usr/bin/env python3
"""Path-count bookkeeping on the naturals cobweb.

Between a fixed vertex of level i and a fixed vertex of level j > i of a
complete cobweb there are exactly prod(F_t for i < t < j) directed Hasse
paths: each intermediate level contributes a free choice.  On the
naturals cobweb with 1-based level indices (|level t| = t) the count
summed over *all* endpoints of level j collapses to the factorial ratio
j!/i!, while the per-endpoint count equals (j-1)!/i!.  This script tabulates
both readings so the bookkeeping is visible at a glance, and exits 1
when a summed count misses its factorial ratio (a row marked NO).
"""

import argparse
import math
import sys

from cobwebs.cobweb import build_cobweb, count_paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-level", type=int, default=6)
    args = parser.parse_args()

    top = args.max_level
    sizes = list(range(1, top + 1))  # level t (1-based) has t vertices
    p = build_cobweb(sizes)
    offsets = p.level_offsets

    print(f"naturals cobweb, levels 1..{top}, sizes {sizes}")
    print()
    header = f"{'i':>2} {'j':>2} {'per-pair':>9} {'sum over level j':>17} {'j!/i!':>7} {'match':>6}"
    print(header)
    print("-" * len(header))
    mismatches = 0
    for i in range(1, top + 1):
        for j in range(i + 1, top + 1):
            x = offsets[i - 1] + 1
            targets = range(offsets[j - 1] + 1, offsets[j - 1] + sizes[j - 1] + 1)
            per_pair = count_paths(p, x, targets[0])
            summed = sum(count_paths(p, x, y) for y in targets)
            ratio = math.factorial(j) // math.factorial(i)
            flag = "yes" if summed == ratio else "NO"
            mismatches += summed != ratio
            print(f"{i:>2} {j:>2} {per_pair:>9} {summed:>17} {ratio:>7} {flag:>6}")
    print()
    print("per-pair counts are prod of intermediate level sizes; the factorial")
    print("ratio appears only after summing over the whole target level.")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
