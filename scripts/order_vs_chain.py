#!/usr/bin/env python3
"""When do the order polytope and the chain polytope agree?

For classical posets O_P and C_P are Ehrhart-equivalent; for signed posets
they need not be.  This sweep compares ehr(O_P) with ehr(C_P) across a whole
catalog, splits the result by whether P has a unit root, and prints the
witnesses with the largest volume gap.

    python3 scripts/order_vs_chain.py --n 2
    python3 scripts/order_vs_chain.py --n 3 --top 10
"""

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from signedposets.catalog import iter_signed_posets
from signedposets.chains import compare_order_chain
from signedposets.posets import SignedPoset


@dataclass
class Row:
    poset: SignedPoset
    report: dict

    @property
    def gap(self) -> Fraction:
        lead_o = Fraction(self.report["ehrhart_order"][-1])
        lead_c = Fraction(self.report["ehrhart_chain"][-1])
        return lead_c - lead_o


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--force", action="store_true", help="allow n >= 4")
    parser.add_argument("--top", type=int, default=5,
                        help="how many extreme witnesses to print")
    args = parser.parse_args()

    rows = []
    equal = 0
    equal_with_unit = 0
    for p in iter_signed_posets(args.n, force=args.force):
        report = compare_order_chain(p)
        rows.append(Row(p, report))
        if report["ehrhart_equal"]:
            equal += 1
            if report["has_unit_root"]:
                equal_with_unit += 1

    total = len(rows)
    print(f"n = {args.n}: {total} signed posets")
    print(f"  ehr(O_P) == ehr(C_P) for {equal} ({equal - equal_with_unit} without unit roots)")
    print(f"  different for {total - equal}")

    rows.sort(key=lambda r: r.gap, reverse=True)
    print(f"\nlargest volume gaps (chain minus order, leading coefficient):")
    for row in rows[: args.top]:
        tokens = " ".join(row.poset.tokens()) or "(empty)"
        print(
            f"  {str(row.gap):>6}  {tokens:<28}"
            f" ehr(O) = {row.report['ehrhart_order']}"
            f" ehr(C) = {row.report['ehrhart_chain']}"
        )

    # chain polytopes are always reflexive, so C_P always has the origin
    # strictly inside; a unit root, by contrast, flattens O_P against the
    # cube and usually leaves it with no interior point at t = 1
    with_unit = [r for r in rows if r.report["has_unit_root"]]
    hollow = sum(
        1 for r in with_unit if r.report["order_interior_points_t1"] == 0
    )
    print(
        f"\nposets with a unit root: {len(with_unit)} of {total}; "
        f"O_P hollow at t = 1 for {hollow} of them"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
