#!/usr/bin/env python3
"""Simultaneous avoidance of every small-coefficient linear equation.

Samples M uniform points on the circle and removes one point from every
approximate solution of

    m1 x1 + m2 x2 + m3 x3 = 0  (mod 1),   0 < |m_i| <= 2,

across all 32 sign-normalized coefficient vectors at once.  The removal
threshold is capped analytically so the expected number of removals stays
near sqrt(M) and the surviving set keeps at least half its points.  An
exact scan of the violations over the kept points must come back zero for
every equation.

The interesting tension: the candidate density exponent here is
beta0 = d/(n-1) = 1/2, and the battery runs at lam = 0.45 just below it,
where the naive threshold would wipe out the whole sample.

Run:  python3 demos/linear_equations.py [out_dir]
"""

import sys

from salemkit.harness import demo_linear_equations


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out/linear-eq"
    print("avoiding all |m_i| <= 2 linear equations, M=1024, lam=0.45, 5 trials ...")
    report = demo_linear_equations(
        coeff_bound=2, M=1024, lam=0.45, seed=0, trials=5, out_dir=out_dir
    )

    total_viol = 0
    for row in report.rows:
        total_viol += row["scan_violations"]
        print(
            f"  trial {row['trial']}: kept N={row['N']}, "
            f"removed {row['removed_count']}, "
            f"exact-scan violations {row['scan_violations']}"
        )
    print(f"report written to {out_dir}/linear-eq.json")
    print("VERDICT:", "pass" if total_viol == 0 else "FAIL")
    return 0 if total_viol == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
