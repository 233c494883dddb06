#!/usr/bin/env python3
"""Feasible range of the cross correlation for two AR(1) sub-processes.

The fixed cross block is only usable when the assembled joint correlation
matrix stays positive definite, and how much room it has depends strongly on
the sub-processes it couples.  Two scalar AR(1) series under condition
labels (2, 2) illustrate the extremes:

* serial correlations 0.9 and 0.9 leave the full interval (-1, 1) open;
* serial correlations 0.9 and -0.9 squeeze the feasible interval to roughly
  (-0.105, 0.105), so a contemporaneous correlation as mild as 0.15 is
  already infeasible.

The boundary is located by bisection on the positive definiteness check.
"""

import numpy as np

from mcvar import (
    CrossFixedBlock,
    Partition,
    SubprocessCorr,
    assemble_full_R,
    fixed_lag_for_labels,
    is_positive_definite,
    solve_cross_pair,
)

K = 1
LABELS = (2, 2)
PARTITION = Partition(sets=((0,), (1,)), d=2)


def feasible(rho1, rho2, value):
    """True when the joint matrix for the given cross correlation is PD."""
    sub1 = SubprocessCorr(blocks=(np.eye(1), np.array([[rho1]])))
    sub2 = SubprocessCorr(blocks=(np.eye(1), np.array([[rho2]])))
    lag = fixed_lag_for_labels(LABELS, K)
    cross = solve_cross_pair(
        sub1, sub2, LABELS, CrossFixedBlock(pair=(0, 1), lag=lag, value=np.array([[value]]))
    )
    return is_positive_definite(assemble_full_R(PARTITION, (sub1, sub2), (cross,)))


def positive_boundary(rho1, rho2):
    """Supremum of feasible positive cross correlations, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(rho1, rho2, mid) else (lo, mid)
    return lo


def scan(rho1, rho2):
    grid = np.round(np.arange(-0.95, 0.955, 0.05), 2)
    marks = "".join("+" if feasible(rho1, rho2, v) else "." for v in grid)
    print("  serial correlations (%+.2f, %+.2f)" % (rho1, rho2))
    print("  grid -0.95..0.95: %s" % marks)
    bound = positive_boundary(rho1, rho2)
    print("  positive boundary by bisection: %.6f" % bound)
    print("  (by symmetry the feasible interval is (-%.6f, %.6f))" % (bound, bound))
    print()


def main():
    print("Feasible contemporaneous cross correlation, labels (2, 2), k = 1")
    print("=" * 68)
    scan(0.9, 0.9)
    scan(0.9, -0.9)
    print("With opposite-sign serial dependence the cross correlation 0.15")
    print("already fails:", feasible(0.9, -0.9, 0.15))


if __name__ == "__main__":
    main()
