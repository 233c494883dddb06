#!/usr/bin/env python3
"""Two AR(2) sub-processes joined under the four label combinations.

Two scalar series with autocorrelation profiles (1, -0.8, 0.6) and
(1, 0.6, 0.5) are coupled through every combination of the two closure
conditions.  For each label pair the script solves the cross-correlation
profile from a common fixed block, assembles the joint correlation matrix,
and prints the implied VAR(2) coefficients with the innovation correlation.

A second pass root-finds, per label pair, the fixed value at which the
innovation correlation equals 0.80, which makes the four coefficient tables
directly comparable: the label choice alone then accounts for the different
dynamic shapes.
"""

import numpy as np
from scipy.optimize import brentq

from mcvar import (
    CrossFixedBlock,
    Partition,
    SubprocessCorr,
    assemble_full_R,
    durbin_levinson,
    fixed_lag_for_labels,
    solve_cross_pair,
    verify_closure,
)

K = 2
PARTITION = Partition(sets=((0,), (1,)), d=2)
SUB_1 = SubprocessCorr(blocks=(np.eye(1), np.array([[-0.8]]), np.array([[0.6]])))
SUB_2 = SubprocessCorr(blocks=(np.eye(1), np.array([[0.6]]), np.array([[0.5]])))
CASES = ((1, 1), (1, 2), (2, 1), (2, 2))
TARGET_CORR = 0.80


def joint_representation(labels, value):
    """VAR(2) representation of the coupled pair and its time-major matrix."""
    lag = fixed_lag_for_labels(labels, K)
    fixed = CrossFixedBlock(pair=(0, 1), lag=lag, value=np.array([[value]]))
    cross = solve_cross_pair(SUB_1, SUB_2, labels, fixed)
    r = assemble_full_R(PARTITION, (SUB_1, SUB_2), (cross,))
    d = PARTITION.d
    slices = [r[:d, l * d:(l + 1) * d] for l in range(K + 1)]
    return durbin_levinson(slices, K), r, cross


def innovation_corr(var):
    """Correlation between the two innovation coordinates."""
    s = var.sigma
    return float(s[0, 1] / np.sqrt(s[0, 0] * s[1, 1]))


def feasible_interval(labels, step=0.01):
    """Interval of fixed values with a positive definite joint matrix.

    The feasible set is an interval because the joint matrix is affine in the
    fixed value, so a coarse scan is refined by bisecting each edge.  The
    refinement matters: the innovation correlation changes fastest right at
    the boundary.
    """

    def ok(value):
        try:
            joint_representation(labels, value)
            return True
        except np.linalg.LinAlgError:
            return False

    grid = [v for v in np.arange(-0.99, 0.995, step) if ok(v)]

    def edge(inside, outside):
        for _ in range(40):
            mid = 0.5 * (inside + outside)
            inside, outside = (mid, outside) if ok(mid) else (inside, mid)
        return inside

    return edge(min(grid), min(grid) - step), edge(max(grid), max(grid) + step)


def equalizing_value(labels):
    """Fixed value at which the innovation correlation hits the target."""
    lo, hi = feasible_interval(labels)

    def gap(value):
        var, _, _ = joint_representation(labels, value)
        return innovation_corr(var) - TARGET_CORR

    grid = np.linspace(lo, hi, 81)
    vals = [gap(v) for v in grid]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            return float(a)
        if fa * fb < 0.0:
            return float(brentq(gap, a, b))
    raise RuntimeError("no fixed value reaches the target on the feasible interval")


def show_case(labels, value):
    var, r, cross = joint_representation(labels, value)
    lag = fixed_lag_for_labels(labels, K)
    print("labels (%d, %d), fixed corr(Z1_t, Z2_t%+d) = %.3f" % (labels + (-lag, value)))
    print("  cross profile lag -2..2:",
          np.array2string(np.array([cross.block(l)[0, 0] for l in range(-K, K + 1)]),
                          precision=3, suppress_small=True))
    for m, phi in enumerate(var.phi, start=1):
        print("  Phi_%d =" % m, np.array2string(phi, precision=3, suppress_small=True).replace("\n", "\n         "))
    print("  innovation correlation = %.3f" % innovation_corr(var))
    print("  " + str(verify_closure(r, PARTITION, K)).replace("\n", "\n  "))
    print()


def main():
    print("Common fixed value 0.35 under each label combination")
    print("=" * 68)
    for labels in CASES:
        show_case(labels, 0.35)

    print("Fixed values that equalize the innovation correlation at %.2f" % TARGET_CORR)
    print("=" * 68)
    for labels in CASES:
        show_case(labels, equalizing_value(labels))


if __name__ == "__main__":
    main()
