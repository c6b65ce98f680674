#!/usr/bin/env python3
"""Residual profiles of the approximate finite-expansion claim.

Measures lhs - rhs exactly over a window of shifts for seeded random
instances and for the canonical point-mass instance; no verdict is
attached (the error-term constant in the claim is unspecified), the
profiles are the whole output.

Usage:
    python scripts/run_reef_residuals.py [--seed 1] [--instances 5]
"""

import argparse
import random

from ramsmooth import CorrelationTable, ReefInstance, format_rational, \
    parse_rational, residual_profile, seeded_instance


def show(profile, label):
    print(f"{label}: N={profile.N} Q={profile.Q} "
          f"max|defect|={format_rational(profile.max_abs_defect)} "
          f"within a<=N^(1-{profile.delta}) (a<={profile.envelope_cut}): "
          f"{format_rational(profile.max_abs_defect_in_envelope)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument("--delta", type=parse_rational, default="1/4")
    args = parser.parse_args()
    delta = args.delta
    if not 0 < delta < 1:
        parser.error("--delta must lie in (0, 1)")

    canonical = ReefInstance(N=100, Q=10, n0=2, q0=3).table()
    show(residual_profile(canonical, 60, delta), "point-mass vs c_3")

    rng = random.Random(args.seed)
    for tag in range(args.instances):
        table = CorrelationTable(*seeded_instance(
            rng, tag, max_N=100, q_choices=(2, 3, 4, 5, 6, 7, 8, 9, 10)))
        profile = residual_profile(table, min(table.N, 50), delta)
        show(profile, f"seeded instance {tag}")


if __name__ == "__main__":
    main()
