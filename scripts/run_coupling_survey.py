#!/usr/bin/env python3
"""Decoupling survey over the escape corpus: for each scenario, the Monte
Carlo decoupling frequency of the identity coupling and the exact
decoupling probability 1 - (Q^t 1)(x0), Q = P[S, S], against the drift
escape bound 2r' / (r(1 - lambda) - b).  ``within_bound`` is exact <= bound.
"""
import argparse
import csv

from mcergo import coupled_escape_estimate, escape_bound, exit_probability, restrict
from mcergo.corpus import escape_corpus


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/coupling.csv")
    ap.add_argument("--replicas", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=17)
    args = ap.parse_args()

    rows = []
    for case in escape_corpus():
        cert = case.cert
        dom = restrict(case.kernel, cert.small_set, case.variant)
        est = coupled_escape_estimate(
            case.kernel, dom, case.x0, case.horizon,
            replicas=args.replicas, seed=args.seed,
        )
        exact = exit_probability(case.kernel, dom.support, case.x0, case.horizon)
        bound = escape_bound(cert.lam, cert.b, cert.r, cert.r_prime)
        ok = exact <= bound
        rows.append([case.name, case.variant, case.kernel.n,
                     cert.small_set.size, case.horizon,
                     repr(est.mean), repr(est.stderr), repr(exact), repr(bound), int(ok)])
        print(f"{case.name}: freq={est.mean:.5f} exact={exact:.5f} bound={bound:.4f} ok={ok}")

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "variant", "n", "small_set_size", "horizon",
                         "frequency", "stderr", "decoupling_exact", "escape_bound",
                         "within_bound"])
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
