#!/usr/bin/env python3
"""Certification audit of the bd-expdrift corpus chain: drift slack,
compatibility margins, the assembled contraction rate, and the exact
TV-profile dominance verdict.
"""
import argparse
import json

from mcergo.harness import parse_config, run_certify


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/certify")
    args = ap.parse_args()

    cfg = parse_config({
        "experiment": "certify",
        "chain": {"kind": "corpus", "name": "bd-expdrift"},
    })
    rep = run_certify(cfg, out_dir=args.out, quiet=False)
    bound = rep["bound"]
    print(json.dumps({
        "verdict": rep["dominance_verdict"],
        "T": bound["t"],
        "eps": bound["eps"],
        "p": bound["p"],
        "rho": bound["rho"],
        "source": bound["source"],
        "max_violation": rep["max_dominance_violation"],
    }, indent=2))


if __name__ == "__main__":
    main()
