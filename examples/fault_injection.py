#!/usr/bin/env python
"""Monte-Carlo fault injection over the Fig. 5 region surface.

Cross-checks the paper's analytic AVF equations (1)-(7) with a measured
campaign on the same surface: clustered MBU strikes land uniformly over
the data SPM, each region live for its ACE-weighted utilization, and the
batch evaluator classifies every live strike with the closed-form
outcomes of the real parity / Hamming(72,64) decoders
(`repro.faults.classify`).  The measured harmful rate and its 95% Wilson
interval print beside the analytic value; where they part, it is the
codec behaviour the first-order equations round off (odd >=3-bit
parity upsets are *detected*, some SEC-DED triples become DUE rather
than SDC).

Campaigns run through `repro.campaign` (sharded, reproducible across
worker counts — see examples/campaign_parallel.py for the pool,
checkpoint and confidence-interval features).

Run:  python examples/fault_injection.py [--trials N] [--jobs N]
"""

import argparse

from repro.campaign import CampaignRunner, CampaignSpec
from repro.eval.structures import evaluate_structure
from repro.faults import MbuDistribution
from repro.workloads import mibench_names, synthetic_profile


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--benchmarks", nargs="*",
                        default=["susan", "sha", "qsort"])
    args = parser.parse_args()

    mbu = MbuDistribution.for_node(40)
    print("strike multiplicity model (Dixit & Wood, 40 nm): "
          "P(1)=%.2f P(2)=%.2f P(3)=%.2f P(>3)=%.2f" % (
              mbu.p1, mbu.p2, mbu.p3, mbu.p_more))
    print()
    header = ("benchmark     structure        analytic   measured   "
              "95% Wilson CI          DRE      DUE      SDC")
    print(header)
    print("-" * len(header))
    for name in args.benchmarks:
        if name not in mibench_names():
            raise SystemExit("unknown benchmark %r" % name)
        profile = synthetic_profile(name)
        for structure in ("ftspm", "baseline-sram"):
            evaluation = evaluate_structure(profile, structure)
            spec = CampaignSpec.from_structure(
                profile, structure, trials=args.trials, seed=0xF17A)
            summary = CampaignRunner(spec, jobs=args.jobs).run()
            interval = summary.interval("harmful")
            result = summary.result
            print("%-13s %-16s %8.4f %10.4f   [%.4f, %.4f] %8d %8d %8d"
                  % (name, structure, evaluation.vulnerability,
                     interval.point, interval.low, interval.high,
                     result.dre, result.due, result.sdc))


if __name__ == "__main__":
    main()
