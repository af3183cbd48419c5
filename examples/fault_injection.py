#!/usr/bin/env python
"""Monte-Carlo fault injection through the real ECC codecs.

Cross-checks the paper's analytic AVF equations (1)-(7) with strikes on
actual encoded words: encode, flip a clustered MBU pattern, decode with
the real Hamming(72,64) / parity hardware model, classify against the
golden data.  Reports where the measured codec behaviour deviates from
the first-order equations (odd >=3-bit parity upsets are *detected*,
some SEC-DED triples become DUE rather than SDC).

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
              "DRE      DUE      SDC")
    print(header)
    print("-" * len(header))
    for name in args.benchmarks:
        if name not in mibench_names():
            raise SystemExit("unknown benchmark %r" % name)
        profile = synthetic_profile(name)
        for structure in ("ftspm", "baseline-sram"):
            evaluation = evaluate_structure(profile, structure)
            spec = CampaignSpec.from_entries(
                evaluation.plan.avf_entries(profile),
                evaluation.plan.total_spm_bytes(),
                profile.total_cycles, trials=args.trials, mbu=mbu,
                seed=0xF17A)
            result = CampaignRunner(spec, jobs=args.jobs).run().result
            print("%-13s %-16s %8.4f %10.4f %8d %8d %8d" % (
                name, structure, evaluation.vulnerability,
                result.vulnerability,
                result.dre, result.due, result.sdc))
    print()
    print("Note: 'analytic' uses the paper's region-surface reading "
          "(uniform for the homogeneous baseline), while 'measured' "
          "weights by the resident blocks' ACE windows - the comparison "
          "shows the ordering, not the same quantity.")


if __name__ == "__main__":
    main()
