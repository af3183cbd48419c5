#!/usr/bin/env python
"""Sharded fault-injection campaigns: worker pool, Wilson CIs, resume.

Demonstrates the `repro.campaign` engine on the paper's Fig. 5
quantity: the measured FTSPM vulnerability with a 95% confidence
interval that brackets the analytic model, identical aggregates for
any worker count, and a checkpointed run that survives a mid-flight
kill.

Run:  python examples/campaign_parallel.py [--trials N] [--jobs N]
"""

import argparse
import json
import shutil
import tempfile

from repro.campaign import CampaignRunner, CampaignSpec
from repro.pipeline import get_context
from repro.workloads import synthetic_profile


def canonical(summary):
    return json.dumps(summary.result.to_dict(), sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="sha")
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    profile = synthetic_profile(args.benchmark)
    # ~8 shards regardless of --trials, so the kill/resume demo below
    # always has work left to recover
    spec = CampaignSpec.from_structure(
        profile, "ftspm", trials=args.trials,
        shard_size=max(1000, args.trials // 8))
    print("campaign: %s/ftspm, %d trials in %d shards of %d"
          % (args.benchmark, spec.trials, spec.shard_count,
             spec.shard_size))

    # 1. measured vs analytic -------------------------------------------
    serial = CampaignRunner(spec, jobs=1).run()
    interval = serial.interval("harmful")
    analytic = get_context().evaluation(profile, "ftspm").vulnerability
    print("\nmeasured vulnerability: %s" % interval)
    print("analytic vulnerability: %.5f  (CI brackets it: %s)"
          % (analytic, "yes" if interval.brackets(analytic) else "NO"))

    # 2. worker count never changes the numbers -------------------------
    pooled = CampaignRunner(spec, jobs=args.jobs).run()
    print("\njobs=1 vs jobs=%d byte-identical: %s"
          % (args.jobs, canonical(pooled) == canonical(serial)))
    print("pool throughput: %.0f trials/s" % pooled.throughput)

    # 3. kill + resume ---------------------------------------------------
    run_dir = tempfile.mkdtemp(prefix="repro-campaign-")

    class KillAfterTwo:
        def __call__(self, event):
            if event.kind == "shard-ok" and event.shards_done == 2:
                raise KeyboardInterrupt  # simulate Ctrl-C mid-campaign

    try:
        try:
            CampaignRunner(spec, jobs=1, run_dir=run_dir,
                           progress=KillAfterTwo()).run()
        except KeyboardInterrupt:
            print("\nkilled after 2 shards; journal has them checkpointed")
        resumed = CampaignRunner(spec, jobs=1, run_dir=run_dir,
                                 resume=True).run()
        fresh = sum(1 for r in resumed.records if not r.resumed)
        print("resumed: %d shards reused, %d rerun; aggregate matches "
              "the uninterrupted run: %s"
              % (spec.shard_count - fresh, fresh,
                 canonical(resumed) == canonical(serial)))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("\n%s" % serial.outcome_table())


if __name__ == "__main__":
    main()
