"""Re-record the simulated statistics the ``simulate`` workload checks.

    python3 perfbench/record_expectations.py

Writes perfbench/expectations.json: for every program of the full and
the self-test scale, the profiling run's and each placed run's
simulated ``[instructions, cycles]``.  A change that only makes the
simulator faster must leave this file unchanged; re-record it only for
a deliberate change to the modelled machine or the programs.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    run.import_package()
    observed = {}
    for tiny in (False, True):
        # one round; every check fails against the empty expectations
        workload = workloads.SimulateWorkload(0, 0, tiny=tiny,
                                              expectations={})
        workload.setup()
        workload.run()
        observed.update(workload.observed)
    document = {
        "about": "simulated [instructions, cycles] per program: the "
                 "profiling run and the placed run on each structure",
        "runs": observed,
    }
    with open(workloads.EXPECTATIONS_PATH, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d programs to %s" % (len(observed),
                                       workloads.EXPECTATIONS_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
