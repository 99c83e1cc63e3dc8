"""Recompute ``reference.json``: one untimed job per workload.

    python3 perfbench/make_reference.py [workload ...]

The gates of ``bench.check_job`` compare every run against these values, so
regenerate them only from code whose answers are trusted, and commit the
file with the reason.  Seed 0 is used; the recorded values do not depend on
the seed.
"""

import json
import sys

import bench
from spans import Tracer


def main(names) -> int:
    cs = bench.load_ctrlstab()
    workloads = bench.load_workloads()
    try:
        with open(bench.REFERENCE_PATH) as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    for name in names or list(workloads):
        wl = workloads[name]
        s = bench.setup(cs, wl)
        job = bench.run_job(cs, s, wl, bench.job_rng(0, 0), Tracer())
        ref = bench.job_reference(cs, s, job)
        tally = bench.Tally()
        bench.check_job(cs, s, job, ref, tally)
        if tally.failed:
            print(f"{name}: not recorded, gates failed: {tally.messages}")
            return 1
        refs[name] = ref
        print(f"{name}: {ref}")
    with open(bench.REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
