"""Regenerate the committed per-fault references.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's grid once per reference seed, untraced and in a
fresh process exactly as a benchmark repetition does, and writes
``reference/<workload>.json``: fault seed -> cell -> the per-fault
(bit, cycle, class, detail, sim_cycles) records.  Only regenerate when
a change is meant to alter classifications, and say so.
"""

import json
import sys

import run
import workloads


def main(names):
    run.WORK.mkdir(exist_ok=True)
    for name in names or workloads.NAMES:
        reference = {}
        for seed in workloads.REFERENCE_SEEDS:
            _, rep = run.repetition(name, seed, 0)
            bad = sum(c["incidents"] for c in rep["cells"]) \
                + rep.get("resume_rerun", 0) + rep.get("resume_changed", 0)
            if bad:
                raise SystemExit(f"{name} seed {seed}: {bad} failed faults")
            reference[str(seed)] = {c["key"]: c["records"]
                                    for c in rep["cells"]}
        path = run.HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(reference, separators=(",", ":"),
                                   sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
