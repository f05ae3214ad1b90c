"""Record the results of the benchmark's fixed operations into expected.json.

    python3 perfbench/record_expected.py

Run this only at a commit whose answers are trusted (it was run at the
commit that added the benchmark); afterwards the benchmark holds every later
commit to the same exit codes and bytes.  Generated inputs are not recorded:
their answers are known by construction or computed by oracle.py.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    import novq
    import novq.cli  # noqa: F401

    record = {}
    workdir = os.path.join(".bench_work", "record")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            for op in workloads.OPERATIONS[name](0, workdir):
                if op.golden:
                    record[op.id] = run.observed(novq, op, run.run_op(novq, op))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(record)} operations in {run.EXPECTED}")


if __name__ == "__main__":
    main()
