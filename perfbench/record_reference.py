"""Record the reference pass values checked by every benchmark run.

    python3 perfbench/record_reference.py

Runs each workload's pass on the fixed reference inputs and writes the job
summaries to perfbench/reference.json.  Re-record only when a change is
meant to alter the program's numbers, and say so with the change.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    cli = run.import_roughkit()
    reference = {}
    for name in run.workloads.WORKLOADS:
        work_dir = os.path.join(run.ROOT, ".perfbench_work", f"record-{name}-{os.getpid()}")
        try:
            runner = run.Runner(cli, name, run.REFERENCE_SEED, work_dir)
            reference[name] = runner.reference_pass(record=True)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
    with open(run.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
