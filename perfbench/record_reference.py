"""Record reference.json: each workload's costs.csv at its default seed.

Run from the repository root, at the commit whose costs are the reference:

    python3 perfbench/record_reference.py

check.py compares later runs at the default seed against these values.
"""

import json
import os
import subprocess
import sys

import yaml

import check
import run
from worker import WORKLOADS, config_path


def main():
    run.pin_blas_threads(1)
    workloads = {}
    for workload in sorted(WORKLOADS):
        with open(config_path(workload), encoding="utf-8") as fh:
            seed = int(yaml.safe_load(fh)["seed"])
        out_dir = os.path.join(run.OUT_ROOT, "reference", workload)
        cmd = [sys.executable, os.path.join(run.HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--out", out_dir]
        result = json.loads(subprocess.run(cmd, cwd=run.ROOT, check=True,
                                           capture_output=True, text=True).stdout.splitlines()[-1])
        if result["error"]:
            raise SystemExit(f"{workload}: {result['error']}")
        with open(os.path.join(out_dir, "costs.csv"), encoding="utf-8") as fh:
            rows = check.parse_costs(fh.read())
        workloads[workload] = {"seed": seed, "rows": {k: [m, s] for k, (m, s, _) in rows.items()}}
        print(f"{workload}: {len(rows)} rows at seed {seed}")
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"workloads": workloads}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
