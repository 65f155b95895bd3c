"""Record perfbench/reference.json: the pinned outputs of every catalogue
instance of every workload, as the checked-out lumpkit computes them.

    python3 perfbench/record_reference.py

Re-record only for a change that is meant to alter these outputs, and say so
where the change is described.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, plain_call, load_lumpkit  # noqa: E402
from workloads import WORKLOADS, instance_id  # noqa: E402


def main() -> int:
    lk = load_lumpkit()
    warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"lumpkit\.")
    reference = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for key in workload.instances:
            inputs = workload.prepare(ROOT, key)
            output, _ = workload.run(lk, inputs, plain_call)
            problems, observed, _ = workload.observe(lk, inputs, output)
            if problems:
                raise SystemExit(f"{name} {instance_id(key)}: {problems}")
            reference[name][instance_id(key)] = observed
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
