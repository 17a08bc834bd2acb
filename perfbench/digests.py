"""Record every workload's input digest for seeds 0-15 in ``digests.json``.

Run from the root of a checkout after a deliberate change to the input
generators::

    python3 perfbench/digests.py

``run.py`` counts every operation of a run as failed when the run's input
digest differs from the one recorded here for its seed, or when seed 0's
inputs, regenerated on every run, no longer match their recorded digest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(16)


def main() -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.run import import_program

    import_program()
    from perfbench.workloads import WORKLOADS

    table = {
        name: {str(seed): workload.inputs(seed)["input_digest"] for seed in SEEDS}
        for name, workload in WORKLOADS.items()
    }
    path = ROOT / "perfbench" / "digests.json"
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
