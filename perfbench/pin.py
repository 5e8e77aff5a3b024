"""Record the pinned outcomes the correctness gate checks.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --seeds 1 2

Runs every workload once per seed and writes ``expected.json``: the
dispatched-event count and the per-flow rate hash of each
(workload, seed).  Re-pin only in a change that is meant to alter the
simulated outcome, never in one that claims a speed-up.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, TIME_LIMIT, gate, run_worker
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    pins: dict[str, dict[str, dict[str, object]]] = {}
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            rep = run_worker(workload, seed, False, TIME_LIMIT, None)
            reason = gate(rep, None)
            if reason is not None:
                print(f"{name} seed {seed}: {reason}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = {
                "events": rep["events"],
                "rates_sha256": rep["rates_sha256"],
            }
            print(f"{name} seed {seed}: {rep['events']} events")
    (HERE / "expected.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
