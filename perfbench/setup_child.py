"""Time one set-up of a workload in a fresh process.

    python3 perfbench/setup_child.py <workload> <seed> <params-json> <launched-at>

``launched-at`` is the parent's ``time.time()`` taken just before it started
this process.  The child imports the package, runs the workload's set-up
(transforms and round 0's inputs) and prints, as JSON, the seconds from
launch to the end of set-up: the set-up time a user of the workload pays.
"""

import bootstrap

bootstrap.init()

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    name, seed, params, launched = sys.argv[1:5]
    workloads.WORKLOADS[name](int(seed), json.loads(params)).setup()
    print(json.dumps({"setup_s": time.time() - float(launched)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
