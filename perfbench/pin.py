"""Re-record the pinned per-op outputs of the default seed.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs each workload once, untraced, at the default seed and the run
length ``BENCHMARK.json`` sets, and writes every op's simulated output
to ``pins/<workload>.json``.  ``proc.py`` counts an op whose output
differs from its pin as failed, and fails every op of a default-seed
run whose pins are missing or hold another op count.  Re-pin only when
a change is meant to alter simulated behaviour, and say so in the
change.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import child  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        run_seconds = json.load(handle)["run_seconds"]
    for workload in args.workloads:
        result = child(workload, DEFAULT_SEED, run_seconds, "run",
                       time.monotonic() + 600, extra=["--outputs"])
        if result["failed"]:
            print("%s: %d ops failed, not pinned: %s"
                  % (workload, result["failed"], result["errors"]))
            return 1
        path = os.path.join(HERE, "pins", workload + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write('{"workload": %s, "seed": %d, "ops": %d, '
                         '"digest": %s, "outputs": [\n'
                         % (json.dumps(workload), DEFAULT_SEED,
                            result["requested"], json.dumps(result["digest"])))
            handle.write(",\n".join(json.dumps(output, sort_keys=True)
                                    for output in result["outputs"]))
            handle.write("\n]}\n")
        print("%s: %d ops pinned, digest %s"
              % (workload, len(result["outputs"]), result["digest"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
