"""Time one cold set-up in a fresh interpreter: importing the library and
loading the named catalog entries.  Prints one JSON line: the set-up time,
the mean load time per entry, and the host_speed loop samples taken just
before and after.

    python3 perfbench/setup_probe.py c2*c3 pgl2z
"""
import json
import sys
import time
from pathlib import Path

import host_speed


def main(names: list[str]) -> int:
    before = host_speed.loop_seconds()
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import amalgrowth

    loads = []
    for name in names:
        t = time.perf_counter()
        amalgrowth.catalog_load(name)
        loads.append(time.perf_counter() - t)
    setup = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup, "load_s": sum(loads) / len(loads),
                      "loop_s": [before, host_speed.loop_seconds()]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
