"""Set-up cost of a fresh interpreter: import magnomech, parse, build.

Usage: python3 setup_probe.py SRC_DIR SCENARIO.json [SCENARIO.json ...]

Prints one JSON object with the seconds spent importing the package,
parsing the scenario files and building their systems, and their sum
(`setup_s`). Interpreter start-up before this file runs is not counted.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import magnomech  # noqa: E402

imported = time.perf_counter()
specs = [magnomech.load_scenario(path) for path in sys.argv[2:]]
parsed = time.perf_counter()
systems = [magnomech.build_system(spec) for spec in specs]
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported,
                  "build_s": built - parsed, "setup_s": built - start}))
