"""Write the expected result of every workload at the default seed.

    python3 perfbench/expected.py

Run it only when a change is meant to alter the program's outputs, and say
so in the change; the benchmark checks every solve against these files.
"""

from __future__ import annotations

import json
import sys

from worker import OUT, ROOT, load_library, setup
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    load_library()
    import check
    from tlexplain import search

    OUT.mkdir(exist_ok=True)
    check.EXPECTED.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        cfg, runtime = setup(w.write_config(ROOT, DEFAULT_SEED, OUT))
        out = (search.brute_force_oracle(runtime.evaluator) if w.solver == "oracle"
               else search.multi_start(runtime.evaluator, cfg.search))
        problems = check.invariant_problems(w.solver, runtime, out)
        if problems:
            print(f"{w.name}: {problems}", file=sys.stderr)
            return 1
        path = check.expected_path(w.name, DEFAULT_SEED)
        path.write_text(json.dumps(check.summarize(w.solver, runtime, out), indent=1) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
