"""tlexplain benchmark: time to an explanation on four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own child process (``worker.py``) with BLAS and
OpenMP pinned to one thread, so ``peak_rss_mb`` belongs to that workload
alone.  With one workload the child's report is passed through and its last
line is the result object; with ``all`` (the default) every workload runs in
turn and a table of all metrics is printed.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170   # a run must end within 180 s


def run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[int, list[str]]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        code, lines = run_child(name, args.seed, args.seconds, args.trace)
        if code != 0 or not lines:
            print(f"perfbench: {name} exited with status {code}", file=sys.stderr)
            return code or 1
        if len(names) == 1:
            print("\n".join(lines))
            return 0
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])

    def cell(v: dict) -> str:
        value = "-" if v["value"] is None else f"{v['value']:.6g}"
        return f"{value} {v['unit']}".rjust(20)

    print("\n" + " ".join([f"{'metric':<24}"] + [f"{n:>20}" for n in names]))
    for m in next(iter(results.values()))["metrics"]:
        print(" ".join([f"{m:<24}"] + [cell(results[n]["metrics"][m]) for n in names]))
    rates = [f"{results[n]['failed'] / results[n]['attempted']:.6g}".rjust(20) for n in names]
    print(" ".join([f"{'error_rate':<24}"] + rates))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{m}": v for n, r in results.items()
                    for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
