"""Run one workload in this process and print its metrics; see run.py.

Untraced (``--trace 0``): solve fresh problem instances back to back until
``--seconds`` is spent.  Instance 0 uses the run seed as the config seed;
later instances use seeds derived from it.  Each instance is set up
(``load_config`` + ``build_runtime``) twice and solved (oracle or
``multi_start``) once, and its output is checked; a failed instance gets no
timing.

Times are corrected for host speed.  On a shared host the same solve took
1.9-3.7 s, in slow and fast spells lasting from seconds to minutes, so a
fixed calibration computation (``calibrate``) runs between instances, and
each instance's times are scaled by ``CAL_REF_S`` over the mean calibration
time around it.  The run reports medians over its instances.

Traced (``--trace 1``): solve the run seed's instance untraced for half the
time, then traced for the rest, and report the per-layer metrics of the
traced solves and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUPS = 2       # set-ups per untraced instance; set-up is short and noisy
CAL_REPS = 1500
CAL_REF_S = 0.128  # fastest calibrate() seen on a 2-vCPU Xeon VM; sets the scale


def load_library():
    """Import tlexplain from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tlexplain" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tlexplain sources under {src}")
    sys.path.insert(0, str(src))
    import tlexplain
    if Path(tlexplain.__file__).resolve().parent != (src / "tlexplain").resolve():
        raise SystemExit(f"perfbench: imported tlexplain from {tlexplain.__file__}")


def env_record() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def instance_seed(seed: int, i: int) -> int:
    if i == 0:
        return seed
    import numpy as np
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] % 2**31)


def calibrate() -> float:
    """Time a fixed computation that does not use tlexplain.

    It mixes small-array numpy calls (as in soft VI) with a pure-Python loop
    (as in Q-learning), so its time tracks the host's speed for this kind of
    work, whatever the program under test does.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    n_rows, n_actions, n_branches = 462, 5, 2617
    cells = np.sort(rng.integers(0, n_rows * n_actions, n_branches))
    nxt = rng.integers(-1, n_rows, n_branches)
    prob, reward = rng.random(n_branches), rng.random(n_branches)
    v = np.zeros(n_rows)
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        v_next = np.where(nxt >= 0, v[nxt], 0.0)
        q = np.bincount(cells, weights=prob * (reward + 0.95 * v_next),
                        minlength=n_rows * n_actions).reshape(n_rows, n_actions)
        m = q.max(axis=1, keepdims=True)
        v = 0.01 * (m + np.log(np.exp(q - m).sum(axis=1, keepdims=True)))[:, 0]
        acc = 0
        for i in range(200):
            acc += i * i
    return time.perf_counter() - t0


@dataclass
class Instance:
    """One set-up + solve of a workload at one config seed."""

    seed: int
    setups: list[float] = field(default_factory=list)
    solve_s: float | None = None
    evals: int = 0
    searched_frac: float = 0.0
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    speed: float = 1.0        # CAL_REF_S / calibration time around it
    tracer: object = None

    @property
    def ok(self) -> bool:
        return self.solve_s is not None and not self.problems


def setup(cfg_path, tracer=None):
    from tlexplain import config
    idx = tracer.open("setup") if tracer else None
    cfg = config.load_config(cfg_path)
    runtime = config.build_runtime(cfg)
    if tracer:
        tracer.close(idx)
    return cfg, runtime


def run_instance(workload, seed: int, tracer=None, setups: int = 1) -> Instance:
    from tlexplain import search
    import check
    inst = Instance(seed)
    cfg_path = workload.write_config(ROOT, seed, OUT)
    try:
        if tracer:
            tracer.install()
        try:
            for _ in range(setups):
                t0 = time.perf_counter()
                cfg, runtime = setup(cfg_path, tracer)
                inst.setups.append(time.perf_counter() - t0)
            t1 = time.perf_counter()
            idx = tracer.open("solve") if tracer else None
            if workload.solver == "oracle":
                out = search.brute_force_oracle(runtime.evaluator)
            else:
                out = search.multi_start(runtime.evaluator, cfg.search)
            if tracer:
                tracer.close(idx)
            t2 = time.perf_counter()
        finally:
            if tracer:
                tracer.uninstall()
        inst.solve_s = t2 - t1
        inst.evals = len(runtime.evaluator.cache)
        inst.searched_frac = (inst.evals / sum(map(len, out)) if workload.solver == "oracle"
                              else out.overall_searched_frac)
        inst.problems = check.check(workload.name, seed, workload.solver, runtime, out)
    except Exception as exc:  # a failed solve is counted, not fatal
        traceback.print_exc()
        inst.problems = [f"raised {type(exc).__name__}: {exc}"]
    for p in inst.problems:
        print(f"perfbench: {workload.name} seed {seed}: {p}", file=sys.stderr)
    return inst


def instances(workload, seed_of, deadline: float, setups: int = 1,
              traced: bool = False) -> list[Instance]:
    """Run instances until the next one would end after ``deadline``.

    A calibration runs before the first instance and after each one; the mean
    of the two around an instance sets its host-speed factor.
    """
    from tracer import Tracer
    runs: list[Instance] = []
    before = calibrate()
    while True:
        start = time.perf_counter()
        tracer = Tracer() if traced else None
        inst = run_instance(workload, seed_of(len(runs)), tracer, setups)
        after = calibrate()
        inst.speed = CAL_REF_S / (0.5 * (before + after))
        inst.tracer, inst.wall_s = tracer, time.perf_counter() - start
        runs.append(inst)
        before = after
        if time.perf_counter() + median(r.wall_s for r in runs) > deadline:
            return runs


def untraced(workload, seed: int, seconds: float) -> tuple[dict, list[Instance]]:
    runs = instances(workload, lambda i: instance_seed(seed, i),
                     time.perf_counter() + seconds, setups=SETUPS)
    setups = [t * r.speed for r in runs for t in r.setups]
    ok = [r for r in runs if r.ok]
    metrics = {
        "setup_s": (median(setups) if setups else None, "s"),
        "solve_s": (median(r.solve_s * r.speed for r in ok) if ok else None, "s"),
        "evals_per_s": (median(r.evals / (r.solve_s * r.speed) for r in ok)
                        if ok else None, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    return metrics, runs


def traced(workload, seed: int, seconds: float) -> tuple[dict, list[Instance]]:
    from layers import COUNTS, METRICS, layer_metrics
    start = time.perf_counter()
    plain = instances(workload, lambda i: seed, start + seconds / 2)
    runs = instances(workload, lambda i: seed, start + seconds, traced=True)
    per_run = []
    for inst in (r for r in runs if r.ok):
        spans = inst.tracer.spans
        setup_idx = next(i for i, s in enumerate(spans) if s.name == "setup")
        solve_idx = next(i for i, s in enumerate(spans) if s.name == "solve")
        layers = layer_metrics(inst.tracer, setup_idx, solve_idx, inst.searched_frac)
        per_run.append({k: v * inst.speed if METRICS[k][0] in ("s", "ms") else v
                        for k, v in layers.items()})
        if any(per_run[-1][k] != per_run[0][k] for k in COUNTS):
            inst.problems.append("traced counts differ between traced solves")
    for n, inst in enumerate(runs):
        inst.tracer.dump(OUT / f"{workload.name}-seed{seed}-spans{n}.json")
    solve_plain = [r.solve_s * r.speed for r in plain if r.ok]
    solve_traced = [r.solve_s * r.speed for r in runs if r.ok]
    metrics = {}
    for name, (unit, _) in METRICS.items():
        if name == "trace.overhead_s":
            value = (median(solve_traced) - median(solve_plain)
                     if solve_plain and solve_traced else None)
        elif not per_run:
            value = None
        elif name in COUNTS:
            value = per_run[0][name]
        else:
            value = median(m[name] for m in per_run)
        metrics[name] = (value, unit)
    return metrics, plain + runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    load_library()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = env_record()

    measure = traced if args.trace else untraced
    metrics, runs = measure(workload, args.seed, args.seconds)
    failed = sum(not r.ok for r in runs)
    solves = [r.solve_s for r in runs if r.ok]
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(runs)} solves, {failed} failed; uncorrected median solve "
          f"{median(solves) if solves else float('nan'):.4g} s at host speed "
          f"{median(r.speed for r in runs):.3g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value if value is None else f'{value:.6g}'} {unit}")
    print(f"  {'error_rate':<24} {failed / len(runs):.6g} ({failed}/{len(runs)})")
    print("env " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "instances": [
            {"seed": r.seed, "speed": r.speed, "setups": r.setups, "solve_s": r.solve_s,
             "evals": r.evals, "problems": r.problems} for r in runs]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
