"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json

import pytest

import worker
from layers import COUNTS, layer_metrics
from tracer import STEP, TRACED, Tracer, _owner_and_attr
from workloads import DEFAULT_SEED, WORKLOADS

worker.load_library()
import check  # noqa: E402  (needs tlexplain on the path)
from tlexplain import search  # noqa: E402


def _bindings():
    out = {}
    for module, path in [(m, p) for m, p, _ in TRACED] + [STEP]:
        owner, attr = _owner_and_attr(module, path)
        out[module, path] = owner.__dict__[attr]
    return out


def _traced(name: str):
    tracer = Tracer()
    inst = worker.run_instance(WORKLOADS[name], DEFAULT_SEED, tracer)
    assert inst.ok, inst.problems
    setup = next(i for i, s in enumerate(tracer.spans) if s.name == "setup")
    solve = next(i for i, s in enumerate(tracer.spans) if s.name == "solve")
    return tracer, inst, layer_metrics(tracer, setup, solve, inst.searched_frac), solve


@pytest.fixture(scope="module")
def qlearn_twice():
    """Two traced solves of the one workload where every counter is nonzero."""
    worker.OUT.mkdir(exist_ok=True)
    return _traced("ctf5-qlearn-search"), _traced("ctf5-qlearn-search")


def test_tracer_restores_library():
    before = _bindings()
    tracer = Tracer().install()
    try:
        patched = _bindings()
        assert all(patched[k] is not before[k] for k in before)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_leaves_library_unpatched(qlearn_twice):
    from tlexplain import config, fspa, product, rl
    assert search.build_fspa is fspa.build_fspa
    assert config.build_env_model is product.build_env_model
    assert not hasattr(rl.soft_value_iteration, "__wrapped__")
    assert not hasattr(search.Evaluator.evaluate, "__wrapped__")
    assert not hasattr(product.ProductMdp.product_step, "__wrapped__")


def test_traced_counts_repeat_exactly(qlearn_twice):
    (_, _, first, _), (_, _, second, _) = qlearn_twice
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["search.evals"] > 0 and first["product.steps"] > 0
    assert first["fspa.builds_per_eval"] > 0 and first["product.tables_per_eval"] > 0
    assert 0 < first["search.cache_hit_ratio"] < 1


def test_self_times_cover_the_solve(qlearn_twice):
    tracer, inst, _, solve = qlearn_twice[0]
    assert all(s.self_s >= -1e-9 for s in tracer.spans)
    spans = tracer.spans[solve:]   # the solve is the instance's last phase
    # product_step calls are leaves folded into their parent span
    total = sum(s.self_s + s.step_s for s in spans)
    assert total == pytest.approx(tracer.spans[solve].duration, abs=1e-9)
    # the traced solve time differs from the span only by the tracer's own cost
    assert 0 <= inst.solve_s - tracer.spans[solve].duration < 0.01 * inst.solve_s


@pytest.mark.parametrize("name", ["ctf5-oracle", "nav-dense-search"])
def test_check_rejects_perturbed_expected(name, tmp_path, monkeypatch):
    w = WORKLOADS[name]
    worker.OUT.mkdir(exist_ok=True)
    cfg, runtime = worker.setup(w.write_config(worker.ROOT, DEFAULT_SEED, worker.OUT))
    out = (search.brute_force_oracle(runtime.evaluator) if w.solver == "oracle"
           else search.multi_start(runtime.evaluator, cfg.search))
    assert check.check(name, DEFAULT_SEED, w.solver, runtime, out) == []

    expected = json.loads(check.expected_path(name, DEFAULT_SEED).read_text())
    key, value = expected["top"][0]
    expected["top"][0] = [key, value + 1e-6]
    monkeypatch.setattr(check, "EXPECTED", tmp_path)
    check.expected_path(name, DEFAULT_SEED).write_text(json.dumps(expected))
    assert check.check(name, DEFAULT_SEED, w.solver, runtime, out)

    expected["top"][0] = [key, value]
    expected["top"][0], expected["top"][-1] = expected["top"][-1], expected["top"][0]
    check.expected_path(name, DEFAULT_SEED).write_text(json.dumps(expected))
    assert check.check(name, DEFAULT_SEED, w.solver, runtime, out)
