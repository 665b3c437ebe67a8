"""Search layer: evaluation cache, neighborhoods, greedy walk, multi-start."""

import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (CONFIG_DIR, evaluator_product, fresh_evaluator, full_horizon_return,
                      iter_valid_encodings)
from tlexplain import envs
from tlexplain import formula as fm
from tlexplain import metrics
from tlexplain import product, rl, search
from tlexplain.config import RunConfig, build_runtime, load_config
from tlexplain.product import DENSE, SPARSE, RewardConfig, acceptance_reachable, build_env_model
from tlexplain.search import (
    Evaluator,
    SearchParams,
    _key_stream,
    _SearchContext,
    brute_force_oracle,
    eval_neighbors,
    greedy_search,
    multi_start,
    rank,
    train_policies,
)

TARGET_KEY = "F(psi_ba_rf) & G(!psi_ba_ra | psi_ba_bt)"
QLEARN_CONFIG = Path(__file__).resolve().parent / "data" / "ctf_qlearn" / "config.yaml"
# no explanation's policy on the reference map returns more than this, so
# every candidate is filtered
UNREACHABLE_RETURN = 10.0


def _all_filtered(runtime):
    return replace(runtime.evaluator.params, return_threshold=UNREACHABLE_RETURN)


def _target_encoding(runtime):
    for enc in iter_valid_encodings(3):
        if fm.render(fm.decode(enc), runtime.evaluator.predicates) == TARGET_KEY:
            return enc
    raise AssertionError("target encoding not found")


def _target_canon(runtime):
    return fm.parse_explanation(TARGET_KEY, runtime.evaluator.predicates)


def _by_key(predicates) -> list:
    """The class over ``predicates``, sorted by rendered key."""
    return sorted(fm.enumerate_all(predicates), key=lambda canon: fm.render(canon, predicates))


class TestSearchParams:
    def test_counts_validated(self):
        with pytest.raises(ValueError):
            SearchParams(n_search=0)
        with pytest.raises(ValueError):
            SearchParams(n_ext=-1)

    def test_key_stream_deterministic(self):
        a = _key_stream(7, "F(psi0) & G(psi1)", 0).random(4)
        b = _key_stream(7, "F(psi0) & G(psi1)", 0).random(4)
        c = _key_stream(7, "F(psi0) & G(psi1)", 1).random(4)
        assert np.array_equal(a, b) and not np.array_equal(a, c)


class TestEvaluate:
    def test_target_self_match(self, reference_runtime):
        record = reference_runtime.evaluator.evaluate(_target_canon(reference_runtime))
        assert not record.filtered
        assert record.wkl == 0.0
        assert record.mean_return > 0.05

    def test_cache_hit_skips_retraining(self, reference_runtime, monkeypatch):
        ev = fresh_evaluator(reference_runtime)
        canon = _target_canon(reference_runtime)
        trained, _, _ = _training_spy(monkeypatch)
        first = ev.evaluate(canon)
        assert sum(trained) == 1
        second = ev.evaluate(canon)
        assert second is first
        assert sum(trained) == 1

    def test_cache_soundness_across_evaluators(self, reference_runtime):
        canon = _target_canon(reference_runtime)
        neighbor = fm.parse_explanation("F(psi_ba_rf) & G(psi_ba_ra | psi_ba_bt)",
                                        reference_runtime.evaluator.predicates)
        a1 = fresh_evaluator(reference_runtime)
        a2 = fresh_evaluator(reference_runtime)
        for canon_i in (canon, neighbor):
            r1, r2 = a1.evaluate(canon_i), a2.evaluate(canon_i)
            assert r1 == r2

    def test_no_convergence_names_candidate(self, reference_runtime):
        trainer = replace(reference_runtime.evaluator.trainer_cfg, max_iterations=2)
        ev = fresh_evaluator(reference_runtime, trainer=trainer)
        with pytest.raises(rl.NoConvergenceError) as excinfo:
            ev.evaluate(_target_canon(reference_runtime))
        assert TARGET_KEY in str(excinfo.value)
        assert "2 sweeps" in str(excinfo.value)

    def test_unsatisfiable_on_map_is_filtered(self):
        """The goal is walled off, so the F-part can never fire."""
        env = envs.NavEnv(envs.NavMap.parse("S.#G\n..##\n....\n"))
        model = build_env_model(env)
        preds = (fm.AtomicPredicate(0, "psi0", 0, 1.0),
                 fm.AtomicPredicate(1, "psi1", 1, 1.0))
        uniform = rl.TabularPolicy(
            np.full((model.n_rows, model.n_actions), 1.0 / model.n_actions))
        sample = metrics.build_sample(model, uniform, metrics.MetricConfig(sample_size=8),
                                      np.random.default_rng(0))
        cfg = RunConfig(envs.EnvConfig("S.#G\n..##\n....\n", type="nav"), [],
                        RewardConfig(), rl.TrainerConfig(tau=0.01),
                        metrics.MetricConfig(), SearchParams(), {})
        ev = Evaluator(model, preds, sample, cfg)
        record = ev.evaluate(fm.parse_explanation("F(psi0) & G(!psi1)", preds))
        assert record.filtered and record.mean_return <= 0.05


def _training_spy(monkeypatch) -> tuple[list[int], list[int], list[int]]:
    """Records the number of tables each ``rl.soft_value_iteration`` call
    trains, the number of tables in each of its sweeps, and the number of
    products in each ``product.average_returns`` call of the evaluator."""
    trained, widths, groups = [], [], []
    vi, softmax, returns = rl.soft_value_iteration, rl._action_softmax, search.average_returns

    def counting_vi(tables, *args, **kwargs):
        trained.append(0)

        def counted():
            for table in tables:
                trained[-1] += 1
                yield table
        return vi(counted(), *args, **kwargs)

    def recording_softmax(q, tau):
        if q.ndim == 3:      # a soft-VI sweep; Q-learning's final softmax is 2-D
            widths.append(q.shape[0])
        return softmax(q, tau)

    def recording_returns(mdps, policies):
        groups.append(len(mdps))
        return returns(mdps, policies)

    monkeypatch.setattr(rl, "soft_value_iteration", counting_vi)
    monkeypatch.setattr(rl, "_action_softmax", recording_softmax)
    monkeypatch.setattr(search, "average_returns", recording_returns)
    return trained, widths, groups


def _product_groups(ev) -> list[list]:
    """Reachable reference candidates grouped by equal product, in
    enumeration order."""
    groups = {}
    for canon in fm.enumerate_all(ev.predicates):
        mdp = evaluator_product(ev, canon)
        if acceptance_reachable(mdp.model, mdp.q_next):
            groups.setdefault(mdp.q_next.tobytes() + mdp.reward_next.tobytes(), []).append(canon)
    return list(groups.values())


class TestEvaluateMany:
    """Batched evaluation against one candidate at a time: ``evaluate`` on
    each in turn, or a batch budget of one cell, which trains every
    candidate alone."""

    @staticmethod
    def _assert_same_evaluators(a, b):
        assert list(a.cache) == list(b.cache)
        assert [repr(r) for r in a.cache.values()] == [repr(r) for r in b.cache.values()]
        assert (a.n_unreachable, a.n_product_hits) == (b.n_unreachable, b.n_product_hits)

    def test_oracle_matches_one_at_a_time(self, reference_runtime, monkeypatch):
        trained, widths, _ = _training_spy(monkeypatch)
        batched = fresh_evaluator(reference_runtime)
        brute_force_oracle(batched)
        assert trained == [39]
        batched_widths = widths[:]
        serial = fresh_evaluator(reference_runtime)
        for canon in fm.enumerate_all(serial.predicates):
            serial.evaluate(canon)
        assert sum(trained[1:]) == 39 and max(trained[1:]) == 1
        # each table sweeps as often in its slot as alone
        assert sum(batched_widths) == len(widths) - len(batched_widths)
        self._assert_same_evaluators(batched, serial)
        assert (batched.n_unreachable, batched.n_product_hits) == (52, 5)

    def test_search_matches_one_at_a_time(self, reference_runtime, monkeypatch):
        params = reference_runtime.evaluator.params
        batched = fresh_evaluator(reference_runtime)
        result = multi_start(batched, params)
        monkeypatch.setattr(search, "VI_BATCH_CELLS", 1)
        serial = fresh_evaluator(reference_runtime)
        expected = multi_start(serial, params)
        assert repr(result) == repr(expected)
        self._assert_same_evaluators(batched, serial)

    def test_slots_hold_the_budget(self, reference_runtime, monkeypatch):
        """The oracle's tables sweep in as many slots as tables reach
        ``VI_BATCH_CELLS`` cells of the full model, never more: the last
        table takes its slot while the slots hold fewer cells.  The slots
        stay full until the stream runs out, and the returns are taken in
        groups of as many."""
        _, widths, groups = _training_spy(monkeypatch)
        brute_force_oracle(fresh_evaluator(reference_runtime))
        cells = 462 * 5
        full = -(-search.VI_BATCH_CELLS // cells)   # tables that reach the budget
        assert (full - 1) * cells < search.VI_BATCH_CELLS <= full * cells
        assert max(widths) == full and widths == sorted(widths, reverse=True)
        assert groups[:-1] == [full] * (len(groups) - 1) and 1 <= groups[-1] <= full
        assert sum(groups) == 39

    def test_q_learning_candidates_train_as_they_come(self, monkeypatch):
        """Under Q-learning each of the 44 candidates the n=3 oracle trains
        has its replicates trained, on the streams keyed by its own
        explanation, and its return taken alone before the next candidate's
        product is built; the records, order and counters are those of
        evaluating one canon at a time."""
        runtime = build_runtime(load_config(QLEARN_CONFIG))
        _, _, groups = _training_spy(monkeypatch)
        events = []

        def record(module, name, event):
            original = getattr(module, name)

            def recording(*args, **kwargs):
                events.append(event)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)

        record(search, "ProductMdp", "build")
        record(rl, "q_learning", "train")
        record(search, "average_returns", "return")
        streamed = fresh_evaluator(runtime)
        brute_force_oracle(streamed)
        n_rep = runtime.evaluator.params.n_rep
        assert events == (["build"] + ["train"] * n_rep + ["return"]) * 44
        assert groups == [1] * 44
        serial = fresh_evaluator(runtime)
        for canon in fm.enumerate_all(serial.predicates):
            serial.evaluate(canon)
        self._assert_same_evaluators(streamed, serial)
        assert (serial.n_unreachable, serial.n_product_hits) == (52, 0)

    @pytest.mark.parametrize("config", [CONFIG_DIR / "ctf_reference.yaml",
                                        CONFIG_DIR / "ctf_n4.yaml", QLEARN_CONFIG],
                             ids=["ctf_reference.yaml", "ctf_n4.yaml", "ctf_qlearn"])
    def test_products_are_let_go_once_scored(self, config, monkeypatch):
        """A candidate's product is let go once it is scored.  At each
        return call, under soft VI, no more products are alive than a group
        of ``slots`` and the ``slots - 1`` tables still sweeping beside its
        last one (21 on ctf5); under Q-learning only the one being scored.
        None is alive once the oracle returns."""
        ev = build_runtime(load_config(config)).evaluator
        slots = -(-search.VI_BATCH_CELLS // (ev.model.n_rows * ev.model.n_actions))
        bound = 2 * slots - 1 if ev.trainer_cfg.mode == rl.EXACT_SOFT_VI else 1
        built, alive = [], []
        build, returns = search.ProductMdp, search.average_returns

        def tracked(*args, **kwargs):
            mdp = build(*args, **kwargs)
            built.append(weakref.ref(mdp))
            return mdp

        def counting(mdps, policies):
            alive.append(sum(ref() is not None for ref in built))
            assert alive[-1] >= len(mdps)
            return returns(mdps, policies)

        monkeypatch.setattr(search, "ProductMdp", tracked)
        monkeypatch.setattr(search, "average_returns", counting)
        brute_force_oracle(ev)
        assert alive and max(alive) <= bound
        assert all(ref() is None for ref in built)

    def test_equal_products_in_one_batch_train_once(self, reference_runtime, monkeypatch):
        ev = fresh_evaluator(reference_runtime)
        first, second = next(g for g in _product_groups(ev) if len(g) > 1)[:2]
        trained, _, _ = _training_spy(monkeypatch)
        a, b = ev.evaluate_many([first, second])
        assert trained == [1] and ev.n_product_hits == 1
        assert b == replace(a, key=fm.render(second, ev.predicates)) and a.key != b.key
        assert list(ev.cache) == [a.key, b.key]

    def test_repeated_canon_is_evaluated_once(self, reference_runtime, monkeypatch):
        ev = fresh_evaluator(reference_runtime)
        canon = _target_canon(reference_runtime)
        trained, _, _ = _training_spy(monkeypatch)
        a, b = ev.evaluate_many([canon, canon])
        assert a is b and trained == [1] and ev.n_product_hits == 0

    def test_row_classes_change_no_record(self, monkeypatch):
        """The n=4 oracle trained on the model's quotient, and again with
        every state its own class, where the quotient is the model itself:
        the same records, field for field and bit for bit."""
        cfg = load_config(CONFIG_DIR / "ctf_n4.yaml")
        classes = build_runtime(cfg).evaluator
        ranked, filtered = brute_force_oracle(classes)
        assert (len(classes.product_model.states), classes.product_model.n_rows) == (138, 126)
        monkeypatch.setattr(product, "row_partition", lambda model: np.arange(len(model.states)))
        rows = build_runtime(cfg).evaluator
        assert rows.product_model is rows.model and rows.model.n_rows == 462
        ranked_rows, filtered_rows = brute_force_oracle(rows)
        assert len(ranked + filtered) == 1408
        assert ([repr(r) for r in ranked_rows + filtered_rows]
                == [repr(r) for r in ranked + filtered])
        self._assert_same_evaluators(classes, rows)

    def test_policy_path_target_on_row_classes(self, reference_runtime, reference_config,
                                               tmp_path):
        """The explanation target's policy, saved to a file and loaded as
        the target, on ctf5, where the quotient merges rows: the oracle
        gives the explanation target's records, field for field."""
        path = tmp_path / "target_policy.txt"
        reference_runtime.target.save(path)
        runtime = build_runtime(replace(reference_config, target={"policy_path": str(path)}))
        ev = runtime.evaluator
        assert runtime.target_key is None and ev.product_model.n_rows == 126
        assert runtime.target.probs.tobytes() == reference_runtime.target.probs.tobytes()
        expected = fresh_evaluator(reference_runtime)
        assert ([repr(r) for r in sum(brute_force_oracle(ev), [])]
                == [repr(r) for r in sum(brute_force_oracle(expected), [])])
        self._assert_same_evaluators(ev, expected)

    def test_no_convergence_names_the_first_candidate(self, reference_runtime):
        """In 20 sweeps, in key order, the first trained candidate converges
        and the second does not: the stream holding both fails on the
        candidate, and with the residual, that evaluation one at a time
        fails on.  Its cache then holds a prefix of what one at a time
        enters before failing, and its product memo names only cached
        candidates."""
        trainer = replace(reference_runtime.evaluator.trainer_cfg, max_iterations=20)
        serial = fresh_evaluator(reference_runtime, trainer=trainer)
        canons = _by_key(serial.predicates)
        with pytest.raises(rl.NoConvergenceError) as expected:
            for canon in canons:
                serial.evaluate(canon)
        assert serial.n_unreachable < len(serial.cache)   # one was trained first
        streamed = fresh_evaluator(reference_runtime, trainer=trainer)
        with pytest.raises(rl.NoConvergenceError) as excinfo:
            streamed.evaluate_many(canons)
        assert str(excinfo.value) == str(expected.value)
        assert str(excinfo.value).startswith("candidate ")
        entered = len(streamed.cache)
        assert [(k, repr(r)) for k, r in streamed.cache.items()] == \
            [(k, repr(r)) for k, r in serial.cache.items()][:entered]
        assert set(streamed._products.values()) <= set(streamed.cache)


class TestEvalNeighbors:
    def _ctx(self, runtime, params=None):
        ev = fresh_evaluator(runtime, search=params or runtime.evaluator.params)
        return _SearchContext(ev, params or ev.params, trace=[])

    def test_buffer_sorted_and_unique(self, reference_runtime):
        ctx = self._ctx(reference_runtime)
        enc = _target_encoding(reference_runtime)
        buffer = eval_neighbors(enc, ctx, step=1)
        wkls = [record.wkl for record, _ in buffer]
        assert wkls == sorted(wkls)
        keys = [record.key for record, _ in buffer]
        assert len(set(keys)) == len(keys)

    def test_stalled_center_triggers_expansion(self, reference_runtime):
        ctx = self._ctx(reference_runtime)
        enc = _target_encoding(reference_runtime)
        buffer = eval_neighbors(enc, ctx, step=1)
        assert buffer[0][0].key == TARGET_KEY  # global optimum stalls
        assert any(node.move == "expansion" for node in ctx.trace)

    def test_improving_center_skips_expansion(self, reference_runtime):
        # start from a neighbor of the optimum: the head strictly improves
        ctx = self._ctx(reference_runtime)
        enc = _target_encoding(reference_runtime)
        preds = reference_runtime.evaluator.predicates
        neighbor = next(
            nb for nb in fm.neighborhood(enc)
            if fm.render(fm.decode(nb), preds) != TARGET_KEY
            and TARGET_KEY in {fm.render(fm.decode(nb2), preds)
                               for nb2 in fm.neighborhood(nb)})
        buffer = eval_neighbors(neighbor, ctx, step=1)
        center_key = fm.render(fm.decode(neighbor), preds)
        if buffer[0][0].key != center_key:
            assert not any(node.move == "expansion" for node in ctx.trace)

    def test_expansion_disabled_is_respected(self, reference_runtime):
        params = replace(reference_runtime.evaluator.params, expansion_enabled=False)
        ctx = self._ctx(reference_runtime, params)
        buffer = eval_neighbors(_target_encoding(reference_runtime), ctx, step=1)
        assert buffer
        assert not any(node.move == "expansion" for node in ctx.trace)

    @pytest.mark.parametrize("expansion_enabled", [True, False])
    def test_all_filtered_is_empty(self, reference_runtime, expansion_enabled):
        params = replace(_all_filtered(reference_runtime), expansion_enabled=expansion_enabled)
        ctx = self._ctx(reference_runtime, params)
        assert eval_neighbors(_target_encoding(reference_runtime), ctx, step=1) == []
        assert ctx.trace and all(node.filtered for node in ctx.trace)
        # an empty neighbourhood is a stall: the expansion set is evaluated
        assert any(node.move == "expansion" for node in ctx.trace) == expansion_enabled


class TestGreedySearch:
    def test_start_at_optimum_stays(self, reference_runtime):
        ev = fresh_evaluator(reference_runtime)
        ctx = _SearchContext(ev, ev.params, trace=[])
        enc = next(e for e in iter_valid_encodings(3)
                   if fm.render(fm.decode(e), ev.predicates) == TARGET_KEY)
        record = greedy_search(enc, ctx)
        assert record.key == TARGET_KEY and record.wkl == 0.0

    def test_all_filtered_finds_nothing(self, reference_runtime):
        params = _all_filtered(reference_runtime)
        ctx = _SearchContext(fresh_evaluator(reference_runtime, search=params), params,
                             trace=[])
        assert greedy_search(_target_encoding(reference_runtime), ctx) is None
        assert ctx.trace[0].move == "init"
        assert all(node.filtered for node in ctx.trace)

    def test_zero_n_ext_probes_nothing(self, reference_runtime):
        def moves(n_ext):
            params = replace(reference_runtime.evaluator.params, n_ext=n_ext)
            result = multi_start(fresh_evaluator(reference_runtime, search=params), params)
            return {node.move for node in result.traces}

        assert "extension" in moves(3)
        assert "extension" not in moves(0)

    def test_trace_parents_form_a_forest(self, reference_runtime):
        result = multi_start(fresh_evaluator(reference_runtime),
                             replace(reference_runtime.evaluator.params, n_search=3))
        for node in result.traces:
            if node.move == "init":
                assert node.parent is None
            else:
                assert node.parent is not None


class TestMultiStart:
    def test_deterministic(self, reference_runtime):
        params = reference_runtime.evaluator.params
        r1 = multi_start(fresh_evaluator(reference_runtime), params)
        r2 = multi_start(fresh_evaluator(reference_runtime), params)
        assert r1.results == r2.results
        assert r1.traces == r2.traces

    def test_searched_fractions_in_unit_interval(self, reference_runtime):
        result = multi_start(fresh_evaluator(reference_runtime),
                             reference_runtime.evaluator.params)
        assert 0.0 < result.overall_searched_frac <= 1.0
        for res in result.results:
            assert 0.0 < res.searched_frac <= 1.0

    def test_single_restart_reduces_to_greedy(self, reference_runtime):
        params = replace(reference_runtime.evaluator.params, n_search=1)
        result = multi_start(fresh_evaluator(reference_runtime), params)
        assert len(result.results) == 1

    def test_all_filtered_restarts_are_empty(self, reference_runtime):
        params = _all_filtered(reference_runtime)
        result = multi_start(fresh_evaluator(reference_runtime, search=params), params)
        assert len(result.results) == params.top_k
        for res in result.results:
            assert res.key is None and res.utility is None and res.record is None
            assert 0.0 < res.searched_frac <= 1.0
        assert all(node.filtered for node in result.traces)

    def test_empty_restarts_sort_after_found_ones(self):
        # n=4, seed 5: restarts 6 and 8 start where every candidate is filtered
        cfg = load_config(CONFIG_DIR / "ctf_n4.yaml")
        cfg.seed = 5
        result = multi_start(build_runtime(cfg).evaluator, cfg.search)
        assert [res.restart for res in result.results if res.record is None] == [6, 8]
        found = [res.record is not None for res in result.results]
        assert found == sorted(found, reverse=True)
        for res in result.results:
            assert (res.key, res.utility) == ((res.record.key, res.record.utility)
                                              if res.record else (None, None))

    def test_denominator_is_canonical_count(self, reference_runtime):
        result = multi_start(fresh_evaluator(reference_runtime),
                             replace(reference_runtime.evaluator.params, n_search=1))
        assert result.denominator == 96


class TestSearchedFractions:
    """A restart's ``searched_frac`` counts the keys among its trace nodes;
    a spy on ``Evaluator.evaluate_many`` checks that these are the keys it
    evaluated."""

    @staticmethod
    def _check(evaluator, params, monkeypatch):
        evaluated, current = {}, [None]   # restart -> keys; the restart running
        greedy, evaluate_many = search.greedy_search, Evaluator.evaluate_many

        def spy_greedy(start, ctx):
            current[0] = ctx.restart
            return greedy(start, ctx)

        def spy_evaluate_many(self, canons):
            records = evaluate_many(self, canons)
            evaluated.setdefault(current[0], set()).update(r.key for r in records)
            return records

        monkeypatch.setattr(search, "greedy_search", spy_greedy)
        monkeypatch.setattr(Evaluator, "evaluate_many", spy_evaluate_many)
        result = multi_start(evaluator, params)
        assert sorted(evaluated) == list(range(params.n_search))
        for i, keys in evaluated.items():
            assert keys == {node.key for node in result.traces if node.restart == i}
        for res in result.results:
            assert res.searched_frac == len(evaluated[res.restart]) / result.denominator
        everything = set().union(*evaluated.values())
        assert result.overall_searched_frac == len(everything) / result.denominator
        return result

    def test_reference(self, reference_runtime, monkeypatch):
        self._check(fresh_evaluator(reference_runtime), reference_runtime.evaluator.params,
                    monkeypatch)

    def test_empty_restarts(self, monkeypatch):
        # n=4, seed 5: restarts 6 and 8 find nothing, but evaluate and trace
        cfg = load_config(CONFIG_DIR / "ctf_n4.yaml")
        cfg.seed = 5
        result = self._check(build_runtime(cfg).evaluator, cfg.search, monkeypatch)
        empty = [res for res in result.results if res.record is None]
        assert [res.restart for res in empty] == [6, 8]
        assert all(res.searched_frac > 0 for res in empty)

    def test_warm_cache(self, reference_runtime, monkeypatch):
        # the oracle first, as the reference walkthrough demo runs them: every
        # key a restart evaluates is a cache hit
        ev = fresh_evaluator(reference_runtime)
        brute_force_oracle(ev)
        self._check(ev, reference_runtime.evaluator.params, monkeypatch)


@pytest.fixture(scope="module")
def oracle(reference_runtime):
    return brute_force_oracle(fresh_evaluator(reference_runtime))


class TestBruteForceOracle:

    def test_partition_covers_enumeration(self, oracle):
        ranked, filtered = oracle
        assert len(ranked) + len(filtered) == 96

    def test_ranked_sorted_by_wkl(self, oracle):
        ranked, _ = oracle
        wkls = [r.wkl for r in ranked]
        assert wkls == sorted(wkls)

    def test_head_is_target(self, oracle):
        ranked, _ = oracle
        assert ranked[0].key == TARGET_KEY and ranked[0].wkl == 0.0

    def test_orders_its_output(self, oracle):
        # the enumeration yields in generation order, not by key
        ranked, filtered = oracle
        assert [rank(r) for r in ranked] == sorted(rank(r) for r in ranked)
        assert [r.key for r in filtered] == sorted(r.key for r in filtered)

    def test_records_are_slotted(self, oracle):
        """An oracle holds one record per explanation: no record of any
        kind (scored, filtered after training, unreachable, or a reused
        product's copy) carries an instance dict."""
        ranked, filtered = oracle
        assert {type(r) for r in ranked + filtered} == {search.UtilityRecord}
        assert not any(hasattr(r, "__dict__") for r in ranked + filtered)
        assert any(r.filtered and r.mean_return == 0.0 for r in filtered)

    @pytest.mark.parametrize("config", [CONFIG_DIR / "ctf_reference.yaml",
                                        CONFIG_DIR / "ctf_n4.yaml", QLEARN_CONFIG],
                             ids=["ctf_reference.yaml", "ctf_n4.yaml", "ctf_qlearn"])
    def test_records_do_not_depend_on_evaluation_order(self, config, monkeypatch):
        """The n=3 and n=4 classes under soft VI, and the n=3 class under
        Q-learning, evaluated in generation order, key order and two seeded
        shuffles, which change the batches and which member of a product
        class trains: the same record per key, the same counters and the
        same oracle lists."""
        runtime = build_runtime(load_config(config))
        generated = list(fm.enumerate_all(runtime.evaluator.predicates))
        orders = [generated, _by_key(runtime.evaluator.predicates)]
        for seed in (1, 2):
            shuffle = np.random.default_rng(seed).permutation(len(generated))
            orders.append([generated[i] for i in shuffle])
        outcomes = []
        for order in orders:
            monkeypatch.setattr(fm, "enumerate_all",
                                lambda predicates, cap, order=order: iter(order))
            ev = fresh_evaluator(runtime)
            ranked, filtered = brute_force_oracle(ev)
            outcomes.append(({key: repr(r) for key, r in ev.cache.items()},
                             ev.n_unreachable, ev.n_product_hits,
                             [repr(r) for r in ranked], [repr(r) for r in filtered]))
        assert len(outcomes[0][0]) == len(generated)
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    def test_obeys_enumeration_cap(self, reference_runtime):
        params = replace(reference_runtime.evaluator.params, enumeration_cap=2)
        with pytest.raises(fm.CapExceededError):
            brute_force_oracle(fresh_evaluator(reference_runtime, search=params))

    def test_search_never_beats_oracle(self, oracle, reference_runtime):
        ranked, _ = oracle
        result = multi_start(fresh_evaluator(reference_runtime),
                             reference_runtime.evaluator.params)
        best = result.results[0]
        assert best.utility <= ranked[0].utility + 1e-12
        assert best.key == ranked[0].key  # equality holds on the reference map


def _reference_record(ev, canon):
    """The evaluation without shortcuts: train, select a replicate, take the
    full-horizon return, then filter or score."""
    key = fm.render(canon, ev.predicates)
    mdp = evaluator_product(ev, canon)
    [(_, policy)], = train_policies([(None, mdp, key)], ev.cfg, ev.sample.rows)
    mean_return = full_horizon_return(mdp, policy)
    if mean_return <= ev.params.return_threshold:
        return search.UtilityRecord(key, None, mean_return)
    return search.UtilityRecord(key, -metrics.utility(policy, ev.sample), mean_return)


class TestExactShortcuts:
    @pytest.mark.parametrize("trainer, threshold, reward", [
        (rl.EXACT_SOFT_VI, 0.05, SPARSE), (rl.Q_LEARNING, 0.05, SPARSE),
        (rl.EXACT_SOFT_VI, -0.5, SPARSE), (rl.EXACT_SOFT_VI, 0.05, DENSE)])
    def test_oracle_matches_reference_evaluation(self, reference_runtime, trainer,
                                                 threshold, reward):
        """Every record is the reference's; a candidate that cannot accept
        holds the bound 0.0 as its return, where the reference holds the
        trained policy's return, which is <= 0."""
        base = reference_runtime.evaluator.cfg
        ev = fresh_evaluator(
            reference_runtime,
            reward=replace(base.reward, mode=reward),
            trainer=replace(base.trainer, mode=trainer, episodes=8),
            search=replace(base.search, n_rep=2, return_threshold=threshold))
        brute_force_oracle(ev)
        if trainer == rl.Q_LEARNING:
            model, of_row = search.product_model(ev.model, ev.cfg)
            assert model is ev.model and np.array_equal(of_row, np.arange(model.n_rows))
            assert np.array_equal(ev._product_sample.rows, ev.sample.rows)
        prefilter = reward == SPARSE and threshold >= 0
        unreachable, trained = 0, set()
        for canon in fm.enumerate_all(ev.predicates):
            record, ref = ev.cache[fm.render(canon, ev.predicates)], _reference_record(ev, canon)
            mdp = evaluator_product(ev, canon)
            if prefilter and not acceptance_reachable(mdp.model, mdp.q_next):
                unreachable += 1
                assert record.filtered and record.mean_return == 0.0 and ref.mean_return <= 0
                record = replace(record, mean_return=ref.mean_return)
            else:
                trained.add(mdp.q_next.tobytes() + mdp.reward_next.tobytes())
            assert repr(record) == repr(ref)
        assert ev.n_unreachable == unreachable
        assert unreachable == (52 if prefilter else 0)
        reused = 96 - unreachable - len(trained) if trainer == rl.EXACT_SOFT_VI else 0
        assert ev.n_product_hits == reused
        assert (reused > 0) == (trainer == rl.EXACT_SOFT_VI)
        assert len(ev.cache) == 96

    @staticmethod
    def _count_calls(monkeypatch, owner, name) -> list:
        """Record the arguments of every call of ``owner.name`` from now on."""
        calls, original = [], getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_unreachable_candidate_builds_no_product(self, reference_runtime, monkeypatch):
        ev = fresh_evaluator(reference_runtime)
        built = self._count_calls(monkeypatch, search.ProductMdp, "__init__")
        preds = ev.predicates
        unreachable = fm.parse_explanation("F(!psi_ba_bt) & G(psi_ba_rf & psi_ba_ra)", preds)
        assert ev.evaluate(unreachable).filtered and ev.n_unreachable == 1
        assert built == []
        assert not ev.evaluate(_target_canon(reference_runtime)).filtered
        assert len(built) == 1
        brute_force_oracle(ev)
        assert (ev.n_unreachable, ev.n_product_hits) == (52, 5)
        assert len(built) == 96 - 52

    def test_each_distinct_q_next_is_searched_once(self, monkeypatch):
        """The n=4 oracle: 1,408 candidates, 336 distinct ``q_next``."""
        ev = build_runtime(load_config(CONFIG_DIR / "ctf_n4.yaml")).evaluator
        searched = self._count_calls(monkeypatch, search, "acceptance_reachable")
        ranked, filtered = brute_force_oracle(ev)
        assert (len(ranked), len(filtered)) == (568, 840)
        assert (ev.n_unreachable, ev.n_product_hits) == (820, 291)
        distinct = {q_next.tobytes() for _, q_next in searched}
        assert len(searched) == len(distinct) == 336
        assert all(q_next.dtype == np.int8 for _, q_next in searched)
