"""Similarity metric: sampling, KL, normalized entropy, weights, utility."""

import numpy as np
import pytest
from scipy.special import softmax, xlogy

from tlexplain import envs
from tlexplain import metrics
from tlexplain.product import build_env_model
from tlexplain.rl import TabularPolicy


def _policy(rows):
    return TabularPolicy(np.asarray(rows, dtype=float))


def _random_policy(n_rows, n_actions, rng, sharpness=1.0):
    return _policy(softmax(sharpness * rng.normal(size=(n_rows, n_actions)), axis=1))


@pytest.fixture(scope="module")
def nav_model():
    return build_env_model(envs.NavEnv(envs.NavMap.parse("S...\n....\n..G.\n")))


class TestSampleNontrap:
    def test_full_set_when_n_covers_all(self, nav_model, rng):
        rows = metrics.sample_nontrap(nav_model, nav_model.n_rows, rng)
        assert rows == list(range(nav_model.n_rows))

    def test_equal_seeds_identical(self, nav_model):
        r1 = metrics.sample_nontrap(nav_model, 5, np.random.default_rng(3))
        r2 = metrics.sample_nontrap(nav_model, 5, np.random.default_rng(3))
        assert r1 == r2

    def test_without_replacement_when_possible(self, nav_model, rng):
        rows = metrics.sample_nontrap(nav_model, nav_model.n_rows - 1, rng)
        assert len(set(rows)) == len(rows)

    def test_with_replacement_when_oversampled(self, nav_model, rng):
        rows = metrics.sample_nontrap(nav_model, nav_model.n_rows * 3, rng)
        assert len(rows) == nav_model.n_rows * 3

    def test_rows_are_nonterminal_states(self, nav_model, rng):
        # policy rows exclude terminal env states, hence every sampled product
        # state has automaton component q0 (non-trap by construction)
        env = nav_model.env
        for r in metrics.sample_nontrap(nav_model, 10, rng):
            assert not env.is_terminal(nav_model.states[nav_model.rows[r]])

    def test_size_must_be_positive(self, nav_model, rng):
        with pytest.raises(ValueError):
            metrics.sample_nontrap(nav_model, 0, rng)


class TestKl:
    def test_identity_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert metrics.kl_rows(p, p) == 0.0

    def test_closed_form(self):
        val = metrics.kl_rows(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert val == pytest.approx(np.log(2), abs=1e-6)

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(10_000):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert metrics.kl_rows(p, q) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics.kl_rows(np.ones(2) / 2, np.ones(3) / 3)

    def test_rows_match_scalar(self, rng):
        p = rng.dirichlet(np.ones(5), size=20)
        q = rng.dirichlet(np.ones(5), size=20)
        rows = metrics.kl_rows(p, q)
        for i in range(20):
            assert rows[i] == pytest.approx(metrics.kl_rows(p[i], q[i]))

    def test_finite_for_zero_entries(self):
        assert np.isfinite(metrics.kl_rows(np.array([1.0, 0.0]), np.array([0.0, 1.0])))

    @pytest.mark.parametrize("direction", [np.inf, -np.inf])
    def test_rows_one_ulp_apart_are_nonnegative(self, rng, direction):
        """Unclipped, about half of these rows sum to about -1e-16."""
        p = rng.dirichlet(np.ones(5), size=2000)
        assert (metrics.kl_rows(p, np.nextafter(p, direction)) >= 0.0).all()


class TestNormalizedEntropy:
    def test_uniform_is_zero(self):
        p = np.full(5, 0.2)
        assert metrics.normalized_entropy(p, np.log(5)) == pytest.approx(0.0)

    def test_deterministic_is_one(self):
        assert metrics.normalized_entropy(np.array([0.0, 1.0]), np.log(2)) == 1.0

    def test_in_unit_interval(self, rng):
        for _ in range(500):
            p = rng.dirichlet(np.ones(4))
            val = metrics.normalized_entropy(p, np.log(4))
            assert -1e-12 <= val <= 1.0 + 1e-12

    def test_h_max_must_be_positive(self):
        with pytest.raises(ValueError):
            metrics.normalized_entropy(np.array([1.0]), 0.0)


def _entropy_rows(kind, rng):
    n = 5
    if kind == "one-hot":
        return np.eye(n)
    if kind == "uniform":
        return np.full((4, n), 1.0 / n)
    p = rng.dirichlet(np.ones(n), size=500)
    if kind == "with zeros":
        p[rng.random(p.shape) < 0.4] = 0.0
        p[:, 0] += p.sum(axis=1) == 0
        p /= p.sum(axis=1, keepdims=True)
    return p


ENTROPY_ROWS = ("one-hot", "uniform", "with zeros", "dirichlet")


class TestXlogx:
    """The numpy ``p * log(p)`` against scipy's ``xlogy(p, p)`` as reference."""

    def test_exactly_zero_where_p_is_zero(self, rng):
        p = _entropy_rows("with zeros", rng)
        out = metrics.xlogx(p)
        assert (p == 0).any()
        assert (out[p == 0] == 0.0).all()

    @pytest.mark.parametrize("kind", ENTROPY_ROWS)
    def test_no_floating_point_warning(self, rng, kind):
        p = _entropy_rows(kind, rng)
        with np.errstate(all="raise"):
            metrics.xlogx(p)

    @pytest.mark.parametrize("kind", ENTROPY_ROWS)
    def test_row_sums_match_xlogy(self, rng, kind):
        p = _entropy_rows(kind, rng)
        diff = metrics.xlogx(p).sum(axis=-1) - xlogy(p, p).sum(axis=-1)
        assert np.abs(diff).max() <= 1e-15


class TestWeights:
    def test_deterministic_target_uniform_weights(self):
        target = _policy(np.eye(4))
        w = metrics.weights(target, [0, 1, 2, 3])
        assert np.allclose(w, 0.25)

    def test_sum_to_one(self, rng):
        target = _random_policy(10, 4, rng)
        w = metrics.weights(target, list(range(10)))
        assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_ablation_sets_unit_weights(self):
        target = _policy(np.eye(3))
        w = metrics.weights(target, [0, 1, 2], enabled=False)
        assert np.array_equal(w, np.ones(3))

    def test_uniform_target_degenerate_fallback(self):
        target = _policy(np.full((3, 4), 0.25))
        w = metrics.weights(target, [0, 1, 2])
        assert np.allclose(w, 1 / 3)

    def test_concentrates_on_decisive_states(self):
        target = _policy([[1.0, 0.0], [0.5, 0.5], [0.9, 0.1]])
        w = metrics.weights(target, [0, 1, 2])
        assert w[0] > w[2] > w[1]
        assert w[1] == pytest.approx(0.0)

    def test_uniform_row_weighs_exactly_zero(self):
        """The normalized entropy of a uniform 5-action row is -2.2e-16 in
        floating point; clipped, the row weighs nothing."""
        assert metrics.normalized_entropy(np.full(5, 0.2), np.log(5)) < 0
        target = _policy([[1.0, 0, 0, 0, 0], np.full(5, 0.2), [0.6, 0.1, 0.1, 0.1, 0.1]])
        w = metrics.weights(target, [0, 1, 2])
        assert w[1] == 0.0 and (w >= 0).all()

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            metrics.weights(_policy(np.eye(2)), [])


class TestUtility:
    def _sample(self, target, rows, enabled=True):
        w = metrics.weights(target, rows, enabled=enabled)
        return metrics.StateSample(tuple(rows), w, metrics.clamped_rows(target, rows),
                                   metrics.KL_EPS)

    def test_self_match_is_zero(self, rng):
        target = _random_policy(8, 4, rng, sharpness=3.0)
        record = metrics.utility(target, self._sample(target, range(8)))
        assert record.wkl == 0.0 and record.utility == 0.0

    def test_utility_is_exact_negation(self, rng):
        target = _random_policy(8, 4, rng, sharpness=3.0)
        cand = _random_policy(8, 4, rng)
        record = metrics.utility(cand, self._sample(target, range(8)))
        assert record.utility == -record.wkl
        assert record.utility <= 0.0

    def test_order_invariance(self, rng):
        target = _random_policy(8, 4, rng, sharpness=3.0)
        cand = _random_policy(8, 4, rng)
        rows = [1, 3, 5, 7]
        a = metrics.utility(cand, self._sample(target, rows))
        b = metrics.utility(cand, self._sample(target, rows[::-1]))
        assert a.wkl == pytest.approx(b.wkl, rel=1e-12)

    def test_unit_weight_ablation_is_unnormalized_sum(self, rng):
        target = _random_policy(6, 3, rng, sharpness=3.0)
        cand = _random_policy(6, 3, rng)
        rows = list(range(6))
        record = metrics.utility(cand, self._sample(target, rows, enabled=False))
        manual = sum(metrics.kl_rows(cand.probs[r], target.probs[r]) for r in rows)
        assert record.wkl == pytest.approx(manual, rel=1e-12)

    def test_matching_target_row_never_decreases_utility(self, rng):
        target = _random_policy(6, 3, rng, sharpness=3.0)
        cand = _random_policy(6, 3, rng)
        sample = self._sample(target, range(6))
        base = metrics.utility(cand, sample).utility
        for r in range(6):
            improved_probs = cand.probs.copy()
            improved_probs[r] = target.probs[r]
            improved = _policy(improved_probs)
            assert metrics.utility(improved, sample).utility >= base - 1e-12

    def test_disagreement_on_zero_weight_rows_costs_nothing(self, rng):
        """A candidate that differs from the target only where the target is
        uniform scores wKL exactly 0, not below it."""
        target = _policy([[0.9, 0.1, 0, 0, 0], np.full(5, 0.2), np.full(5, 0.2),
                          [0, 0, 0.5, 0.5, 0]])
        cand = target.probs.copy()
        cand[1:3] = rng.dirichlet(np.ones(5), size=2)
        record = metrics.utility(_policy(cand), self._sample(target, range(4)))
        assert record.wkl == 0.0

    def test_coverage_gap_rejected(self, rng):
        target = _random_policy(8, 4, rng)
        cand = _random_policy(4, 4, rng)
        with pytest.raises(metrics.CoverageGapError):
            metrics.utility(cand, self._sample(target, range(8)))


class TestBuildSample:
    def test_deterministic_and_weighted(self, nav_model, rng):
        target = _random_policy(nav_model.n_rows, nav_model.n_actions,
                                np.random.default_rng(0), sharpness=3.0)
        metric = metrics.MetricConfig(sample_size=6, kl_eps=1e-6)
        s1 = metrics.build_sample(nav_model, target, metric, np.random.default_rng(5))
        s2 = metrics.build_sample(nav_model, target, metric, np.random.default_rng(5))
        assert s1.rows == s2.rows
        assert np.array_equal(s1.weights, s2.weights)
        assert s1.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert s1.eps == metric.kl_eps
        assert (s1.target_rows.tobytes()
                == metrics.clamped_rows(target, s1.rows, metric.kl_eps).tobytes())
