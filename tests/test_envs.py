"""Gridworld environments: maps, dynamics, combat, features, enumeration."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY, _ctf_text, _nav_text, sampled_successors
from tlexplain import envs
from tlexplain.product import build_env_model

CTF_TEXT = """\
Bbbrr
bbbrr
bbbrr
bbbrr
bbbrR
"""

CTF_WALLED = """\
Bbbrr
bb#rr
bb#rr
bb#rr
bbbrR
"""

# random starts put blue and red next to each other on both sides of the border
CTF_COMBAT = "Bbbrr\nbbbrr\nbbbrR\n"
# the blue flag is on the border, so red can die standing on it
CTF_FLAG_SIDE = "bBrrR\nbbrrr\n"

ROOT = Path(__file__).resolve().parent.parent

NAV_TEXT = """\
S..G
.#V.
.H..
....
"""


def _ctf():
    return envs.CtfEnv(envs.GridMap.parse(CTF_TEXT))


def _state(blue, red, **kw):
    return envs.CtfState(blue=blue, red=red, **kw)


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------


class TestGridMap:
    def test_parse_reference(self):
        grid = envs.GridMap.parse(CTF_TEXT)
        assert (grid.width, grid.height) == (5, 5)
        assert grid.blue_flag == (0, 0) and grid.red_flag == (4, 4)
        assert (2, 2) in grid.blue_territory
        assert (2, 3) not in grid.blue_territory
        assert not grid.walls

    def test_walls_parsed(self):
        grid = envs.GridMap.parse(CTF_WALLED)
        assert (1, 2) in grid.walls
        assert not grid.passable((1, 2))

    def test_unequal_rows_rejected(self):
        with pytest.raises(envs.MapFormatError):
            envs.GridMap.parse("Bb\nbrR\n")

    def test_missing_flag_rejected(self):
        with pytest.raises(envs.MapFormatError):
            envs.GridMap.parse("bbb\nbrr\n")

    def test_duplicate_flag_rejected(self):
        with pytest.raises(envs.MapFormatError):
            envs.GridMap.parse("BB\nrR\n")

    def test_unknown_character_rejected(self):
        with pytest.raises(envs.MapFormatError):
            envs.GridMap.parse("Bx\nrR\n")

    def test_walled_in_blue_territory_rejected(self):
        with pytest.raises(envs.MapFormatError, match="no passable neighbour"):
            envs.GridMap.parse("B#R\n")

    def test_start_in_wall_rejected(self):
        with pytest.raises(envs.MapFormatError):
            envs.GridMap.parse(CTF_WALLED, blue_start=(1, 2))

    @pytest.mark.parametrize("name", ["blue_start", "red_start"])
    def test_start_with_random_starts_rejected(self, name):
        # random starts start on every territory cell, so one start cell
        # would be dropped without a word
        with pytest.raises(envs.MapFormatError,
                           match=f"{name} cannot be set with random_starts: true"):
            envs.GridMap.parse(CTF_TEXT, random_starts=True, **{name: (2, 2)})

    def test_dot_defaults_to_red_territory(self):
        grid = envs.GridMap.parse("Bb..\nbb.R\n")
        assert (0, 2) not in grid.blue_territory

    def test_diagonal(self):
        grid = envs.GridMap.parse(CTF_TEXT)
        assert grid.diagonal == pytest.approx(math.hypot(5, 5))


class TestNavMap:
    def test_parse(self):
        m = envs.NavMap.parse(NAV_TEXT)
        assert m.start == (0, 0) and m.goal == (0, 3)
        assert (2, 1) in m.hazards and (1, 2) in m.vases and (1, 1) in m.walls

    def test_missing_goal_rejected(self):
        with pytest.raises(envs.MapFormatError):
            envs.NavMap.parse("S...\n....\n")

    def test_two_starts_rejected(self):
        with pytest.raises(envs.MapFormatError, match="exactly one S cell, got 2"):
            envs.NavMap.parse("S.S\n...\n..G\n")

    def test_two_goals_rejected(self):
        with pytest.raises(envs.MapFormatError, match="exactly one G cell, got 2"):
            envs.NavMap.parse("S.G\n...\n..G\n")


# ---------------------------------------------------------------------------
# CtF dynamics
# ---------------------------------------------------------------------------


class TestStates:
    def test_ctf_state_is_an_immutable_value(self):
        s = _state((0, 0), (4, 4))
        assert repr(s) == ("CtfState(blue=(0, 0), red=(4, 4), blue_alive=True, "
                           "red_alive=True, blue_captured=False, red_captured=False)")
        same = envs.CtfState((0, 0), (4, 4), True, True, False, False)
        assert same == s and hash(same) == hash(s) and same is not s
        assert s._replace(red_alive=False) != s
        with pytest.raises(AttributeError):
            s.blue = (1, 1)

    def test_nav_state_is_an_immutable_value(self):
        s = envs.NavState((1, 2))
        assert repr(s) == "NavState(pos=(1, 2))"
        assert envs.NavState(pos=(1, 2)) == s and hash(envs.NavState((1, 2))) == hash(s)
        with pytest.raises(AttributeError):
            s.pos = (0, 0)


class TestCtfReset:
    def test_fixed_start_ignores_seed(self):
        # a fixed start is one certain state: there is nothing to draw
        env = _ctf()
        assert env.initial_states() == [(_state((0, 0), (4, 4)), 1.0)]

    def test_random_starts_seed_determinism(self):
        # the start distribution is listed in the same order by every env
        # built from the map, so a seeded draw over it repeats across runs
        envs_ = [envs.CtfEnv(envs.GridMap.parse(CTF_TEXT, random_starts=True))
                 for _ in range(2)]
        assert envs_[0].initial_states() == envs_[1].initial_states()

    def test_random_starts_differ_only_in_positions(self):
        env = envs.CtfEnv(envs.GridMap.parse(CTF_TEXT, random_starts=True))
        seen = {s for s, _ in env.initial_states()}
        assert len(seen) > 1
        for s in seen:
            assert s.blue_alive and s.red_alive
            assert not s.blue_captured and not s.red_captured

    def test_initial_states_distribution_sums_to_one(self):
        env = envs.CtfEnv(envs.GridMap.parse(CTF_TEXT, random_starts=True))
        probs = [p for _, p in env.initial_states()]
        assert sum(probs) == pytest.approx(1.0)


class TestCtfStep:
    def test_wall_blocks_movement(self):
        env = envs.CtfEnv(envs.GridMap.parse(CTF_WALLED))
        s = _state((1, 1), (4, 4))
        [(nxt, p)] = env.transitions(s, envs.ACTION_NAMES.index("right"))
        assert nxt.blue == (1, 1) and p == 1.0

    def test_edge_blocks_movement(self):
        env = _ctf()
        s = _state((0, 0), (4, 4))
        [(nxt, _)] = env.transitions(s, envs.ACTION_NAMES.index("up"))
        assert nxt.blue == (0, 0)

    def test_capture_red_flag_is_terminal(self):
        env = _ctf()
        s = _state((4, 3), (0, 3), red_alive=False)
        [(nxt, _)] = env.transitions(s, envs.ACTION_NAMES.index("right"))
        assert nxt.blue_captured and env.is_terminal(nxt)

    def test_combat_in_blue_territory_kills_red(self):
        env = _ctf()
        s = _state((2, 2), (2, 3))  # adjacent after any stay; blue on blue turf
        branches = env.transitions(s, envs.ACTION_NAMES.index("stay"))
        assert sorted(p for _, p in branches) == [0.25, 0.75]
        dead = next(nxt for nxt, p in branches if p == 0.75)
        alive = next(nxt for nxt, p in branches if p == 0.25)
        assert not dead.red_alive and dead.blue_alive
        assert alive.red_alive and alive.blue_alive

    def test_combat_in_red_territory_kills_blue(self):
        env = _ctf()
        s = _state((1, 3), (0, 3))
        branches = env.transitions(s, envs.ACTION_NAMES.index("stay"))
        dead = next(nxt for nxt, p in branches if p == 0.75)
        assert not dead.blue_alive
        assert env.is_terminal(dead)

    def test_red_death_is_not_terminal(self):
        env = _ctf()
        s = _state((2, 2), (3, 3), red_alive=False)
        assert not env.is_terminal(s)

    def test_dead_red_does_not_move_or_fight(self):
        env = _ctf()
        s = _state((3, 3), (3, 4), red_alive=False)
        [(nxt, p)] = env.transitions(s, envs.ACTION_NAMES.index("right"))
        assert p == 1.0 and nxt.red == (3, 4) and not nxt.red_alive

    def test_kill_frequency_rough(self):
        env = _ctf()
        s = _state((2, 2), (2, 3))
        rng = np.random.default_rng(0)
        stay = envs.ACTION_NAMES.index("stay")
        kills = sum(not nxt.red_alive for nxt in sampled_successors(env, s, stay, 4000, rng))
        assert kills / 4000 == pytest.approx(0.75, abs=0.03)

    def test_step_on_terminal_rejected(self):
        env = _ctf()
        s = _state((4, 4), (0, 3), blue_captured=True)
        with pytest.raises(envs.StepOnTerminalError):
            env.transitions(s, 0)

    def test_probabilities_sum_to_one_everywhere(self):
        env = _ctf()
        for s in build_env_model(env).states:
            if env.is_terminal(s):
                continue
            for a in range(env.n_actions):
                assert sum(p for _, p in env.transitions(s, a)) == pytest.approx(1.0, abs=1e-12)

    def test_red_chases_near_border_else_holds(self):
        env = _ctf()
        # blue deep in its territory, far from the border: red patrols toward
        # the border column and then holds
        s = _state((0, 0), (4, 4))
        [(nxt, _)] = env.transitions(s, envs.ACTION_NAMES.index("stay"))
        assert nxt.red == (4, 3)
        [(nxt2, _)] = env.transitions(nxt, envs.ACTION_NAMES.index("stay"))
        assert nxt2.red == (4, 3)


class TestCtfFeatures:
    def test_names_and_length(self):
        env = _ctf()
        x = env.features(env.initial_states()[0][0])
        assert len(x) == len(env.feature_names) == 4

    def test_blue_on_red_flag(self):
        env = _ctf()
        x = env.features(_state((4, 4), (0, 3)))
        assert x[1] == 0.0

    def test_diagonal_adjacency_distance(self):
        env = _ctf()
        x = env.features(_state((2, 2), (3, 3)))
        assert x[2] == pytest.approx(math.sqrt(2))
        assert x[2] < 1.5

    def test_blue_inside_territory(self):
        env = _ctf()
        assert env.features(_state((2, 1), (4, 4)))[3] == 0.0

    def test_blue_outside_territory(self):
        env = _ctf()
        assert env.features(_state((2, 4), (4, 4)))[3] == pytest.approx(2.0)

    def test_dead_red_distances_are_d_max(self):
        env = _ctf()
        x = env.features(_state((2, 2), (3, 3), red_alive=False))
        d_max = env.grid.diagonal
        assert x[0] == d_max and x[2] == d_max

    def test_features_pure(self):
        env = _ctf()
        s = _state((1, 2), (3, 3))
        assert np.array_equal(env.features(s), env.features(s))


class TestCtfEnumerate:
    def test_no_duplicates(self):
        states = build_env_model(_ctf()).states
        assert len(states) == len(set(states))

    def test_no_wall_positions(self):
        env = envs.CtfEnv(envs.GridMap.parse(CTF_WALLED))
        for s in build_env_model(env).states:
            assert s.blue not in env.grid.walls
            assert s.red not in env.grid.walls

    def test_start_included_and_cap(self):
        env = _ctf()
        states = build_env_model(env).states
        assert env.initial_states()[0][0] in states
        with pytest.raises(envs.StateSpaceTooLargeError, match="more than 10 reachable"):
            build_env_model(env, cap=10)


# ---------------------------------------------------------------------------
# Reference semantics: the dynamics and features computed afresh on every
# call, with no tables or memos, as the envs first computed them
# ---------------------------------------------------------------------------


def _ref_move(grid, cell, action):
    # bounds and walls checked here: the map's passable() reads its move table
    dr, dc = envs.ACTION_DELTAS[action]
    nxt = (cell[0] + dr, cell[1] + dc)
    inside = 0 <= nxt[0] < grid.height and 0 <= nxt[1] < grid.width
    return nxt if inside and nxt not in grid.walls else cell


class TestMovesAgainstReference:
    @PROPERTY
    @given(st.one_of(_nav_text().map(envs.NavMap.parse), _ctf_text().map(envs.GridMap.parse)))
    def test_every_passable_cell_on_random_maps(self, grid):
        free = [(r, c) for r in range(grid.height) for c in range(grid.width)
                if (r, c) not in grid.walls]
        assert list(grid.moves) == free
        for cell in free:
            assert grid.moves[cell] == tuple(_ref_move(grid, cell, a)
                                             for a in range(len(envs.ACTION_DELTAS)))
        # a wall or a cell off the map is not passable
        for r in range(-1, grid.height + 1):
            for c in range(-1, grid.width + 1):
                assert grid.passable((r, c)) == ((r, c) in free)


def _ref_red_move(grid, blue, red):
    border = grid.border_cells()
    near_border = min(envs.chebyshev(blue, b) for b in border) <= 2
    target_dist = ((lambda c: envs.euclidean(c, blue)) if near_border
                   else (lambda c: min(envs.euclidean(c, b) for b in border)))
    best, best_d = red, target_dist(red)
    for a in range(4):
        cand = _ref_move(grid, red, a)
        d = target_dist(cand)
        if d < best_d - 1e-12:
            best, best_d = cand, d
    return best


class TestDistanceTablesAgainstReference:
    @PROPERTY
    @given(_ctf_text())
    def test_every_passable_cell_on_random_maps(self, text):
        grid = envs.GridMap.parse(text)
        border = grid.border_cells()
        free = [(r, c) for r in range(grid.height) for c in range(grid.width)
                if (r, c) not in grid.walls]
        assert grid.near_border <= set(free)
        assert list(grid.border_distance) == list(grid.territory_distance) == free
        for cell in free:
            # _ref_red_move's two formulas, bit for bit
            near = min(envs.chebyshev(cell, b) for b in border) <= 2
            assert (cell in grid.near_border) == near, cell
            want = min(envs.euclidean(cell, b) for b in border)
            assert grid.border_distance[cell].hex() == want.hex(), cell
            want = envs.nearest(cell, grid.blue_territory, grid.diagonal)
            assert grid.territory_distance[cell].hex() == want.hex(), cell


def _ref_finish(grid, s):
    if s.blue_alive and s.blue == grid.red_flag:
        s = s._replace(blue_captured=True)
    if s.red_alive and s.red == grid.blue_flag:
        s = s._replace(red_captured=True)
    return s


def _ref_is_terminal(s):
    return not s.blue_alive or s.blue_captured or s.red_captured


def _ref_transitions(env, s, action):
    grid = env.grid
    if _ref_is_terminal(s):
        raise envs.StepOnTerminalError(f"step on terminal state {s}")
    blue = _ref_move(grid, s.blue, action)
    red = _ref_red_move(grid, blue, s.red) if s.red_alive else s.red
    moved = s._replace(blue=blue, red=red)
    if s.red_alive and envs.chebyshev(blue, red) <= 1:
        if blue in grid.blue_territory:
            dead = moved._replace(red_alive=False)
        else:
            dead = moved._replace(blue_alive=False)
        return [(_ref_finish(grid, dead), env.kill_prob),
                (_ref_finish(grid, moved), 1.0 - env.kill_prob)]
    return [(_ref_finish(grid, moved), 1.0)]


def _ref_features(env, s):
    grid = env.grid
    d_max = grid.diagonal
    d_ra_bf = envs.euclidean(s.red, grid.blue_flag) if s.red_alive else d_max
    d_ba_rf = envs.euclidean(s.blue, grid.red_flag) if s.blue_alive else d_max
    d_ba_ra = envs.euclidean(s.blue, s.red) if (s.blue_alive and s.red_alive) else d_max
    if not s.blue_alive:
        d_ba_bt = d_max
    elif s.blue in grid.blue_territory:
        d_ba_bt = 0.0
    else:
        d_ba_bt = min(envs.euclidean(s.blue, c) for c in sorted(grid.blue_territory))
    return np.array([d_ra_bf, d_ba_rf, d_ba_ra, d_ba_bt])


def _ref_nav_is_terminal(env, s):
    return s.pos == env.map.goal or s.pos in env.map.hazards


def _ref_nav_transitions(env, s, action):
    if _ref_nav_is_terminal(env, s):
        raise envs.StepOnTerminalError(f"step on terminal state {s}")
    return [(envs.NavState(_ref_move(env.map, s.pos, action)), 1.0)]


def _ref_nav_features(env, s):
    m = env.map
    d_max = m.diagonal
    return np.array([envs.euclidean(s.pos, m.goal),
                     min((envs.euclidean(s.pos, c) for c in m.hazards), default=d_max),
                     min((envs.euclidean(s.pos, c) for c in m.vases), default=d_max)])


# (is_terminal, transitions, features) of each env type
CTF_REF = (lambda env, s: _ref_is_terminal(s), _ref_transitions, _ref_features)
NAV_REF = (_ref_nav_is_terminal, _ref_nav_transitions, _ref_nav_features)


def _ref_reachable(env, ref=CTF_REF):
    """Every state reachable under the reference dynamics, breadth-first."""
    is_terminal, transitions, _ = ref
    seen = dict.fromkeys(s for s, _ in env.initial_states())
    states = list(seen)
    for s in states:
        if not is_terminal(env, s):
            for a in range(env.n_actions):
                for nxt, _ in transitions(env, s, a):
                    if nxt not in seen:
                        seen[nxt] = None
                        states.append(nxt)
    return states


def _assert_matches_reference(env, states, ref=CTF_REF):
    """``env``'s terminal test, branches (states, order, probability bits)
    and feature bits equal the reference on every state and action."""
    is_terminal, transitions, features = ref
    for s in states:
        assert env.is_terminal(s) == is_terminal(env, s)
        got, want = np.array(env.features(s)), features(env, s)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), s
        if env.is_terminal(s):
            continue
        for a in range(env.n_actions):
            got, want = env.transitions(s, a), transitions(env, s, a)
            assert repr(got) == repr(want), (s, a)
            assert [p.hex() for _, p in got] == [p.hex() for _, p in want]


def _ctf_map(name):
    if name == "ctf5":
        return envs.GridMap.parse((ROOT / "configs/maps/ctf5.txt").read_text())
    if name == "ctf7":
        return envs.GridMap.parse((ROOT / "perfbench/maps/ctf7.txt").read_text(),
                                  random_starts=True)
    text = {"combat": CTF_COMBAT, "flag-side": CTF_FLAG_SIDE}[name]
    return envs.GridMap.parse(text, random_starts=True)


class TestCtfAgainstReference:
    @pytest.mark.parametrize("name", ["ctf5", "ctf7", "combat", "flag-side"])
    def test_every_reachable_state_and_action(self, name):
        env = envs.CtfEnv(_ctf_map(name))
        states = _ref_reachable(env)
        _assert_matches_reference(env, states)
        # the model enumerates exactly the reference's states, in its order
        assert build_env_model(envs.CtfEnv(_ctf_map(name))).states == states

    def test_combat_map_fights_in_both_territories(self):
        env = envs.CtfEnv(_ctf_map("combat"))
        outcomes = [nxt for s in _ref_reachable(env) if not _ref_is_terminal(s)
                    and s.red_alive for a in range(env.n_actions)
                    for nxt, _ in _ref_transitions(env, s, a)]
        assert any(not nxt.red_alive for nxt in outcomes)
        assert any(not nxt.blue_alive for nxt in outcomes)

    def test_memos_belong_to_one_env(self):
        # the two maps share cells but not borders or territories, so a
        # memo shared between envs would hand one map the other's moves
        first, second = envs.CtfEnv(_ctf_map("ctf5")), envs.CtfEnv(
            envs.GridMap.parse(CTF_WALLED))
        model = build_env_model(first)
        build_env_model(second)
        _assert_matches_reference(second, _ref_reachable(second))
        again = envs.CtfEnv(_ctf_map("ctf5"))
        assert not again._red_moves
        rebuilt = build_env_model(again)
        assert rebuilt.states == model.states
        for name in ("features", "branch_next", "branch_prob", "cell_offsets"):
            assert np.array_equal(getattr(rebuilt, name), getattr(model, name)), name
        _assert_matches_reference(again, rebuilt.states)


# ---------------------------------------------------------------------------
# Nav dynamics
# ---------------------------------------------------------------------------


class TestNavEnv:
    def _env(self):
        return envs.NavEnv(envs.NavMap.parse(NAV_TEXT))

    def test_goal_is_terminal_with_zero_distance(self):
        env = self._env()
        s = envs.NavState((0, 3))
        assert env.is_terminal(s)
        assert env.features(s)[0] == 0.0

    def test_hazard_is_terminal(self):
        env = self._env()
        assert env.is_terminal(envs.NavState((2, 1)))

    def test_vase_is_not_terminal(self):
        env = self._env()
        s = envs.NavState((1, 2))
        assert not env.is_terminal(s)
        assert env.features(s)[2] == 0.0

    def test_deterministic_single_branch(self):
        env = self._env()
        for s in build_env_model(env).states:
            if env.is_terminal(s):
                continue
            for a in range(env.n_actions):
                branches = env.transitions(s, a)
                assert len(branches) == 1 and branches[0][1] == 1.0

    def test_wall_blocks(self):
        env = self._env()
        [(nxt, _)] = env.transitions(envs.NavState((1, 0)), envs.ACTION_NAMES.index("right"))
        assert nxt.pos == (1, 0)

    def test_state_count_bound(self):
        env = self._env()
        nonterminal = [s for s in build_env_model(env).states if not env.is_terminal(s)]
        assert len(nonterminal) <= 16

    def test_no_hazard_map_features_default_to_d_max(self):
        env = envs.NavEnv(envs.NavMap.parse("S..G\n....\n"))
        x = env.features(env.initial_states()[0][0])
        assert x[1] == env.map.diagonal and x[2] == env.map.diagonal


NAV_MAPS = {"nav-text": NAV_TEXT, "no-hazards": "S..G\n....\n",
            "nav10": (ROOT / "perfbench/maps/nav10.txt").read_text()}


class TestNavAgainstReference:
    @pytest.mark.parametrize("name", list(NAV_MAPS))
    def test_every_reachable_state_and_action(self, name):
        env = envs.NavEnv(envs.NavMap.parse(NAV_MAPS[name]))
        states = _ref_reachable(env, NAV_REF)
        _assert_matches_reference(env, states, NAV_REF)
        assert build_env_model(env).states == states

    @PROPERTY
    @given(_nav_text())
    def test_every_reachable_state_on_random_maps(self, text):
        env = envs.NavEnv(envs.NavMap.parse(text))
        states = _ref_reachable(env, NAV_REF)
        _assert_matches_reference(env, states, NAV_REF)
        assert build_env_model(env).states == states
