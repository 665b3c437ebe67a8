"""Discrete surrogate environments and their distance features.

Two gridworlds are provided:

* :class:`CtfEnv` -- adversarial capture-the-flag.  The blue agent is the
  explained policy; the red agent follows a deterministic border-defense
  heuristic.  Adjacent agents fight: the intruder dies with probability 0.75
  in the defender's territory.
* :class:`NavEnv` -- single-agent goal/hazard/vase navigation with
  deterministic 4-neighborhood dynamics.

Both maps extend one grid, which parses the map text and holds the move
table that both envs step through; the CtF map also tabulates, per cell,
the distances its red defender steers by and the ``d_ba_bt`` feature.

Both expose the same four-call tabular interface, which
``product.build_env_model`` reads once to enumerate the reachable states:

* ``initial_states()`` -- the start distribution, ``[(state, prob)]``;
* ``transitions(s, a)`` -- the exact next-state distribution;
* ``features(s)`` -- the distance features the predicates threshold, as a
  tuple of floats;
* ``is_terminal(s)`` -- whether an episode ends in ``s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

Cell = tuple[int, int]

# the action set of both environments; a move into a wall or off the map stays put
ACTION_NAMES = ("up", "down", "left", "right", "stay")
ACTION_DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))
# the return filter makes one backward pass per step: ~11 us on ctf5 (2-vCPU Xeon)
MAX_HORIZON = 10_000


class StepOnTerminalError(RuntimeError):
    pass


class StateSpaceTooLargeError(RuntimeError):
    pass


class MapFormatError(ValueError):
    pass


@dataclass
class EnvConfig:
    """The ``environment`` config section: map, start cells and horizon."""

    map_text: str
    type: str = "ctf"
    horizon: int = 100
    random_starts: bool = False
    blue_start: Cell | None = None   # ctf only; default the flag cell
    red_start: Cell | None = None

    def __post_init__(self):
        if self.type not in ("ctf", "nav"):
            raise ValueError(f"type must be 'ctf' or 'nav', got {self.type!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.horizon > MAX_HORIZON:
            raise ValueError(f"horizon must be <= {MAX_HORIZON}, got {self.horizon}")
        for name in ("blue_start", "red_start"):
            cell = getattr(self, name)
            # a bool is an int to isinstance, but never a coordinate
            if cell is not None and not (isinstance(cell, (list, tuple)) and len(cell) == 2
                                         and all(type(x) is int for x in cell)):
                raise ValueError(f"{name} must be a [row, column] pair, got {cell!r}")
            setattr(self, name, cell and tuple(cell))
        for name in ("random_starts", "blue_start", "red_start"):
            if self.type == "nav" and getattr(self, name):
                raise ValueError(f"{name} is a ctf setting; a nav map starts at its S cell")
        for name in ("blue_start", "red_start"):
            if self.random_starts and getattr(self, name):
                raise ValueError(_random_starts_clash(name))


def _random_starts_clash(name: str) -> str:
    return (f"{name} cannot be set with random_starts: true, "
            "which starts on every territory cell")


def euclidean(a: Cell, b: Cell) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def chebyshev(a: Cell, b: Cell) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def nearest(cell: Cell, cells, default: float) -> float:
    """The euclidean distance from ``cell`` to the nearest of ``cells``;
    ``default`` when there are none."""
    return min((euclidean(cell, c) for c in cells), default=default)


# ---------------------------------------------------------------------------
# The grid beneath both maps
# ---------------------------------------------------------------------------


def _parse_cells(text: str, symbols: str) -> tuple[int, int, dict[str, list[Cell]]]:
    """The height, width and row-major cells of each of ``symbols`` in a map
    written one row per line; any other character is refused."""
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows or len(set(map(len, rows))) != 1:
        raise MapFormatError("map rows must be nonempty and equal length")
    cells: dict[str, list[Cell]] = {ch: [] for ch in symbols}
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            if ch not in cells:
                raise MapFormatError(f"unknown map character {ch!r}")
            cells[ch].append((r, c))
    return len(rows), len(rows[0]), cells


def _one(cells: dict[str, list[Cell]], ch: str) -> Cell:
    if len(cells[ch]) != 1:
        raise MapFormatError(f"map needs exactly one {ch} cell, got {len(cells[ch])}")
    return cells[ch][0]


@dataclass(frozen=True)
class _Grid:
    """A rectangle of cells, some of them walls."""

    width: int
    height: int
    walls: frozenset[Cell]

    @cached_property
    def moves(self) -> dict[Cell, tuple[Cell, ...]]:
        """Each passable cell's move under each action, in ``ACTION_DELTAS``
        order; a wall or the map edge keeps the agent in place."""
        cells = [(r, c) for r in range(self.height) for c in range(self.width)
                 if (r, c) not in self.walls]
        free = set(cells)
        return {cell: tuple([n if (n := (cell[0] + dr, cell[1] + dc)) in free else cell
                             for dr, dc in ACTION_DELTAS]) for cell in cells}

    def passable(self, cell: Cell) -> bool:
        return cell in self.moves

    @property
    def diagonal(self) -> float:
        return math.hypot(self.height, self.width)


# ---------------------------------------------------------------------------
# Capture the flag
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridMap(_Grid):
    """CtF map: walls, a blue/red territory partition, and two flag cells.

    Text format, one row per line: ``#`` wall, ``b``/``r`` territory cells,
    ``B``/``R`` the blue/red flag (inside their own territory), ``.`` free
    cell defaulting to red territory.
    """

    blue_territory: frozenset[Cell]
    blue_flag: Cell
    red_flag: Cell
    blue_starts: tuple[Cell, ...]
    red_starts: tuple[Cell, ...]

    @classmethod
    def parse(cls, text: str, blue_start: Cell | None = None,
              red_start: Cell | None = None, random_starts: bool = False) -> "GridMap":
        height, width, cells = _parse_cells(text, "#bBrR.")
        blue_flag, red_flag = _one(cells, "B"), _one(cells, "R")
        for name, cell in (("blue_start", blue_start), ("red_start", red_start)):
            if random_starts and cell:
                raise MapFormatError(_random_starts_clash(name))
        if random_starts:
            blue_starts = tuple(sorted(cells["b"])) or (blue_flag,)
            red_starts = tuple(sorted(cells["r"] + cells["."])) or (red_flag,)
        else:
            blue_starts = (blue_start or blue_flag,)
            red_starts = (red_start or red_flag,)
        grid = cls(width, height, frozenset(cells["#"]), frozenset(cells["b"] + cells["B"]),
                   blue_flag, red_flag, blue_starts, red_starts)
        for cell in blue_starts + red_starts:
            if not grid.passable(cell):
                raise MapFormatError(f"start cell {cell} is a wall or outside the map")
        # the red defender's heuristic steers by this border
        if not grid.border_cells():
            raise MapFormatError("blue territory has no passable neighbour outside it")
        return grid

    def border_cells(self) -> tuple[Cell, ...]:
        """Passable cells outside the blue territory next to one inside it."""
        # a blocked move stays on its blue cell, which the difference drops
        return tuple(sorted({nb for cell in self.blue_territory
                             for nb in self.moves[cell][:4]} - self.blue_territory))

    @cached_property
    def near_border(self) -> frozenset[Cell]:
        """Passable cells within Chebyshev distance 2 of a border cell: blue
        standing on one is chased by the red defender, elsewhere red holds
        the border."""
        border = self.border_cells()
        return frozenset(cell for cell in self.moves
                         if min(chebyshev(cell, b) for b in border) <= 2)

    @cached_property
    def border_distance(self) -> dict[Cell, float]:
        """Each passable cell's euclidean distance to the nearest border cell."""
        border = self.border_cells()
        return {cell: nearest(cell, border, self.diagonal) for cell in self.moves}

    @cached_property
    def territory_distance(self) -> dict[Cell, float]:
        """Each passable cell's euclidean distance to the nearest blue
        territory cell (0 inside it): the ``d_ba_bt`` feature."""
        return {cell: nearest(cell, self.blue_territory, self.diagonal)
                for cell in self.moves}


class CtfState(NamedTuple):
    blue: Cell
    red: Cell
    blue_alive: bool = True
    red_alive: bool = True
    blue_captured: bool = False  # blue took the red flag
    red_captured: bool = False


class CtfEnv:
    """Adversarial gridworld; the blue agent is the policy under study.

    Both agents step through the map's move table, and the red defender
    steers by the map's border distance tables.  Enumeration asks for the
    same cells again and again, so the env also memoizes the red defender's
    move per (blue cell, red cell) pair, filled on first use.  The memo
    belongs to this instance: a new env starts with an empty one.
    """

    n_actions = len(ACTION_NAMES)
    feature_names = ("d_ra_bf", "d_ba_rf", "d_ba_ra", "d_ba_bt")
    kill_prob = 0.75

    def __init__(self, grid: GridMap):
        self.grid = grid
        self._red_moves: dict[tuple[Cell, Cell], Cell] = {}

    # -- dynamics ----------------------------------------------------------

    def initial_states(self) -> list[tuple[CtfState, float]]:
        out = []
        p = 1.0 / (len(self.grid.blue_starts) * len(self.grid.red_starts))
        for b in self.grid.blue_starts:
            for r in self.grid.red_starts:
                out.append((CtfState(b, r), p))
        return out

    def is_terminal(self, s: CtfState) -> bool:
        # red's death removes it from play but the episode continues; the
        # explained (blue) agent dying or either flag falling ends it
        return not s.blue_alive or s.blue_captured or s.red_captured

    def _red_move(self, blue: Cell, red: Cell) -> Cell:
        """Deterministic defense: chase blue near the border, else hold it.

        Ties among equally good moves resolve in fixed action order.
        """
        best = self._red_moves.get((blue, red))
        if best is not None:
            return best
        grid = self.grid
        target_dist = ((lambda c: euclidean(c, blue)) if blue in grid.near_border
                       else grid.border_distance.__getitem__)
        best, best_d = red, target_dist(red)
        for cand in grid.moves[red][:4]:
            d = target_dist(cand)
            if d < best_d - 1e-12:
                best, best_d = cand, d
        self._red_moves[blue, red] = best
        return best

    def transitions(self, s: CtfState, action: int) -> list[tuple[CtfState, float]]:
        """Exact next-state distribution for (state, action).

        In a non-terminal state blue is alive and neither flag is taken, so
        each successor's flags follow from where the survivors stand.
        """
        if self.is_terminal(s):
            raise StepOnTerminalError(f"step on terminal state {s}")
        grid = self.grid
        blue = grid.moves[s.blue][action]
        blue_captured = blue == grid.red_flag
        if not s.red_alive:
            return [(CtfState(blue, s.red, True, False, blue_captured), 1.0)]
        red = self._red_move(blue, s.red)
        red_captured = red == grid.blue_flag
        moved = CtfState(blue, red, True, True, blue_captured, red_captured)
        if chebyshev(blue, red) <= 1:
            # combat: territory of the blue agent's cell decides the defender
            if blue in grid.blue_territory:
                dead = CtfState(blue, red, True, False, blue_captured, False)
            else:
                dead = CtfState(blue, red, False, True, False, red_captured)
            return [(dead, self.kill_prob), (moved, 1.0 - self.kill_prob)]
        return [(moved, 1.0)]

    # -- features ----------------------------------------------------------

    def features(self, s: CtfState) -> tuple[float, ...]:
        d_max = self.grid.diagonal
        d_ra_bf = euclidean(s.red, self.grid.blue_flag) if s.red_alive else d_max
        d_ba_rf = euclidean(s.blue, self.grid.red_flag) if s.blue_alive else d_max
        d_ba_ra = euclidean(s.blue, s.red) if (s.blue_alive and s.red_alive) else d_max
        d_ba_bt = self.grid.territory_distance[s.blue] if s.blue_alive else d_max
        return (d_ra_bf, d_ba_rf, d_ba_ra, d_ba_bt)


# ---------------------------------------------------------------------------
# Goal / hazard navigation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NavMap(_Grid):
    """Nav map text format: ``#`` wall, ``.`` free, ``S`` start, ``G`` goal,
    ``H`` hazard, ``V`` vase."""

    start: Cell
    goal: Cell
    hazards: frozenset[Cell]
    vases: frozenset[Cell]

    @classmethod
    def parse(cls, text: str) -> "NavMap":
        height, width, cells = _parse_cells(text, "#.SGHV")
        return cls(width, height, frozenset(cells["#"]), _one(cells, "S"), _one(cells, "G"),
                   frozenset(cells["H"]), frozenset(cells["V"]))


class NavState(NamedTuple):
    pos: Cell


class NavEnv:
    """Deterministic navigation; goal and hazards end the episode, vases do not."""

    n_actions = len(ACTION_NAMES)
    feature_names = ("d_goal", "d_hazard", "d_vase")

    def __init__(self, nav_map: NavMap):
        self.map = nav_map

    def initial_states(self) -> list[tuple[NavState, float]]:
        return [(NavState(self.map.start), 1.0)]

    def is_terminal(self, s: NavState) -> bool:
        return s.pos == self.map.goal or s.pos in self.map.hazards

    def transitions(self, s: NavState, action: int) -> list[tuple[NavState, float]]:
        if self.is_terminal(s):
            raise StepOnTerminalError(f"step on terminal state {s}")
        return [(NavState(self.map.moves[s.pos][action]), 1.0)]

    def features(self, s: NavState) -> tuple[float, ...]:
        d_max = self.map.diagonal
        d_goal = euclidean(s.pos, self.map.goal)
        d_haz = nearest(s.pos, self.map.hazards, d_max)
        d_vase = nearest(s.pos, self.map.vases, d_max)
        return (d_goal, d_haz, d_vase)

