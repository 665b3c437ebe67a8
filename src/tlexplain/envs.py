"""Discrete surrogate environments and their distance features.

Two gridworlds are provided:

* :class:`CtfEnv` -- adversarial capture-the-flag.  The blue agent is the
  explained policy; the red agent follows a deterministic border-defense
  heuristic.  Adjacent agents fight: the intruder dies with probability 0.75
  in the defender's territory.
* :class:`NavEnv` -- single-agent goal/hazard/vase navigation with
  deterministic 4-neighborhood dynamics.

Both expose the same four-call tabular interface, which
``product.build_env_model`` reads once to enumerate the reachable states:

* ``initial_states()`` -- the start distribution, ``[(state, prob)]``;
* ``transitions(s, a)`` -- the exact next-state distribution;
* ``features(s)`` -- the distance features the predicates threshold;
* ``is_terminal(s)`` -- whether an episode ends in ``s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Cell = tuple[int, int]

# shared action set; nav ignores "stay" walls nothing special
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
            if cell is not None and not (isinstance(cell, (list, tuple)) and len(cell) == 2
                                         and all(isinstance(x, int) for x in cell)):
                raise ValueError(f"{name} must be a [row, column] pair, got {cell!r}")
            setattr(self, name, cell and tuple(cell))


def euclidean(a: Cell, b: Cell) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def chebyshev(a: Cell, b: Cell) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


# ---------------------------------------------------------------------------
# Capture the flag
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridMap:
    """CtF map: walls, a blue/red territory partition, and two flag cells.

    Text format, one row per line: ``#`` wall, ``b``/``r`` territory cells,
    ``B``/``R`` the blue/red flag (inside their own territory), ``.`` free
    cell defaulting to red territory.
    """

    width: int
    height: int
    walls: frozenset[Cell]
    blue_territory: frozenset[Cell]
    blue_flag: Cell
    red_flag: Cell
    blue_starts: tuple[Cell, ...]
    red_starts: tuple[Cell, ...]

    @classmethod
    def parse(cls, text: str, blue_start: Cell | None = None,
              red_start: Cell | None = None, random_starts: bool = False) -> "GridMap":
        rows = [line for line in text.splitlines() if line.strip()]
        if not rows or len(set(map(len, rows))) != 1:
            raise MapFormatError("map rows must be nonempty and equal length")
        height, width = len(rows), len(rows[0])
        walls, blue_terr = set(), set()
        blue_flag = red_flag = None
        for r, row in enumerate(rows):
            for c, ch in enumerate(row):
                cell = (r, c)
                if ch == "#":
                    walls.add(cell)
                elif ch in ("b", "B"):
                    blue_terr.add(cell)
                    if ch == "B":
                        if blue_flag is not None:
                            raise MapFormatError("multiple blue flags")
                        blue_flag = cell
                elif ch in ("r", "R", "."):
                    if ch == "R":
                        if red_flag is not None:
                            raise MapFormatError("multiple red flags")
                        red_flag = cell
                else:
                    raise MapFormatError(f"unknown map character {ch!r}")
        if blue_flag is None or red_flag is None:
            raise MapFormatError("map needs one B and one R flag cell")
        free = [(r, c) for r in range(height) for c in range(width)
                if (r, c) not in walls]
        red_terr = [cell for cell in free if cell not in blue_terr]
        if random_starts:
            blue_starts = tuple(sorted(c for c in blue_terr if c != blue_flag)) or (blue_flag,)
            red_starts = tuple(sorted(c for c in red_terr if c != red_flag)) or (red_flag,)
        else:
            blue_starts = (blue_start or blue_flag,)
            red_starts = (red_start or red_flag,)
        for cell in blue_starts + red_starts:
            if cell in walls or not (0 <= cell[0] < height and 0 <= cell[1] < width):
                raise MapFormatError(f"start cell {cell} is a wall or outside the map")
        grid = cls(width, height, frozenset(walls), frozenset(blue_terr),
                   blue_flag, red_flag, blue_starts, red_starts)
        # the red defender's heuristic steers by this border
        if not grid.border_cells():
            raise MapFormatError("blue territory has no passable neighbour outside it")
        return grid

    def border_cells(self) -> tuple[Cell, ...]:
        """Passable cells outside the blue territory next to one inside it."""
        cells = set()
        for cell in self.blue_territory:
            for dr, dc in ACTION_DELTAS[:4]:
                nb = (cell[0] + dr, cell[1] + dc)
                if self.passable(nb) and nb not in self.blue_territory:
                    cells.add(nb)
        return tuple(sorted(cells))

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.height and 0 <= cell[1] < self.width

    def passable(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.walls

    @property
    def diagonal(self) -> float:
        return math.hypot(self.height, self.width)


@dataclass(frozen=True)
class CtfState:
    blue: Cell
    red: Cell
    blue_alive: bool = True
    red_alive: bool = True
    blue_captured: bool = False  # blue took the red flag
    red_captured: bool = False


class CtfEnv:
    """Adversarial gridworld; the blue agent is the policy under study.

    Enumeration asks for the same cells again and again, so the env keeps
    three tables of its own: each passable cell's move under each action
    (built here), the red defender's move per (blue cell, red cell) pair,
    and ``d_ba_bt`` per blue cell (both filled on first use).  They belong
    to this instance: a new env starts with empty memos.
    """

    n_actions = len(ACTION_NAMES)
    action_names = ACTION_NAMES
    feature_names = ("d_ra_bf", "d_ba_rf", "d_ba_ra", "d_ba_bt")
    kill_prob = 0.75

    def __init__(self, grid: GridMap):
        self.grid = grid
        self._border = grid.border_cells()
        self._bt_cells = sorted(grid.blue_territory)
        self._moves: dict[Cell, tuple[Cell, ...]] = {}
        for r in range(grid.height):
            for c in range(grid.width):
                if grid.passable((r, c)):
                    nxt = [(r + dr, c + dc) for dr, dc in ACTION_DELTAS]
                    self._moves[r, c] = tuple(n if grid.passable(n) else (r, c) for n in nxt)
        self._red_moves: dict[tuple[Cell, Cell], Cell] = {}
        self._d_ba_bt: dict[Cell, float] = {}

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
        near_border = min(chebyshev(blue, b) for b in self._border) <= 2
        target_dist = ((lambda c: euclidean(c, blue)) if near_border
                       else (lambda c: min(euclidean(c, b) for b in self._border)))
        best, best_d = red, target_dist(red)
        for cand in self._moves[red][:4]:
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
        blue = self._moves[s.blue][action]
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

    def features(self, s: CtfState) -> np.ndarray:
        d_max = self.grid.diagonal
        d_ra_bf = euclidean(s.red, self.grid.blue_flag) if s.red_alive else d_max
        d_ba_rf = euclidean(s.blue, self.grid.red_flag) if s.blue_alive else d_max
        d_ba_ra = euclidean(s.blue, s.red) if (s.blue_alive and s.red_alive) else d_max
        if not s.blue_alive:
            d_ba_bt = d_max
        else:
            d_ba_bt = self._d_ba_bt.get(s.blue)
            if d_ba_bt is None:
                d_ba_bt = self._d_ba_bt[s.blue] = (
                    0.0 if s.blue in self.grid.blue_territory
                    else min(euclidean(s.blue, c) for c in self._bt_cells))
        return np.array([d_ra_bf, d_ba_rf, d_ba_ra, d_ba_bt])


# ---------------------------------------------------------------------------
# Goal / hazard navigation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NavMap:
    """Nav map text format: ``#`` wall, ``.`` free, ``S`` start, ``G`` goal,
    ``H`` hazard, ``V`` vase."""

    width: int
    height: int
    walls: frozenset[Cell]
    start: Cell
    goal: Cell
    hazards: frozenset[Cell]
    vases: frozenset[Cell]

    @classmethod
    def parse(cls, text: str) -> "NavMap":
        rows = [line for line in text.splitlines() if line.strip()]
        if not rows or len(set(map(len, rows))) != 1:
            raise MapFormatError("map rows must be nonempty and equal length")
        height, width = len(rows), len(rows[0])
        walls, hazards, vases = set(), set(), set()
        start = goal = None
        for r, row in enumerate(rows):
            for c, ch in enumerate(row):
                cell = (r, c)
                if ch == "#":
                    walls.add(cell)
                elif ch == "S":
                    start = cell
                elif ch == "G":
                    goal = cell
                elif ch == "H":
                    hazards.add(cell)
                elif ch == "V":
                    vases.add(cell)
                elif ch != ".":
                    raise MapFormatError(f"unknown map character {ch!r}")
        if start is None or goal is None:
            raise MapFormatError("nav map needs one S and one G cell")
        return cls(width, height, frozenset(walls), start, goal,
                   frozenset(hazards), frozenset(vases))

    def passable(self, cell: Cell) -> bool:
        return (0 <= cell[0] < self.height and 0 <= cell[1] < self.width
                and cell not in self.walls)

    @property
    def diagonal(self) -> float:
        return math.hypot(self.height, self.width)


@dataclass(frozen=True)
class NavState:
    pos: Cell


class NavEnv:
    """Deterministic navigation; goal and hazards end the episode, vases do not."""

    n_actions = len(ACTION_NAMES)
    action_names = ACTION_NAMES
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
        dr, dc = ACTION_DELTAS[action]
        nxt = (s.pos[0] + dr, s.pos[1] + dc)
        return [(NavState(nxt if self.map.passable(nxt) else s.pos), 1.0)]

    def features(self, s: NavState) -> np.ndarray:
        d_max = self.map.diagonal
        d_goal = euclidean(s.pos, self.map.goal)
        d_haz = min((euclidean(s.pos, c) for c in self.map.hazards), default=d_max)
        d_vase = min((euclidean(s.pos, c) for c in self.map.vases), default=d_max)
        return np.array([d_goal, d_haz, d_vase])

