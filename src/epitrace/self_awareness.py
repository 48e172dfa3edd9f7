"""Citizen-side analytics over the public risk map and the private history.

Everything here is a pure function of (private visits, published RiskMap)
and returns plain local values; nothing is transmitted anywhere.  This is
the "merge global with local" direction: the authority never sees the
trajectory, the citizen sees exactly where their own routine intersects
published risk.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .authority import RiskMap
from .pds import CoarsenedVisit

ROUTINE_MIN_DAYS = 3  # distinct days before a cell counts as routine
RISK_WEIGHT = 10  # route-cost penalty per risk level per step


class SpaceMismatch(ValueError):
    """A visit lies outside the risk map's coordinate space."""


class InsufficientHistory(ValueError):
    """Not enough distinct days of history to call anything a routine."""


@dataclass(frozen=True)
class ExposureScore:
    total: float


@dataclass(frozen=True)
class RoutineSegment:
    cell: object
    bins: tuple[int, ...]
    days: int
    visit_count: int
    risk_level: int


def exposure_score(visits: Sequence[CoarsenedVisit], risk: RiskMap) -> ExposureScore:
    """Dwell-weighted sum of risk levels over the user's own visits."""
    total = 0.0
    for v in visits:
        idx = risk.space.index_of(v.cell, v.bin_start)
        if idx is None:
            raise SpaceMismatch(f"visit at {v.cell!r}/{v.bin_start} is outside the risk map space")
        total += float(v.dwell_min * risk.levels[idx])
    return ExposureScore(total)


def flag_risky_segments(
    history: Sequence[CoarsenedVisit],
    risk: RiskMap,
) -> list[RoutineSegment]:
    """Routine cells (visited on enough distinct days) whose risk is 2+.

    Visits outside the map's space count toward the routine but carry
    level 0, so they can never flag on their own.  Results are sorted by
    risk level, then visit frequency, descending.
    """
    days_seen = {v.bin_start // 86400 for v in history}
    if len(days_seen) < ROUTINE_MIN_DAYS:
        raise InsufficientHistory(f"history spans {len(days_seen)} days, need {ROUTINE_MIN_DAYS}")

    by_cell: dict[object, list[CoarsenedVisit]] = {}
    for v in history:
        by_cell.setdefault(v.cell, []).append(v)

    flagged = []
    for cell, visits in by_cell.items():
        cell_days = {v.bin_start // 86400 for v in visits}
        if len(cell_days) < ROUTINE_MIN_DAYS:
            continue
        level = max(risk.level_at(cell, v.bin_start) for v in visits)
        if level < 2:
            continue
        bins = tuple(sorted({v.bin_start for v in visits}))
        flagged.append(RoutineSegment(cell, bins, len(cell_days), len(visits), level))
    flagged.sort(key=lambda s: (-s.risk_level, -s.visit_count, str(s.cell)))
    return flagged


def safer_route(
    width: int,
    height: int,
    origin: tuple[int, int],
    dest: tuple[int, int],
    risk: RiskMap,
    bin_start: int,
) -> list[tuple[int, int]]:
    """Minimum-cost path on the 4-neighbor lattice, trading distance for risk.

    Stepping into a cell costs 1 + RISK_WEIGHT * level(cell, bin).  Among
    minimum-cost paths the one with fewest hops wins, and among those the
    lexicographically smallest cell sequence.  Cells absent from the risk
    map's space, and all cells when bin_start is in no bin, count as level
    0; a level in the bin's column that is not an int in 0..3 raises
    ValueError.

    A* orders labels by (cost + h, hops + h, path), h the Manhattan distance
    to dest, so labels at one cell compare as (cost, hops, path).  A step
    adds >= 1 to cost, 1 to hops and +-1 to h: no key falls along a path,
    and where one does not rise the longer path compares greater.  h is 0
    at dest, so the first dest label popped is the smallest.
    """
    for name, (x, y) in (("origin", origin), ("dest", dest)):
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(f"{name} {x, y} outside the {width}x{height} grid")

    space, level = risk.space, {}
    if (bi := space.bin_index(bin_start)) is not None:
        column = risk.levels[bi :: len(space.bins)]
        try:
            bad = bytes(column).translate(None, b"\0\1\2\3")
        except (TypeError, ValueError):  # not an int, or outside 0..255
            bad = True
        if bad:
            cell, v = next((c, v) for c, v in zip(space.cells, column) if not (isinstance(v, int) and 0 <= v <= 3))
            raise ValueError(f"risk level {v!r} at cell {cell!r}, bin {space.bins[bi]} is not an int in 0..3")
        level = dict(compress(zip(space.cells, column), column))  # the non-zero cells only

    tx, ty = dest
    h = abs(origin[0] - tx) + abs(origin[1] - ty)
    start = (h, h, (origin,))
    best = {origin: start}  # the one live label per cell; others are stale
    heap = [start]
    while True:
        label = heapq.heappop(heap)
        f, g, path = label
        x, y = cell = path[-1]
        if cell == dest:
            return list(path)
        if best[cell] is not label:
            continue
        h = abs(x - tx) + abs(y - ty)
        for n in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if not (0 <= n[0] < width and 0 <= n[1] < height):
                continue
            dh = abs(n[0] - tx) + abs(n[1] - ty) - h
            seen = best.get(n)
            if seen is not None and seen[0] <= f + dh:
                continue  # seen's cost is at most ours and a step costs at least 1
            cand = (f + dh + 1 + RISK_WEIGHT * level.get(n, 0), g + dh + 1, path + (n,))
            if seen is None or cand < seen:
                best[n] = cand
                heapq.heappush(heap, cand)


def route_cost(path: Sequence[tuple[int, int]], risk: RiskMap, bin_start: int) -> float:
    """Total cost of a path under the safer_route edge model."""
    return sum(1.0 + RISK_WEIGHT * risk.level_at(cell, bin_start) for cell in path[1:])
