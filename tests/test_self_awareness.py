"""Local analytics: exposure scoring, routine flags, risk-aware routing."""

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epitrace.authority import RiskMap
from epitrace.pds import CoarsenedVisit
from epitrace.secure_agg import CellIndexSpace
from epitrace.self_awareness import (
    InsufficientHistory,
    SpaceMismatch,
    exposure_score,
    flag_risky_segments,
    route_cost,
    safer_route,
)


def grid_risk(width, height, levels_by_cell, bins=(0,), bin_seconds=3600):
    cells = tuple((x, y) for x in range(width) for y in range(height))
    space = CellIndexSpace(cells, tuple(bins), bin_seconds)
    levels = []
    for cell in cells:
        for b in bins:
            levels.append(levels_by_cell.get(cell, 0))
    return RiskMap(space, tuple(levels))


def day_risk(levels_by_cell, days=7):
    cells = tuple(sorted(levels_by_cell))
    bins = tuple(d * 86400 for d in range(days))
    levels = []
    for cell in cells:
        for _b in bins:
            levels.append(levels_by_cell[cell])
    return RiskMap(CellIndexSpace(cells, bins, 86400), tuple(levels))


class TestExposureScore:
    def test_all_zero_levels(self):
        risk = grid_risk(2, 2, {})
        visits = [CoarsenedVisit((0, 0), 0, 30), CoarsenedVisit((1, 1), 0, 45)]
        assert exposure_score(visits, risk).total == 0.0

    def test_single_visit_arithmetic(self):
        risk = grid_risk(2, 2, {(1, 0): 2})
        score = exposure_score([CoarsenedVisit((1, 0), 0, 30)], risk)
        assert score.total == 60.0

    def test_matches_brute_force_sum(self):
        rng = random.Random(1)
        cells = [(x, y) for x in range(4) for y in range(4)]
        levels = {c: rng.randrange(4) for c in cells}
        risk = grid_risk(4, 4, levels)
        visits = [
            CoarsenedVisit(cells[rng.randrange(16)], 0, rng.randrange(1, 120))
            for _ in range(10)
        ]
        expected = sum(v.dwell_min * levels[v.cell] for v in visits)
        assert exposure_score(visits, risk).total == expected

    def test_space_mismatch(self):
        risk = grid_risk(2, 2, {})
        with pytest.raises(SpaceMismatch):
            exposure_score([CoarsenedVisit((9, 9), 0, 5)], risk)
        with pytest.raises(SpaceMismatch):
            exposure_score([CoarsenedVisit((0, 0), 999999, 5)], risk)


class TestRoutineFlags:
    def visits(self, cell, days, per_day=1):
        return [
            CoarsenedVisit(cell, d * 86400 + k * 3600, 10)
            for d in days
            for k in range(per_day)
        ]

    def test_level_zero_history_unflagged(self):
        risk = day_risk({(0, 0): 0, (1, 1): 1})
        history = self.visits((0, 0), range(5)) + self.visits((1, 1), range(5))
        assert flag_risky_segments(history, risk) == []

    def test_routine_high_risk_cell_flagged_first(self):
        risk = day_risk({(0, 0): 3, (1, 1): 2, (2, 2): 0})
        history = (
            self.visits((0, 0), range(5))
            + self.visits((1, 1), range(4))
            + self.visits((2, 2), range(7))
        )
        flagged = flag_risky_segments(history, risk)
        assert [s.cell for s in flagged] == [(0, 0), (1, 1)]
        assert flagged[0].risk_level == 3
        assert flagged[0].days == 5

    def test_single_visit_not_routine(self):
        risk = day_risk({(0, 0): 3, (1, 1): 0})
        history = self.visits((0, 0), [2]) + self.visits((1, 1), range(6))
        assert flag_risky_segments(history, risk) == []

    def test_insufficient_history(self):
        risk = day_risk({(0, 0): 3})
        with pytest.raises(InsufficientHistory):
            flag_risky_segments(self.visits((0, 0), range(2)), risk)

    def test_frequency_breaks_ties(self):
        risk = day_risk({(0, 0): 2, (1, 1): 2})
        history = self.visits((0, 0), range(4), per_day=3) + self.visits((1, 1), range(4))
        flagged = flag_risky_segments(history, risk)
        assert [s.cell for s in flagged] == [(0, 0), (1, 1)]


def brute_force_route(width, height, origin, dest, risk, bin_start, risk_weight=10):
    """Enumerate every simple path; pick min (cost, hops, sequence)."""
    best = None

    def neighbors(cell):
        x, y = cell
        for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if 0 <= nx < width and 0 <= ny < height:
                yield (nx, ny)

    def walk(path, cost):
        nonlocal best
        cur = path[-1]
        if cur == dest:
            key = (cost, len(path) - 1, tuple(path))
            if best is None or key < best:
                best = key
            return
        if best is not None and cost >= best[0] + 1e-12 and (cost, len(path) - 1) > best[:2]:
            pass  # keep exploring; pruning only on strictly worse cost below
        for n in neighbors(cur):
            if n in path:
                continue
            step = 1 + risk_weight * risk.level_at(n, bin_start)
            if best is not None and cost + step > best[0]:
                continue
            walk(path + [n], cost + step)

    walk([origin], 0.0)
    return list(best[2]) if best else None


def dijkstra_cost(width, height, origin, dest, risk, bin_start, risk_weight=10):
    """Independent min-cost oracle (cost only)."""
    dist = {origin: 0.0}
    heap = [(0.0, origin)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist.get(cell, float("inf")):
            continue
        if cell == dest:
            return d
        x, y = cell
        for n in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if not (0 <= n[0] < width and 0 <= n[1] < height):
                continue
            nd = d + 1 + risk_weight * risk.level_at(n, bin_start)
            if nd < dist.get(n, float("inf")):
                dist[n] = nd
                heapq.heappush(heap, (nd, n))
    return dist.get(dest, float("inf"))


def dijkstra_route(width, height, origin, dest, risk, bin_start, risk_weight=10):
    """Reference path: the label-setting Dijkstra that safer_route ran before
    its A* search, with the same (cost, hops, path) tie-break."""
    start = (0, 0, (origin,))
    best = {origin: start}
    heap = [start]
    while True:
        label = heapq.heappop(heap)
        cost, hops, path = label
        x, y = cell = path[-1]
        if cell == dest:
            return list(path)
        if best[cell] is not label:
            continue
        for n in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if not (0 <= n[0] < width and 0 <= n[1] < height):
                continue
            seen = best.get(n)
            if seen is not None and seen[0] <= cost:
                continue
            cand = (cost + 1 + risk_weight * risk.level_at(n, bin_start), hops + 1, path + (n,))
            if seen is None or cand < seen:
                best[n] = cand
                heapq.heappush(heap, cand)


@st.composite
def route_cases(draw):
    """A grid up to 20x20 and a risk map whose space may lack lattice cells,
    hold cells off the lattice, and span several bins with gaps between
    them; bin_start lies at a bin start, inside a bin or outside every bin."""
    w, h = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    rng = draw(st.randoms(use_true_random=False))
    lattice = [(x, y) for x in range(w) for y in range(h)]
    missing = set(rng.sample(lattice, draw(st.integers(0, len(lattice) // 4))))
    extra = [(-1, 0), (w, h - 1), (0, 99), (w + 5, -3)][: draw(st.integers(0, 4))]
    cells = [c for c in lattice if c not in missing] + extra
    rng.shuffle(cells)

    bin_seconds = 3600
    bins = [draw(st.integers(-2, 2)) * bin_seconds]
    for _ in range(draw(st.integers(0, 3))):
        bins.append(bins[-1] + bin_seconds * draw(st.integers(1, 3)))  # gaps when > 1
    k = draw(st.integers(0, len(bins) - 1))
    bin_start = draw(
        st.sampled_from(
            [
                bins[k],  # a bin start
                bins[k] + draw(st.integers(1, bin_seconds - 1)),  # inside a bin
                bins[0] - draw(st.integers(1, 10 * bin_seconds)),  # before every bin
                bins[-1] + bin_seconds + draw(st.integers(0, 10 * bin_seconds)),  # after every bin
            ]
        )
    )
    share = draw(st.sampled_from([0.0, 0.02, 0.2, 0.6, 1.0]))  # sparse to dense
    levels = tuple(rng.randint(1, 3) if rng.random() < share else 0 for _ in range(len(cells) * len(bins)))
    risk = RiskMap(CellIndexSpace(tuple(cells), tuple(bins), bin_seconds), levels)
    origin = (draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)))
    dest = (draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)))
    return w, h, origin, dest, risk, bin_start


class TestSaferRoute:
    def test_zero_risk_is_manhattan(self):
        risk = grid_risk(5, 5, {})
        path = safer_route(5, 5, (0, 0), (3, 2), risk, 0)
        assert len(path) - 1 == 5  # Manhattan distance
        assert route_cost(path, risk, 0) == 5.0

    def test_three_by_three_avoids_hot_center(self):
        risk = grid_risk(3, 3, {(1, 1): 3})
        path = safer_route(3, 3, (0, 0), (2, 2), risk, 0)
        assert (1, 1) not in path
        assert route_cost(path, risk, 0) == 4.0
        assert path == brute_force_route(3, 3, (0, 0), (2, 2), risk, 0)

    def test_origin_equals_dest(self):
        risk = grid_risk(3, 3, {})
        assert safer_route(3, 3, (1, 1), (1, 1), risk, 0) == [(1, 1)]

    def test_outside_grid_rejected(self):
        risk = grid_risk(3, 3, {})
        with pytest.raises(ValueError):
            safer_route(3, 3, (0, 0), (3, 0), risk, 0)

    def test_matches_exhaustive_enumeration_small_grids(self):
        rng = random.Random(2)
        for _ in range(40):
            w, h = rng.randrange(2, 5), rng.randrange(2, 5)
            levels = {(x, y): rng.choice([0, 3]) for x in range(w) for y in range(h)}
            risk = grid_risk(w, h, levels)
            origin = (rng.randrange(w), rng.randrange(h))
            dest = (rng.randrange(w), rng.randrange(h))
            got = safer_route(w, h, origin, dest, risk, 0)
            expected = brute_force_route(w, h, origin, dest, risk, 0)
            assert got == expected

    def test_matches_dijkstra_cost_on_8x8(self):
        rng = random.Random(3)
        for _ in range(50):
            levels = {(x, y): rng.randrange(4) for x in range(8) for y in range(8)}
            risk = grid_risk(8, 8, levels)
            origin = (rng.randrange(8), rng.randrange(8))
            dest = (rng.randrange(8), rng.randrange(8))
            path = safer_route(8, 8, origin, dest, risk, 0)
            assert route_cost(path, risk, 0) == pytest.approx(
                dijkstra_cost(8, 8, origin, dest, risk, 0)
            )

    def test_lexicographic_tie_break(self):
        risk = grid_risk(3, 3, {})
        path = safer_route(3, 3, (0, 0), (2, 2), risk, 0)
        # all min-cost min-hop paths enumerated; ours must be the smallest
        candidates = []
        for moves in itertools.permutations([(1, 0), (1, 0), (0, 1), (0, 1)]):
            seq = [(0, 0)]
            for dx, dy in moves:
                seq.append((seq[-1][0] + dx, seq[-1][1] + dy))
            candidates.append(seq)
        assert path == min(candidates)

    def test_zero_risk_20x20_is_closed_form_lexicographic_path(self):
        # the smallest cell sequence among shortest paths: every x-decrement
        # first, then every y move, then every x-increment
        def closed_form(origin, dest):
            (x, y), (dx, dy) = origin, dest
            path = [(x, y)]
            while x > dx:
                x -= 1
                path.append((x, y))
            while y != dy:
                y += 1 if dy > y else -1
                path.append((x, y))
            while x < dx:
                x += 1
                path.append((x, y))
            return path

        risk = grid_risk(20, 20, {})
        rng = random.Random(5)
        corners = [(0, 0), (0, 19), (19, 0), (19, 19)]
        pairs = [(o, d) for o in corners for d in corners]
        pairs += [((rng.randrange(20), rng.randrange(20)), (rng.randrange(20), rng.randrange(20))) for _ in range(300)]
        for origin, dest in pairs:
            assert safer_route(20, 20, origin, dest, risk, 0) == closed_form(origin, dest), (origin, dest)

    @settings(deadline=None)
    @given(route_cases())
    def test_same_path_as_dijkstra(self, case):
        assert safer_route(*case) == dijkstra_route(*case)

    @pytest.mark.parametrize("bad", [-1, 4, 256, -300, 1.5, 2.0, "a", None])
    def test_level_outside_0_to_3_rejected(self, bad):
        # a level below 0 made a step cost less than 1; the search relied
        # on at least 1 and never returned
        risk = grid_risk(2, 2, {(0, 0): 1, (1, 0): bad})
        with pytest.raises(ValueError, match=rf"risk level {bad!r} at cell \(1, 0\)"):
            safer_route(2, 2, (0, 0), (1, 1), risk, 0)

    def test_every_level_negative_rejected(self):
        risk = grid_risk(2, 2, {c: -1 for c in itertools.product(range(2), repeat=2)})
        with pytest.raises(ValueError, match="not an int in 0..3"):
            safer_route(2, 2, (0, 0), (1, 1), risk, 0)

    def test_only_the_routed_bin_is_checked(self):
        cells = ((0, 0), (0, 1), (1, 0), (1, 1))
        risk = RiskMap(CellIndexSpace(cells, (0, 3600)), (0, -1, 3, 7, 0, 0, 0, 0))
        assert safer_route(2, 2, (0, 0), (1, 1), risk, 0) == [(0, 0), (1, 0), (1, 1)]
        assert safer_route(2, 2, (0, 0), (1, 1), risk, 99999) == [(0, 0), (0, 1), (1, 1)]
        with pytest.raises(ValueError, match=r"risk level -1 at cell \(0, 0\), bin 3600"):
            safer_route(2, 2, (0, 0), (1, 1), risk, 3600)


class TestScoreMonotonicity:
    def test_raising_a_level_never_lowers_scores(self):
        rng = random.Random(4)
        cells = [(x, y) for x in range(3) for y in range(3)]
        levels = {c: rng.randrange(3) for c in cells}
        visits = [CoarsenedVisit(cells[rng.randrange(9)], 0, rng.randrange(1, 60)) for _ in range(12)]
        base = exposure_score(visits, grid_risk(3, 3, levels)).total
        for c in cells:
            if levels[c] < 3:
                bumped = dict(levels)
                bumped[c] = levels[c] + 1
                assert exposure_score(visits, grid_risk(3, 3, bumped)).total >= base
