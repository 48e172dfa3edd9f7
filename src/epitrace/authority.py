"""Trusted-authority backend.

Two deliberately separate stores live here.  The exposure board holds only
seed material for the contact channel; the location store holds only
coarsened visit counts keyed by pseudonymous payloads.  They share no
identifier values, which is what keeps the two channels mutually
unlinkable.  On top of the location store sit the analytics: density
maps with small-count suppression, hotspot detection, and a published
risk map.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice, repeat
from operator import add, le
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .crypto_ids import EscrowTable, ExposureReport, report_id_set
from .pds import CoarsenedVisit, Purpose, SharePayload, _slot_setters
from .secure_agg import MASK_MODULUS, Cell, CellIndexSpace

K_ANON = 5  # published counts below this are suppressed to zero
_PUBLISHED_BYTE = bytes(K_ANON <= b for b in range(256))  # translate table: 1 where a count publishes


class WrongPurpose(ValueError):
    """Payload submitted to an endpoint for a different purpose."""


@dataclass(frozen=True)
class BoardEntry:
    report: ExposureReport
    published_day: int


class PublicBoard:
    """Append-only exposure-report board."""

    def __init__(self) -> None:
        self._entries: list[BoardEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def publish_report(self, report: ExposureReport, published_day: int) -> None:
        self._entries.append(BoardEntry(report, published_day))

    def reports(self) -> list[ExposureReport]:
        return [e.report for e in self._entries]

    def identifier_set(self) -> set[bytes]:
        """Every identifier observable on the contact channel from the board."""
        return channel_identifiers(self.reports())


def channel_identifiers(reports: Iterable[ExposureReport]) -> set[bytes]:
    """Every byte-string identifier observable on the contact channel from
    these reports: published seeds plus all IDs derivable from them."""
    out: set[bytes] = set()
    for report in reports:
        out.update(report.seeds)
        out.update(report_id_set(report))
    return out


def resolve_and_notify(escrow: EscrowTable, contact_digests: Iterable[str]) -> set[str]:
    """Centralized variant: map uploaded ID digests to registrants.

    Each registrant appears at most once no matter how many of their IDs
    were submitted.
    """
    return set(map(escrow.resolve_digest, contact_digests)) - {None}


class LocationStore:
    """Accumulates coarsened visits from confirmed-positive uploads.

    Counts are grouped as cell -> {exact bin_start: count}.  A payload's
    pseudonym is kept only long enough to deduplicate resubmissions within
    the current upload window; ``close_upload_window`` discards them all.
    """

    def __init__(self) -> None:
        self._infected: defaultdict[Cell, Counter[int]] = defaultdict(Counter)
        self._window_pseudonyms: set[bytes] = set()

    def ingest_location_payload(self, payload: SharePayload) -> None:
        if payload.purpose is not Purpose.LOCATION_UPLOAD:
            raise WrongPurpose(f"expected location_upload, got {payload.purpose.value}")
        if payload.pseudonym in self._window_pseudonyms:
            return
        for idx, visit in enumerate(payload.body):  # every entry, before anything is stored or the pseudonym used
            if isinstance(visit, CoarsenedVisit) and type(visit.bin_start) is int:
                try:
                    hash(visit.cell)  # counts are keyed by cell
                    continue
                except TypeError:
                    pass
            raise ValueError(f"entry {idx} is {visit!r}, not a visit with int bin_start and hashable cell")
        self._window_pseudonyms.add(payload.pseudonym)
        for visit in payload.body:
            self._infected[visit.cell][visit.bin_start] += 1

    def ingest_aggregate(self, space: CellIndexSpace, sums: Sequence[int]) -> None:
        """Fold in a secure-aggregation result (one count vector per round);
        a vector with any entry not an int in [0, MASK_MODULUS) stores nothing."""
        if len(sums) != space.dimension:
            raise ValueError(f"aggregate dimension {len(sums)} != space dimension {space.dimension}")
        for idx, value in enumerate(sums):
            if type(value) is not int or not 0 <= value < MASK_MODULUS:
                raise ValueError(f"aggregate entry {idx} is {value!r}, not an int in [0, {MASK_MODULUS})")
        for idx, value in enumerate(sums):
            if value:
                cell, bin_start = space.coordinate(idx)
                self._infected[cell][bin_start] += value

    def close_upload_window(self) -> None:
        self._window_pseudonyms.clear()

    def infected_count_at(self, cell: Cell, bin_start: int) -> int:
        return self._infected.get(cell, Counter())[bin_start]

    def build_density_map(self, space: CellIndexSpace) -> "DensityMap":
        return DensityMap(space, tuple(space.dense_counts(self._infected)))


@dataclass(frozen=True)
class DensityMap:
    """Spatio-temporal visit counts by confirmed positives.

    ``infected_counts`` holds the true internal values; anything published
    goes through ``published_counts`` (or ``_published``, the same counts one
    at a time), which suppresses counts below ``K_ANON``.
    """

    space: CellIndexSpace
    infected_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.infected_counts) != self.space.dimension:
            raise ValueError("infected_counts dimension mismatch")

    def published_counts(self) -> list[int]:
        return list(self._published())

    def _published(self) -> Iterator[int]:
        return (c if c >= K_ANON else 0 for c in self.infected_counts)

    @cached_property
    def unsuppressed(self) -> tuple[int, ...]:
        """Indices whose count reaches ``K_ANON``; every other entry publishes as 0.

        When every count fits in a byte, one translate flags the entries and
        a regex finds them, so Python work is per found entry only.
        """
        counts = self.infected_counts
        try:
            flags = bytes(counts).translate(_PUBLISHED_BYTE)
        except (TypeError, ValueError):  # a count outside 0..255
            return tuple(compress(range(len(counts)), map(le, repeat(K_ANON), counts)))
        return tuple(m.start() for m in re.finditer(b"\x01", flags))


@dataclass(frozen=True, slots=True, init=False)
class Hotspot:
    cell: Cell
    bin_start: int
    infected_count: int

    def __init__(self, cell: Cell, bin_start: int, infected_count: int) -> None:
        _set_cell(self, cell)
        _set_bin_start(self, bin_start)
        _set_infected_count(self, infected_count)


_set_cell, _set_bin_start, _set_infected_count = _slot_setters(Hotspot)


@dataclass(frozen=True)
class RiskMap:
    """Published per-(cell, bin) risk levels 0..3."""

    space: CellIndexSpace
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.levels) != self.space.dimension:
            raise ValueError("levels dimension mismatch")

    def level_at(self, cell: Cell, t: int) -> int:
        """Level at a cell and time; 0 outside the space."""
        idx = self.space.index_of(cell, t)
        return self.levels[idx] if idx is not None else 0


def detect_hotspots(dmap: DensityMap) -> list[Hotspot]:
    """Every published entry: cells×bins with at least ``K_ANON`` positive
    visits.  Sorted by infected count descending, then (cell, bin)
    ascending, so repeated calls give a total order.
    """
    counts, coordinate = dmap.infected_counts, dmap.space.coordinate
    found = [Hotspot(*coordinate(idx), counts[idx]) for idx in dmap.unsuppressed]
    found.sort(key=lambda h: (-h.infected_count, _sort_key(h.cell), h.bin_start))
    return found


def _sort_key(cell: Cell):
    # cells within one space are homogeneous; stringify mixed exotic ids
    return cell if isinstance(cell, (tuple, str, int)) else str(cell)


def publish_risk_map(dmap: DensityMap, hotspots: Sequence[Hotspot]) -> RiskMap:
    """Level 3 for hotspots; 2 and 1 for the top and middle terciles of the
    remaining *published* counts (each at least ``K_ANON``); 0 elsewhere.

    Only published counts feed the tercile levels, so no small-count cell
    can rise above level 0 unless it independently qualified as a hotspot.
    """
    space, counts = dmap.space, dmap.infected_counts
    # hotspots outside the space or off a bin start match no entry
    hot_idx = {space.exact_index(h.cell, h.bin_start) for h in hotspots} - {None}
    rest = [i for i in dmap.unsuppressed if i not in hot_idx]

    levels = [0] * space.dimension
    for i in hot_idx:
        levels[i] = 3
    if rest:
        ranked = sorted(counts[i] for i in rest)
        upper = ranked[2 * len(ranked) // 3]
        lower = ranked[len(ranked) // 3]
        for i in rest:
            count = counts[i]
            if count >= upper:
                levels[i] = 2
            elif count >= lower:
                levels[i] = 1
    return RiskMap(space, tuple(levels))


# -- export formats ----------------------------------------------------------


def export_density_csv(dmap: DensityMap, path: str | Path) -> None:
    """Published (suppressed) view only; grid cells as x,y columns."""
    _write_dense_csv(dmap.space, dmap._published(), "count", path)


def export_risk_csv(rmap: RiskMap, path: str | Path) -> None:
    _write_dense_csv(rmap.space, rmap.levels, "level", path)


def _write_dense_csv(space: CellIndexSpace, values: Iterable[int], column: str, path: str | Path) -> None:
    """One row per entry of a dense vector over ``space``, in index order,
    written one cell's block of rows at a time so memory never holds the file."""
    bin_parts = [f",{b}," for b in space.bins]
    rest = iter(values)
    with open(path, "w") as out:  # the text-mode defaults of Path.write_text
        out.write(f"cell_x,cell_y,bin_start,{column}\n")
        for x, y in map(_cell_xy, space.cells if bin_parts else ()):
            tails = map(add, bin_parts, map(format, islice(rest, len(bin_parts))))  # ",bin_start,value"
            out.write(f"{x},{y}" + f"\n{x},{y}".join(tails) + "\n")


def hotspots_to_json(hotspots: Sequence[Hotspot]) -> str:
    rows = [
        {
            "cell": cell_to_json(h.cell),
            "bin_start": h.bin_start,
            "infected_count": h.infected_count,
        }
        for h in hotspots
    ]
    return json.dumps(rows, indent=2, sort_keys=True)


def cell_to_json(cell: Cell):
    """JSON form of a cell: a tuple cell becomes a list, any other stays."""
    return list(cell) if isinstance(cell, tuple) else cell


def export_hotspots_json(hotspots: Sequence[Hotspot], path: str | Path) -> None:
    Path(path).write_text(hotspots_to_json(hotspots) + "\n")


def _cell_xy(cell: Cell) -> tuple:
    if isinstance(cell, tuple) and len(cell) == 2:
        return cell
    return (cell, "")
