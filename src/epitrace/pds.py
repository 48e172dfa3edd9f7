"""The citizen's personal data store: exclusive location history and
granularity-controlled sharing.

Raw location points never leave this module.  Everything that crosses the
boundary is either a coarsened visit list (at a granularity no finer than
the per-purpose policy minimum) or a contact-digest list, wrapped in a
payload carrying a fresh random pseudonym that is unlinkable to any
broadcast ephemeral ID.  Every share appends a consent record; the user
can stop collection or erase everything at any time.
"""

from __future__ import annotations

import json
import math
import random
import secrets
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import compress, repeat
from operator import attrgetter, le, ne, sub, truediv
from pathlib import Path
from typing import Mapping, Sequence

from .contact_store import ContactStore

PSEUDONYM_BYTES = 16
GRID_CELL_DEGREES = (0.001, 0.01, 0.1)
BIN_MINUTES = (1, 15, 60, 1440)

SNAPSHOT_SCHEMA = "epitrace-pds v1"

_T_LIMIT = 1 << 63  # a fix's t is stored as a signed 64-bit int


class TrackingStopped(RuntimeError):
    """Location collection was revoked; appends are rejected."""


class MissingMap(ValueError):
    """A POI or municipality granularity built without its label map."""


class GranularityTooFine(ValueError):
    """Requested share granularity is finer than the purpose's minimum."""


class ConsentMissing(RuntimeError):
    """No active consent for the requested sharing purpose."""


class Purpose(Enum):
    CONTACT_UPLOAD = "contact_upload"
    LOCATION_UPLOAD = "location_upload"
    AGGREGATE_PARTICIPATION = "aggregate_participation"


class EraseScope(Enum):
    COLLECTION_ONLY = "collection_only"
    EVERYTHING = "everything"


class SpatialLevel(Enum):
    GRID = "grid"
    POI = "poi"
    MUNICIPALITY = "municipality"


@dataclass(frozen=True, slots=True, init=False)
class LocationPoint:
    lat: float
    lon: float
    t: int

    def __init__(self, lat: float, lon: float, t: int) -> None:
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"lat {lat} outside [-90, 90]")
        if not -180.0 <= lon <= 180.0:
            raise ValueError(f"lon {lon} outside [-180, 180]")
        if type(t) is not int or not -_T_LIMIT <= t < _T_LIMIT:
            raise ValueError(f"t {t!r} is not an int in signed 64-bit range")
        _set_lat(self, lat)
        _set_lon(self, lon)
        _set_t(self, t)


def _slot_setters(cls) -> list:
    """The ``__set__`` of each field's member descriptor, in field order.  A
    frozen slotted dataclass's hand-written ``__init__`` runs its checks,
    then writes its slots through these, at a fraction of the cost of the
    generated ``__init__``'s ``object.__setattr__`` per field."""
    return [getattr(cls, f.name).__set__ for f in fields(cls)]


_set_lat, _set_lon, _set_t = _slot_setters(LocationPoint)


@dataclass(frozen=True)
class Granularity:
    """A spatial level plus a temporal bin width in minutes.

    Coarseness is ordered Grid(0.001) < Grid(0.01) < Grid(0.1) <= POI <=
    Municipality on the spatial axis and by bin width on the temporal axis.
    A POI or municipality level carries the map that labels its cells; the
    map takes no part in hashing, and ``to_json`` leaves it out.
    """

    spatial: SpatialLevel
    cell_deg: float | None = None
    bin_minutes: int = 60
    labels: CellLabelMap | None = field(default=None, hash=False)

    def __post_init__(self) -> None:
        if self.spatial is SpatialLevel.GRID:
            if self.cell_deg not in GRID_CELL_DEGREES:
                raise ValueError(f"grid cell_deg must be one of {GRID_CELL_DEGREES}")
            if self.labels is not None:
                raise ValueError("labels only apply to POI and municipality granularity")
        elif self.cell_deg is not None:
            raise ValueError("cell_deg only applies to grid granularity")
        elif not isinstance(self.labels, CellLabelMap):
            raise MissingMap(f"{self.spatial.value} granularity requires a label map")
        if type(self.bin_minutes) is not int or self.bin_minutes not in BIN_MINUTES:
            raise ValueError(f"bin_minutes must be an int in {BIN_MINUTES}")

    @property
    def spatial_rank(self) -> int:
        """Position in the coarseness order; higher = coarser."""
        if self.spatial is SpatialLevel.GRID:
            return GRID_CELL_DEGREES.index(self.cell_deg)
        return 2 if self.spatial is SpatialLevel.POI else 3  # POI at least as coarse as Grid(0.1)

    def at_least_as_coarse(self, other: "Granularity") -> bool:
        return self.spatial_rank >= other.spatial_rank and self.bin_minutes >= other.bin_minutes

    @classmethod
    def grid(cls, cell_deg: float, bin_minutes: int) -> "Granularity":
        return cls(SpatialLevel.GRID, cell_deg, bin_minutes)

    def to_json(self) -> dict:
        return {"spatial": self.spatial.value, "cell_deg": self.cell_deg, "bin_minutes": self.bin_minutes}


@dataclass(frozen=True, slots=True, init=False)
class CoarsenedVisit:
    """A dwell in one (cell, time bin) at the chosen granularity."""

    cell: object
    bin_start: int
    dwell_min: int

    def __init__(self, cell: object, bin_start: int, dwell_min: int) -> None:
        if dwell_min < 1:
            raise ValueError("dwell_min must be >= 1")
        _set_cell(self, cell)
        _set_bin_start(self, bin_start)
        _set_dwell_min(self, dwell_min)


_set_cell, _set_bin_start, _set_dwell_min = _slot_setters(CoarsenedVisit)


@dataclass
class ConsentRecord:
    purpose: Purpose
    granularity: Granularity | None
    issued_at: int
    revoked_at: int | None = None

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "purpose": self.purpose.value,
                "granularity": self.granularity.to_json() if self.granularity else None,
                "issued_at": self.issued_at,
                "revoked_at": self.revoked_at,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class SharePayload:
    """What actually leaves the device for one sharing decision."""

    purpose: Purpose
    pseudonym: bytes
    body: tuple

    def __post_init__(self) -> None:
        if type(self.purpose) is not Purpose:
            raise TypeError(f"purpose must be a Purpose, not {self.purpose!r}")
        if type(self.pseudonym) is not bytes or len(self.pseudonym) != PSEUDONYM_BYTES:
            raise ValueError(f"pseudonym must be {PSEUDONYM_BYTES} bytes of type bytes")
        if type(self.body) is not tuple:
            raise TypeError(f"body must be a tuple, not {type(self.body).__name__}")


@dataclass(frozen=True)
class CellLabelMap:
    """Grid-cell → label lookup standing in for a real POI/municipality DB.

    Keyed at a fixed base grid resolution; unmapped cells fall back to a
    deterministic synthetic label so coarsening is total.
    """

    labels: Mapping[tuple[int, int], str]
    cell_deg: float = 0.1
    fallback_prefix: str = "area"

    def label_for(self, lat: float, lon: float) -> str:
        cell = grid_cell(lat, lon, self.cell_deg)
        got = self.labels.get(cell)
        if got is not None:
            return got
        return f"{self.fallback_prefix}:{cell[0]}:{cell[1]}"


def grid_cell(lat: float, lon: float, cell_deg: float) -> tuple[int, int]:
    return (math.floor(lat / cell_deg), math.floor(lon / cell_deg))


def coarsen(traj: Sequence[LocationPoint], g: Granularity) -> list[CoarsenedVisit]:
    """Reduce a time-sorted trajectory to visits at the requested granularity.

    Consecutive points falling in the same (cell, bin) merge into a single
    visit whose dwell is the ceiling of the merged time span in minutes
    (minimum one minute for a lone fix).
    """
    return _coarsen_columns([p.t for p in traj], [p.lat for p in traj], [p.lon for p in traj], g)


def _coarsen_columns(
    ts: Sequence[int], lats: Sequence[float], lons: Sequence[float], g: Granularity
) -> list[CoarsenedVisit]:
    """``coarsen`` over the columns of time-sorted fixes: the (cell, bin)
    keys of all fixes are computed column by column, then one visit per run."""
    if g.spatial is SpatialLevel.GRID:
        d = g.cell_deg
        cells = [(math.floor(lat / d), math.floor(lon / d)) for lat, lon in zip(lats, lons)]  # as grid_cell
    else:
        cells = map(g.labels.label_for, lats, lons)

    w = g.bin_minutes * 60
    keys = list(zip(cells, [t // w * w for t in ts]))
    # a run of equal keys starts at the first fix and after each key change,
    # and ends at the last fix and before each change
    changes = list(map(ne, keys[1:], keys))
    spans = map(sub, compress(ts, [*changes, True]), compress(ts, [True, *changes]))
    # max(1, ceil(span / 60)): a lone fix, or a run given out of time order, dwells 1 minute
    dwells = [d if d > 0 else 1 for d in map(math.ceil, map(truediv, spans, repeat(60)))]
    visits = [CoarsenedVisit(cell, b, dwell) for (cell, b), dwell in zip(compress(keys, [True, *changes]), dwells)]
    visits.sort(key=attrgetter("bin_start"))
    return visits


def minimum_granularity(purpose: Purpose) -> Granularity | None:
    """Finest granularity the policy allows per purpose; None = no location."""
    if purpose is Purpose.CONTACT_UPLOAD:
        return None
    if purpose is Purpose.LOCATION_UPLOAD:
        return Granularity.grid(0.01, 60)
    return Granularity.grid(0.1, 1440)


class PersonalDataStore:
    """Exclusive per-citizen store of raw location history.

    The history is three columns sorted by ``t`` (a fix with an equal ``t``
    goes after those already stored).  ``retention_days`` is the owner's
    data-minimization choice: when set, points older than that horizon
    (relative to the newest point) are silently dropped on append; it must
    be ``None`` or an ``int`` >= 0 (not a ``bool``).
    """

    def __init__(
        self,
        rng: random.Random | None = None,
        contact_store: ContactStore | None = None,
        retention_days: int | None = None,
    ) -> None:
        if retention_days is not None and not (type(retention_days) is int and retention_days >= 0):
            raise ValueError(f"retention_days {retention_days!r} is not None or an int >= 0")
        self._t, self._lat, self._lon = array("q"), array("d"), array("d")
        self._consents: list[ConsentRecord] = []
        self._granted: set[Purpose] = set()
        self._stopped = False
        self._rng = rng
        self._retention_days = retention_days
        self.contact_store = contact_store

    def __len__(self) -> int:
        return len(self._t)

    @property
    def _points(self) -> list[LocationPoint]:
        """The history as points, in order (a copy, for tests to inspect)."""
        return list(map(LocationPoint, self._lat, self._lon, self._t))

    # -- collection ---------------------------------------------------------

    def append_location(self, p: LocationPoint) -> None:
        if self._stopped:
            raise TrackingStopped("location collection has been stopped")
        ts, t = self._t, p.t
        if ts and t < ts[-1]:  # out of order: goes after the fixes with an equal t
            i = bisect_right(ts, t)
            ts.insert(i, t)
            self._lat.insert(i, p.lat)
            self._lon.insert(i, p.lon)
        else:
            ts.append(t)
            self._lat.append(p.lat)
            self._lon.append(p.lon)
        if self._retention_days is not None and ts[0] < ts[-1] - self._retention_days * 86400:
            self._prune()

    def append_locations(self, ts: Sequence[int], lats: Sequence[float], lons: Sequence[float]) -> None:
        """Append the fixes ``(lats[i], lons[i])`` at ``ts[i]``, as that many
        ``append_location`` calls would.  The whole batch is checked before
        any of it is written, so a bad value leaves the store unchanged."""
        if self._stopped:
            raise TrackingStopped("location collection has been stopped")
        if not len(ts) == len(lats) == len(lons):
            raise ValueError("ts, lats and lons differ in length")
        # chained comparisons are False for NaN, so every value is checked
        if not all(type(t) is int and -_T_LIMIT <= t < _T_LIMIT for t in ts):
            raise ValueError("t is not an int in signed 64-bit range")
        if not all(-90.0 <= lat <= 90.0 for lat in lats):
            raise ValueError("lat outside [-90, 90]")
        if not all(-180.0 <= lon <= 180.0 for lon in lons):
            raise ValueError("lon outside [-180, 180]")
        if not ts:
            return
        col = self._t
        if (not col or ts[0] >= col[-1]) and all(map(le, ts, ts[1:])):
            col.extend(ts)
            self._lat.extend(lats)
            self._lon.extend(lons)
        else:  # unsorted, or starting before the newest fix
            for p in map(LocationPoint, lats, lons, ts):
                self.append_location(p)
        if self._retention_days is not None:
            self._prune()

    def _prune(self) -> None:
        # the history is sorted by t, so the expired fixes are a prefix
        n = bisect_left(self._t, self._t[-1] - self._retention_days * 86400)
        del self._t[:n], self._lat[:n], self._lon[:n]

    def grant_consent(self, purpose: Purpose) -> None:
        self._granted.add(purpose)

    def consent_ledger(self) -> list[ConsentRecord]:
        return list(self._consents)

    # -- sharing ------------------------------------------------------------

    def coarsened(self, g: Granularity, window: tuple[int, int] | None = None) -> list[CoarsenedVisit]:
        """Coarsen the stored history (optionally day-windowed) in place of
        handing out raw points."""
        ts = self._t
        lo, hi = 0, len(ts)
        if window is not None:
            lo, hi = bisect_left(ts, window[0] * 86400), bisect_left(ts, (window[1] + 1) * 86400)
        return _coarsen_columns(ts[lo:hi], self._lat[lo:hi], self._lon[lo:hi], g)

    def build_share_payload(
        self, purpose: Purpose, g: Granularity | None, window: tuple[int, int], *, now: int = 0
    ) -> tuple[SharePayload, ConsentRecord]:
        """Assemble one outgoing payload and its consent record.

        ``window`` is an inclusive (first_day, last_day) range.  The
        granularity must be no finer than the purpose's policy minimum on
        either axis; contact uploads carry no location and must pass
        ``g=None``.
        """
        if purpose not in self._granted:
            raise ConsentMissing(f"no active consent for {purpose.value}")
        minimum = minimum_granularity(purpose)
        if minimum is None:
            if g is not None:
                raise GranularityTooFine(f"{purpose.value} must not carry location data")
        else:
            if g is None or not g.at_least_as_coarse(minimum):
                raise GranularityTooFine(
                    f"{purpose.value} requires at least {minimum.spatial.value}"
                    f"/{minimum.bin_minutes}min"
                )

        if purpose is Purpose.CONTACT_UPLOAD:
            if self.contact_store is None:
                body: tuple = ()
            else:
                body = tuple(self.contact_store.qualifying_contact_digests(window))
        else:
            body = tuple(self.coarsened(g, window))

        pseudonym = self._rng.randbytes(PSEUDONYM_BYTES) if self._rng else secrets.token_bytes(PSEUDONYM_BYTES)
        consent = ConsentRecord(purpose, g, issued_at=now)
        self._consents.append(consent)
        return SharePayload(purpose, pseudonym, body), consent

    # -- the user's off switch ----------------------------------------------

    def stop_tracking_and_erase(self, scope: EraseScope, *, now: int = 0) -> None:
        self._stopped = True
        if scope is EraseScope.EVERYTHING:
            del self._t[:], self._lat[:], self._lon[:]
            if self.contact_store is not None:
                self.contact_store.prune(today=1 << 62)
            for c in self._consents:
                if c.revoked_at is None:
                    c.revoked_at = now
            self._granted.clear()

    # -- snapshotting ---------------------------------------------------------

    def save_snapshot(self, path: str | Path) -> None:
        lines = [SNAPSHOT_SCHEMA]
        lines += [f"{lat!r},{lon!r},{t}" for t, lat, lon in zip(self._t, self._lat, self._lon)]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load_snapshot(cls, path: str | Path, **kwargs) -> "PersonalDataStore":
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0] != SNAPSHOT_SCHEMA:
            raise ValueError(f"unrecognized snapshot schema: {lines[:1]}")
        pds = cls(**kwargs)
        for line in lines[1:]:
            if not line.strip():
                continue
            lat, lon, t = line.split(",")
            pds.append_location(LocationPoint(float(lat), float(lon), int(t)))
        return pds

    def save_consent_ledger(self, path: str | Path) -> None:
        text = "\n".join(c.to_json_line() for c in self._consents)
        Path(path).write_text(text + ("\n" if self._consents else ""))
