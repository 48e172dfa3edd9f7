"""Device-local log of observed ephemeral IDs and local exposure matching.

The store never leaves the device: matching a published report against it
is a pure local computation, and the only things that ever cross the
module boundary are per-day exposure events (decentralized mode) or
qualifying contact-ID digests (centralized mode).  A record matches only
the report's ID for the day and epoch it was heard in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .crypto_ids import EPHID_BYTES, EPOCHS_PER_DAY, ExposureReport, contact_digest, ids_by_epoch

RETENTION_DAYS = 14
EXPOSURE_MIN_MINUTES = 15  # cumulative per day
ATTENUATION_CUTOFF = 60  # lower = closer; records above this are ignored


_VALID_EPOCHS = bytes(range(EPOCHS_PER_DAY))
_ONE_BYTE = tuple(bytes((b,)) for b in range(256))  # built once, not on every write
_NO_IDS = ((), frozenset())


@dataclass(slots=True)
class EncounterRecord:
    """One observation of a foreign ephemeral ID during one epoch."""

    observed: bytes
    day: int
    epoch: int
    duration_min: int
    attenuation: int

    def __post_init__(self) -> None:
        # inline checks: every stored record passes them twice
        if type(self.observed) is not bytes or len(self.observed) != EPHID_BYTES:  # checks hash it, exports hex it
            raise ValueError(f"observed id must be {EPHID_BYTES} bytes of type bytes")
        if self.day < 0:
            raise ValueError(f"day must be >= 0, got {self.day}")
        if not 0 <= self.epoch < EPOCHS_PER_DAY:
            raise ValueError(f"epoch must be in 0..{EPOCHS_PER_DAY - 1}, got {self.epoch}")
        if not 1 <= self.duration_min <= 15:
            raise ValueError(f"duration_min must be in 1..15, got {self.duration_min}")
        if not 0 <= self.attenuation <= 100:
            raise ValueError(f"attenuation must be in 0..100, got {self.attenuation}")


def _check_ints(**fields: object) -> None:
    for name, value in fields.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


def _stored_record(observed: bytes, day: int, epoch: int, duration_min: int, attenuation: int) -> EncounterRecord:
    """A record of fields the store checked when they were written, built
    without checking them again."""
    rec = object.__new__(EncounterRecord)
    rec.observed, rec.day, rec.epoch = observed, day, epoch
    rec.duration_min, rec.attenuation = duration_min, attenuation
    return rec


@dataclass(frozen=True)
class ExposureEvent:
    """One day on which cumulative matched contact crossed the threshold."""

    day: int
    cumulative_min: int
    matched_epochs: tuple[int, ...]


class _DayColumns:
    """One day's records in columns: record k is ``observed[k]`` with byte k
    of ``epochs``, ``durations`` and ``attenuations``.

    Every validated field fits in a byte, so the log holds no Python object
    per record beyond the observed ID itself.
    """

    __slots__ = ("observed", "epochs", "durations", "attenuations")

    def __init__(self) -> None:
        self.observed: list[bytes] = []
        self.epochs = bytearray()
        self.durations = bytearray()
        self.attenuations = bytearray()

    def rows(self) -> Iterator[tuple[bytes, int, int, int]]:
        """(observed, epoch, duration_min, attenuation) per record."""
        return zip(self.observed, self.epochs, self.durations, self.attenuations)


class ContactStore:
    """Append-only encounter log with retention pruning.

    Records are kept per day, in columns.  ``records()`` and the export
    list them day by day, in the order each day was first written, and
    within a day in write order; for a log written in day order, as a
    device writes it, that is write order.

    Duplicates are kept deliberately: the same (id, epoch) observed twice
    is a re-observation, and its durations add up.
    """

    def __init__(self, records: Iterable[EncounterRecord] = ()) -> None:
        self._days: dict[int, _DayColumns] = {}
        for rec in records:
            self.record_encounter(rec)

    def __len__(self) -> int:
        return sum(len(cols.observed) for cols in self._days.values())

    def records(self) -> list[EncounterRecord]:
        return [
            _stored_record(observed, day, epoch, duration, attenuation)
            for day, cols in self._days.items()
            for observed, epoch, duration, attenuation in cols.rows()
        ]

    def record_encounter(self, rec: EncounterRecord) -> None:
        """Append one record.  A record's fields can be reassigned after it
        was built, so they are checked again, against the types and ranges
        ``EncounterRecord`` checks; a failed check, or a field that is not an
        int (``TypeError``), writes nothing.  The day, an int >= 0, is checked
        when its columns open, so 3.0 once day 3 is held is stored as day 3."""
        # hot: slot reads measured cheaper than locals
        if not (
            type(rec.observed) is bytes
            and len(rec.observed) == EPHID_BYTES
            and 0 <= rec.epoch < EPOCHS_PER_DAY
            and 1 <= rec.duration_min <= 15
            and 0 <= rec.attenuation <= 100
        ):
            EncounterRecord(rec.observed, rec.day, rec.epoch, rec.duration_min, rec.attenuation)  # raises the error
        cols = self._days.get(rec.day)
        if cols is None:
            _check_ints(day=rec.day)
            if rec.day < 0:
                raise ValueError(f"day must be >= 0, got {rec.day}")
            cols = self._days[rec.day] = _DayColumns()
        try:  # a byte column rejects a non-int; unlike type checks, a try is free on success
            cols.epochs.append(rec.epoch)
            cols.durations.append(rec.duration_min)
            cols.attenuations.append(rec.attenuation)
        except TypeError:
            n = len(cols.observed)
            del cols.epochs[n:], cols.durations[n:], cols.attenuations[n:]
            if not n:  # the columns were opened for this record
                del self._days[rec.day]
            raise
        cols.observed.append(rec.observed)

    def record_observations(
        self, observed: Sequence[bytes], day: int, epochs: Sequence[int], duration_min: int, attenuation: int
    ) -> None:
        """Append record k as ID ``observed[k]`` seen in epoch ``epochs[k]``;
        the batch shares one day, duration and attenuation.

        Validates like ``EncounterRecord`` and raises its ``ValueError``s,
        one for a length mismatch, and ``TypeError`` for a non-int field or
        an int in place of ``epochs``; on a failed check nothing is written.
        """
        if type(day) is not int or type(duration_min) is not int or type(attenuation) is not int:  # hot: no kwargs call
            _check_ints(day=day, duration_min=duration_min, attenuation=attenuation)  # raises, naming the field
        if day < 0:
            raise ValueError(f"day must be >= 0, got {day}")
        if not 1 <= duration_min <= 15:
            raise ValueError(f"duration_min must be in 1..15, got {duration_min}")
        if not 0 <= attenuation <= 100:
            raise ValueError(f"attenuation must be in 0..100, got {attenuation}")
        n = len(observed)
        try:
            packed = bytes(epochs)
        except ValueError:  # an epoch outside 0..255
            packed = None
        # C-level checks of the whole column (deleting every valid epoch
        # leaves the bad ones); a failure is named one epoch at a time
        if packed is None or len(packed) != n or packed.translate(None, _VALID_EPOCHS) or isinstance(epochs, int):
            if isinstance(epochs, int):  # bytes(n) would read it as n zero epochs
                raise TypeError("epochs must be a sequence with one epoch per observed id")
            for epoch in epochs:
                if not 0 <= epoch < EPOCHS_PER_DAY:
                    raise ValueError(f"epoch must be in 0..{EPOCHS_PER_DAY - 1}, got {epoch}")
            raise ValueError(f"{n} observed ids but {len(epochs)} epochs")
        for obs in observed:
            if type(obs) is not bytes or len(obs) != EPHID_BYTES:
                raise ValueError(f"observed id must be {EPHID_BYTES} bytes of type bytes")
        if not n:
            return
        cols = self._days.get(day)
        if cols is None:
            cols = self._days[day] = _DayColumns()
        cols.observed += observed
        cols.epochs += packed
        cols.durations += _ONE_BYTE[duration_min] * n
        cols.attenuations += _ONE_BYTE[attenuation] * n

    def prune(self, today: int) -> None:
        """Drop records at or beyond the retention horizon; idempotent."""
        cutoff = today - RETENTION_DAYS
        for day in [d for d in self._days if d <= cutoff]:
            del self._days[day]

    def check_exposure(self, report: ExposureReport) -> list[ExposureEvent]:
        """Match a published report against the local log.

        A record heard on day d in epoch e matches when its observed ID is the
        report's ID for (d, e), so not when replayed at another time, and its
        attenuation is at most ``ATTENUATION_CUTOFF``.  Matched minutes per day
        at or above ``EXPOSURE_MIN_MINUTES`` make one event.  IDs are derived
        only for the report days the store holds, and the epochs held there."""
        table = {}
        for day, cols in self._days.items():
            if 0 <= day - report.first_day < len(report.seeds):
                held = _VALID_EPOCHS.translate(None, _VALID_EPOCHS.translate(None, cols.epochs))  # each epoch once
                by_epoch = ids_by_epoch(report.seeds[day - report.first_day], held)
                table[day] = (by_epoch, frozenset(by_epoch))  # a None slot is never heard
        return self.check_exposure_ids(table)

    def check_exposure_ids(self, table: dict[int, tuple[Sequence, frozenset[bytes]]]) -> list[ExposureEvent]:
        """Same as check_exposure, against IDs derived beforehand: ``table`` maps a day to its
        IDs by epoch (None if not derived) and as a set, as ``report_id_table`` builds."""
        events = []
        for day, cols in sorted(self._days.items()):
            by_epoch, ids = table.get(day, _NO_IDS)
            if ids.isdisjoint(cols.observed):  # a day without a hit: one C-level pass
                continue
            total, epochs = 0, set()
            observed, epoch, duration, attenuation = cols.observed, cols.epochs, cols.durations, cols.attenuations
            for k in compress(range(len(epoch)), map(ids.__contains__, observed)):
                if by_epoch[epoch[k]] == observed[k] and attenuation[k] <= ATTENUATION_CUTOFF:
                    total += duration[k]
                    epochs.add(epoch[k])
            if total >= EXPOSURE_MIN_MINUTES:  # durations are >= 1, so epochs is not empty
                events.append(ExposureEvent(day, total, tuple(sorted(epochs))))
        return events

    def qualifying_contact_digests(self, window: tuple[int, int] | None = None) -> list[str]:
        """Digests of observed IDs with at least ``EXPOSURE_MIN_MINUTES`` of
        contact on one day.

        This is the client-side filter for centralized uploads.  IDs rotate
        per epoch, so grouping by (id, day) is the finest aggregation a
        device can do without being able to link a contact's IDs.
        """
        minutes: dict[tuple[bytes, int], int] = {}
        for day, cols in self._days.items():
            if window is not None and not window[0] <= day <= window[1]:
                continue
            for observed, _epoch, duration, attenuation in cols.rows():
                if attenuation > ATTENUATION_CUTOFF:
                    continue
                key = (observed, day)
                minutes[key] = minutes.get(key, 0) + duration
        qualified = sorted({obs for (obs, _day), total in minutes.items() if total >= EXPOSURE_MIN_MINUTES})
        return [contact_digest(obs) for obs in qualified]

    # -- text form (save/load): one line per record ----------------------

    def export_lines(self) -> list[str]:
        return [
            f"{day},{epoch},{duration},{attenuation},{observed.hex()}"
            for day, cols in self._days.items()
            for observed, epoch, duration, attenuation in cols.rows()
        ]

    def save(self, path: str | Path) -> None:
        lines = self.export_lines()
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def load(cls, path: str | Path) -> "ContactStore":
        store = cls()
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            day, epoch, duration, attenuation, observed = line.split(",")
            store.record_observations(
                (bytes.fromhex(observed),), int(day), (int(epoch),), int(duration), int(attenuation)
            )
        return store
