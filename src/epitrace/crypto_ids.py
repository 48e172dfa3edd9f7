"""Seed chains and rotating ephemeral identifiers for proximity tracing.

A device holds one 32-byte secret per day.  Tomorrow's secret is the
SHA-256 of today's, so a positive user can publish a whole infectious
window as (first_day, list of secrets) and every contact re-derives the
broadcast IDs locally.  Within a day the broadcast ID rotates every
15 minutes (96 epochs/day), each ID being a domain-separated hash of the
daily secret and the epoch index.

Two deployment modes share this code path: in decentralized mode seeds
stay on the device until voluntarily published; in centralized mode a
device escrows its daily seeds with the authority up front so the
authority can resolve the ID digests that contacts upload back to a
registrant token.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

EPOCHS_PER_DAY = 96  # 15-minute epochs
SEED_BYTES = 32
EPHID_BYTES = 16

_EPOCH_SUFFIXES = tuple(b"EPHID" + j.to_bytes(4, "big") for j in range(EPOCHS_PER_DAY))


class NonContiguousDays(ValueError):
    """Seed list for a report has gaps or is out of order."""


class DuplicateRegistration(ValueError):
    """A (registrant, day) pair was escrowed twice."""


@dataclass(frozen=True)
class DailySeed:
    """One day's secret in the hash chain."""

    day: int
    secret: bytes

    def __post_init__(self) -> None:
        if type(self.day) is not int or self.day < 0:
            raise ValueError(f"day must be an int >= 0, got {self.day!r}")
        if type(self.secret) is not bytes or len(self.secret) != SEED_BYTES:
            raise ValueError(f"secret must be {SEED_BYTES} bytes of type bytes")


@dataclass(frozen=True)
class ExposureReport:
    """Published material from which a positive user's IDs re-derive.

    Covers a contiguous day range starting at ``first_day``, an int in
    [0, 2^64); ``seeds`` is a tuple of the raw 32-byte secrets in day order.
    """

    first_day: int
    seeds: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if type(self.first_day) is not int or not 0 <= self.first_day < 1 << 64:
            raise ValueError(f"first_day must be an int in [0, 2^64), got {self.first_day!r}")
        if type(self.seeds) is not tuple or not self.seeds:
            raise ValueError("seeds must be a non-empty tuple: a report covers at least one day")
        for s in self.seeds:
            if type(s) is not bytes or len(s) != SEED_BYTES:
                raise ValueError(f"every report seed must be {SEED_BYTES} bytes of type bytes")

    @property
    def last_day(self) -> int:
        return self.first_day + len(self.seeds) - 1

    def to_bytes(self) -> bytes:
        """Wire encoding: first_day u64 BE, seed count u32 BE, raw secrets."""
        out = self.first_day.to_bytes(8, "big") + len(self.seeds).to_bytes(4, "big")
        return out + b"".join(self.seeds)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExposureReport":
        data = bytes(data)  # a bytearray or memoryview slices into seeds of type bytes
        if len(data) < 12:
            raise ValueError("truncated report header")
        first_day = int.from_bytes(data[:8], "big")
        count = int.from_bytes(data[8:12], "big")
        body = data[12:]
        if len(body) != count * SEED_BYTES:
            raise ValueError(f"expected {count} seeds ({count * SEED_BYTES} bytes), got {len(body)} bytes")
        seeds = tuple(body[i * SEED_BYTES : (i + 1) * SEED_BYTES] for i in range(count))
        return cls(first_day, seeds)


def derive_next_seed(seed: DailySeed) -> DailySeed:
    """Advance the chain one day: secret' = SHA-256(secret)."""
    return DailySeed(seed.day + 1, hashlib.sha256(seed.secret).digest())


def derive_epoch_id(secret: bytes, epoch: int) -> bytes:
    """Raw 16-byte ID for one epoch (0..95) of one daily secret."""
    if not 0 <= epoch < EPOCHS_PER_DAY:
        raise ValueError(f"epoch {epoch} outside 0..{EPOCHS_PER_DAY - 1}")
    return epoch_ids(secret, epoch, epoch + 1)[0]


def epoch_ids(secret: bytes, start: int = 0, stop: int = EPOCHS_PER_DAY) -> list[bytes]:
    """The raw IDs of epochs ``start``..``stop - 1`` of one daily secret, in
    epoch order; by default all 96.

    Entry j equals ``derive_epoch_id(secret, start + j)``, and the range is
    sliced like a list of the day's IDs.  The per-epoch suffixes are built
    once at import, and each hash starts from a copy of the state after the
    secret, which is cheaper than a fresh hash object.
    """
    base = hashlib.sha256(secret)
    out = []
    for suffix in _EPOCH_SUFFIXES[start:stop]:
        h = base.copy()
        h.update(suffix)
        out.append(h.digest()[:EPHID_BYTES])
    return out


def report_from_seeds(seeds: list[DailySeed]) -> ExposureReport:
    """Pack a contiguous run of daily seeds into a publishable report."""
    if not seeds:
        raise NonContiguousDays("cannot build a report from zero seeds")
    for prev, cur in zip(seeds, seeds[1:]):
        if cur.day != prev.day + 1:
            raise NonContiguousDays(f"day {cur.day} does not follow day {prev.day}")
    return ExposureReport(seeds[0].day, tuple(s.secret for s in seeds))


def report_id_set(report: ExposureReport) -> set[bytes]:
    """Every raw ephemeral ID derivable from a report (all days, all epochs)."""
    out: set[bytes] = set()
    for secret in report.seeds:
        out.update(epoch_ids(secret))
    return out


class EscrowTable:
    """Authority-side ID digest→registrant resolution, centralized variant.

    Registration expands the seed to its 96 IDs and indexes each by its
    SHA-256 digest, the form contacts upload; no location data is attached.
    """

    def __init__(self) -> None:
        self._entries: set[tuple[str, int]] = set()
        self._by_digest: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def escrow_register(self, seed: DailySeed, registrant: str) -> None:
        key = (registrant, seed.day)
        if key in self._entries:
            raise DuplicateRegistration(f"registrant {registrant!r} already escrowed day {seed.day}")
        self._entries.add(key)
        for raw in epoch_ids(seed.secret):
            self._by_digest[contact_digest(raw)] = registrant

    def resolve_digest(self, digest_hex: str) -> str | None:
        return self._by_digest.get(digest_hex)


def contact_digest(ephemeral_id: bytes) -> str:
    """SHA-256 hex digest of an observed ID, the centralized upload form."""
    return hashlib.sha256(ephemeral_id).hexdigest()
