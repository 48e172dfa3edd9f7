"""Additively masked count aggregation: the aggregator learns only the sum.

Every unordered participant pair (i, j) shares a 32-byte seed distributed
out of band.  Both expand it through SHAKE-256 to the same mask vector;
i adds it, j subtracts it, so the pairwise terms cancel in the sum and
each individual share is uniformly masked mod 2^32.  A share sums whole
masks, each held as one integer with its u32 words in 64-bit lanes.
Exactness holds because per-entry contributions are bounded below 2^16
and rounds of 2^16 or more participants are rejected, so neither the
true sum nor a lane ever wraps.

Honest-but-curious model only: no dropout recovery, no malicious-party
defenses.  A missing or malformed share aborts the round.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

MASK_MODULUS = 1 << 32
ENTRY_BOUND = 1 << 16  # per-participant per-entry sanity bound
PARTICIPANT_BOUND = 1 << 16  # rounds stay below it, so mask lanes stay below 2^48

_MASK_DOMAIN = b"MASK"

Cell = Hashable


class MissingSeed(ValueError):
    """A participant lacks a pairwise seed for one of its peers."""


class WrongShareCount(ValueError):
    """Aggregation saw a different participant set than announced."""


class DimensionMismatch(ValueError):
    """A share's vector length does not match the round dimension."""


@dataclass(frozen=True)
class CellIndexSpace:
    """Fixed coordinate system for one aggregation round.

    ``cells`` and ``bins`` are ordered and duplicate-free; the flat vector
    index of (cell c_i, bin b_j) is ``i * len(bins) + j``.  ``bin_seconds``
    is the width of each temporal bin, so a visit timestamp buckets into
    the bin b with b <= t < b + bin_seconds.
    """

    cells: tuple[Cell, ...]
    bins: tuple[int, ...]
    bin_seconds: int = 3600

    def __post_init__(self) -> None:
        if len(set(self.cells)) != len(self.cells):
            raise ValueError("duplicate cells in index space")
        if len(set(self.bins)) != len(self.bins):
            raise ValueError("duplicate bins in index space")
        if list(self.bins) != sorted(self.bins):
            raise ValueError("bins must be sorted ascending")
        if self.bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")

    @property
    def dimension(self) -> int:
        return len(self.cells) * len(self.bins)

    @cached_property
    def _cell_index(self) -> dict[Cell, int]:
        return {c: i for i, c in enumerate(self.cells)}

    @cached_property
    def _bin_position(self) -> dict[int, int]:
        return {b: i for i, b in enumerate(self.bins)}

    def bin_index(self, t: int) -> int | None:
        """Index of the bin containing timestamp t, or None if uncovered."""
        i = bisect_right(self.bins, t) - 1
        if i < 0 or t >= self.bins[i] + self.bin_seconds:
            return None
        return i

    def index_of(self, cell: Cell, t: int) -> int | None:
        ci = self._cell_index.get(cell)
        bi = self._bin_position.get(t)
        if bi is None:  # not a bin start
            bi = self.bin_index(t)
        if ci is None or bi is None:
            return None
        return ci * len(self.bins) + bi

    def exact_index(self, cell: Cell, bin_start: int) -> int | None:
        """Flat index of (cell, bin_start) when bin_start is exactly one of
        the bins; unlike index_of, a time inside a bin does not match."""
        return self.index_of(cell, bin_start) if bin_start in self._bin_position else None

    def coordinate(self, flat_index: int) -> tuple[Cell, int]:
        if not 0 <= flat_index < self.dimension:
            raise IndexError(f"flat index {flat_index} outside 0..{self.dimension - 1}")
        ci, bi = divmod(flat_index, len(self.bins))
        return self.cells[ci], self.bins[bi]

    def dense_counts(self, counts: Mapping[Cell, Mapping[int, int]]) -> list[int]:
        """Flat vector of counts grouped as cell -> {timestamp: count}.  Each
        cell is looked up once, and each time adds at its bin: a bin start by
        one dict lookup, any other time by ``bin_index``.  Cells and times
        outside the space are dropped."""
        out = [0] * self.dimension
        n_bins, bin_position, bin_index = len(self.bins), self._bin_position, self.bin_index
        for cell, by_time in counts.items():
            if (ci := self._cell_index.get(cell)) is None:
                continue
            base = ci * n_bins
            for t, n in by_time.items():
                if (bi := bin_position.get(t)) is None and (bi := bin_index(t)) is None:
                    continue
                out[base + bi] += n
        return out


@dataclass(frozen=True)
class ContributionVector:
    """One participant's plaintext visit counts over a CellIndexSpace."""

    space: CellIndexSpace
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.space.dimension:
            raise ValueError(f"expected {self.space.dimension} counts, got {len(self.counts)}")
        for c in self.counts:
            if type(c) is not int or not 0 <= c < ENTRY_BOUND:
                raise ValueError(f"count {c!r} is not an int in [0, {ENTRY_BOUND})")

    @classmethod
    def from_visits(cls, space: CellIndexSpace, visits: Iterable[tuple[Cell, int]]) -> "ContributionVector":
        """Count (cell, timestamp) pairs; pairs outside the space are dropped."""
        by_cell: defaultdict[Cell, Counter[int]] = defaultdict(Counter)
        for cell, t in visits:
            by_cell[cell][t] += 1
        return cls(space, tuple(space.dense_counts(by_cell)))


@dataclass(frozen=True)
class PairwiseSeed:
    """Shared mask seed for the unordered participant pair (i, j), i < j."""

    i: int
    j: int
    secret: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.i < self.j:
            raise ValueError(f"need 0 <= i < j, got ({self.i}, {self.j})")
        if len(self.secret) != 32:
            raise ValueError("pairwise secret must be 32 bytes")


@dataclass(frozen=True)
class MaskedShare:
    """One participant's masked vector, safe to reveal to the aggregator."""

    participant: int
    values: tuple[int, ...]

    def to_bytes(self) -> bytes:
        """Wire encoding: participant u32 BE, D u32 BE, then D u32 BE words."""
        head = self.participant.to_bytes(4, "big") + len(self.values).to_bytes(4, "big")
        return head + b"".join(v.to_bytes(4, "big") for v in self.values)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MaskedShare":
        if len(data) < 8:
            raise ValueError("truncated share header")
        participant = int.from_bytes(data[:4], "big")
        d = int.from_bytes(data[4:8], "big")
        body = data[8:]
        if len(body) != 4 * d:
            raise ValueError(f"expected {4 * d} value bytes, got {len(body)}")
        values = tuple(int.from_bytes(body[4 * k : 4 * k + 4], "big") for k in range(d))
        return cls(participant, values)


def _mask_stream(secret: bytes, dimension: int) -> bytes:
    return hashlib.shake_256(secret + _MASK_DOMAIN).digest(4 * dimension)


def pairwise_mask(seed: PairwiseSeed | bytes, dimension: int) -> list[int]:
    """Expand a pairwise seed into a deterministic mask vector mod 2^32.

    The mask is the first 4 * dimension bytes of SHAKE-256(secret ||
    "MASK"), read as big-endian u32 words: one XOF call stretches the
    agreed seed, the PRG expansion of Bonawitz et al. (CCS 2017).
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    secret = seed.secret if isinstance(seed, PairwiseSeed) else seed
    return list(struct.unpack(f">{dimension}I", _mask_stream(secret, dimension)))


def mask_contribution(
    v: ContributionVector,
    me: int,
    seeds: Iterable[PairwiseSeed],
    n: int,
) -> MaskedShare:
    """Mask one contribution with all n-1 pairwise masks involving ``me``.

    Masks for pairs where ``me`` is the lower index are added; where it is
    the higher index they are subtracted, so they cancel across the cohort.
    Each mask is read as one integer and split into its even and its odd
    u32 words, each in the low half of its own 64-bit lane.  A lane sums
    its counts and added masks plus n_sub * 2^32, less the n_sub subtracted
    masks, so it never borrows and, with n < 2^16, stays below 2^48; it is
    reduced mod 2^32 once at the end, as if after every mask.
    """
    if n >= PARTICIPANT_BOUND:
        raise ValueError(f"{n} participants, need fewer than {PARTICIPANT_BOUND}")
    by_peer = {s.j if s.i == me else s.i: s for s in seeds if me in (s.i, s.j)}
    missing = [j for j in range(n) if j != me and j not in by_peer]
    if missing:
        raise MissingSeed(f"participant {me} lacks seeds for peers {missing}")

    d = len(v.counts)
    low = int.from_bytes(b"\0\0\0\0\xff\xff\xff\xff" * ((d + 1) // 2), "big")  # low half of each lane
    counts = int.from_bytes(struct.pack(f">{d}I", *v.counts), "big")
    lanes = [counts & low, counts >> 32 & low, 0, 0]  # even, odd: added, then subtracted
    for peer, seed in by_peer.items():
        mask = int.from_bytes(_mask_stream(seed.secret, d), "big")
        k = 0 if me < peer else 2
        lanes[k] += mask & low
        lanes[k + 1] += mask >> 32 & low
    bias = sum(peer < me for peer in by_peer) * (low // 0xFFFFFFFF) << 32
    even, odd = ((lanes[k] + bias - lanes[k + 2]) & low for k in (0, 1))
    return MaskedShare(me, struct.unpack(f">{d}I", (even | odd << 32).to_bytes(4 * d, "big")))


def aggregate(shares: Sequence[MaskedShare], n: int, dimension: int) -> list[int]:
    """Sum all shares mod 2^32; pairwise masks cancel, leaving exact sums.

    Aborts (raises) without emitting anything partial when a share is
    malformed (a participant that is not an int, a value that is not an int
    in [0, 2^32)) or the share set is not exactly the announced cohort.
    """
    if n >= PARTICIPANT_BOUND:
        raise ValueError(f"{n} participants, need fewer than {PARTICIPANT_BOUND}")
    if len(shares) != n:
        raise WrongShareCount(f"expected {n} shares, got {len(shares)}")
    for s in shares:
        if type(s.participant) is not int:
            raise ValueError(f"participant {s.participant!r} is not an int")
        if len(s.values) != dimension:
            raise DimensionMismatch(
                f"participant {s.participant} sent dimension {len(s.values)}, expected {dimension}"
            )
        try:
            struct.pack(f">{dimension}I", *s.values)  # one C pass: every value an int in [0, 2^32)
        except struct.error:
            raise ValueError(f"participant {s.participant} sent a value that is not an int in [0, 2^32)") from None
    if {s.participant for s in shares} != set(range(n)):
        raise WrongShareCount(f"share set is not the announced cohort 0..{n - 1}")
    if not shares:  # zip(*()) yields no columns
        return [0] * dimension
    return [sum(column) % MASK_MODULUS for column in zip(*(s.values for s in shares))]


def make_pairwise_seeds(n: int, rng) -> list[PairwiseSeed]:
    """Trusted-setup helper: one fresh seed per unordered pair.

    ``rng`` needs a ``randbytes`` method; pass a seeded random.Random for
    reproducible rounds or secrets.SystemRandom-alike for live ones.
    """
    return [PairwiseSeed(i, j, rng.randbytes(32)) for i in range(n) for j in range(i + 1, n)]


def seeds_for(me: int, seeds: Iterable[PairwiseSeed]) -> list[PairwiseSeed]:
    """The subset of a seed pool involving one participant."""
    return [s for s in seeds if me in (s.i, s.j)]
