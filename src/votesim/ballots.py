"""Preferential ballots: structure, canonical encoding, voter behaviour.

The election has two races. The assembly race is a plain candidate
ordering. The council race is cast either above the line (an ordering of
party groups) or below the line (an ordering of individual candidates,
subject to a minimum preference count).

Wire format of a ballot (all integers big-endian):

    byte 0        council mode, 0x00 = above the line, 0x01 = below
    u16           number of assembly preferences, then one u16 index
                  into manifest.assembly_candidates per preference
    u16           number of council preferences, then one u16 index
                  into manifest.groups (ATL) or manifest.candidates (BTL)

The encoding is deterministic and injective for a fixed manifest, which
is what the envelope layer relies on.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from random import Random
from typing import Optional


class BallotError(Exception):
    pass


class InvalidBallot(BallotError):
    """Ballot violates manifest invariants (unknown ids, duplicates, ...)."""


class MalformedEncoding(BallotError):
    """Byte sequence is not a well-formed ballot encoding."""


class CouncilMode(Enum):
    ABOVE_THE_LINE = 0
    BELOW_THE_LINE = 1


@dataclass(frozen=True, slots=True)
class Ballot:
    assembly_prefs: tuple[str, ...]
    council_mode: CouncilMode
    council_prefs: tuple[str, ...]


@dataclass(frozen=True)
class ElectionManifest:
    """Race definitions plus the per-group how-to-vote cards.

    `candidates` maps candidate id -> group id; every candidate has a
    group. Cards are full ballots published by each group; the
    behavioural model reproduces them exactly for card-following voters.
    """

    groups: tuple[str, ...]
    candidates: dict[str, str]
    assembly_candidates: tuple[str, ...]
    min_below_line_prefs: int = 1
    cards: dict[str, Ballot] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.groups)) != len(self.groups):
            raise InvalidBallot("duplicate group ids in manifest")
        if not self.groups or not self.candidates or not self.assembly_candidates:
            raise InvalidBallot("manifest races must be non-empty")
        if self.min_below_line_prefs < 1:
            raise InvalidBallot("min_below_line_prefs must be >= 1")
        known = set(self.groups)
        for cand, grp in self.candidates.items():
            if grp not in known:
                raise InvalidBallot(f"candidate {cand} references unknown group {grp}")
        for grp, card in self.cards.items():
            if grp not in known:
                raise InvalidBallot(f"card for unknown group {grp}")
            validate_ballot(card, self)

    # the codec's lookups, built at first use and kept with the manifest

    @cached_property
    def candidate_ids(self) -> tuple[str, ...]:
        return tuple(self.candidates)

    @cached_property
    def assembly_index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.assembly_candidates)}

    @cached_property
    def group_index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.groups)}

    @cached_property
    def candidate_index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.candidates)}

    @cached_property
    def card_by_encoding(self) -> dict[bytes, Ballot]:
        """Each card's encoding to the card itself."""
        return {encode_ballot(card, self): card for card in self.cards.values()}


def make_manifest(
    num_groups: int = 24,
    num_candidates: int = 394,
    num_assembly: int = 24,
    min_below_line_prefs: int = 1,
) -> ElectionManifest:
    """Synthetic manifest with round-robin group membership and one
    single-first-preference card per group (the pattern that recurs most
    often in practice).
    """
    groups = tuple(f"g{i + 1:02d}" for i in range(num_groups))
    candidates = {
        f"c{i + 1:03d}": groups[i % num_groups] for i in range(num_candidates)
    }
    assembly = tuple(f"a{i + 1:02d}" for i in range(num_assembly))
    cards = {}
    for i, grp in enumerate(groups):
        cards[grp] = Ballot(
            assembly_prefs=(assembly[i % num_assembly],),
            council_mode=CouncilMode.ABOVE_THE_LINE,
            council_prefs=(grp,),
        )
    return ElectionManifest(
        groups=groups,
        candidates=candidates,
        assembly_candidates=assembly,
        min_below_line_prefs=min_below_line_prefs,
        cards=cards,
    )


def _check_duplicates_and_empty(assembly: tuple[str, ...], council: tuple[str, ...]) -> None:
    if len(set(assembly)) != len(assembly):
        raise InvalidBallot("duplicate assembly preferences")
    if len(set(council)) != len(council):
        raise InvalidBallot("duplicate council preferences")
    if not assembly and not council:
        raise InvalidBallot("empty ballot")


def _check_below_line_minimum(council: tuple[str, ...], manifest: ElectionManifest) -> None:
    if council and len(council) < manifest.min_below_line_prefs:
        raise InvalidBallot(
            f"below-the-line ballot needs >= {manifest.min_below_line_prefs} preferences"
        )


def validate_ballot(ballot: Ballot, manifest: ElectionManifest) -> None:
    """Raise InvalidBallot unless `ballot` is well-formed for `manifest`."""
    assembly, council = ballot.assembly_prefs, ballot.council_prefs
    _check_duplicates_and_empty(assembly, council)
    assembly_known = manifest.assembly_index
    for cid in assembly:
        if cid not in assembly_known:
            raise InvalidBallot(f"unknown assembly candidate {cid}")
    if ballot.council_mode is CouncilMode.ABOVE_THE_LINE:
        known = manifest.group_index
        for gid in council:
            if gid not in known:
                raise InvalidBallot(f"unknown group {gid}")
    else:
        known = manifest.candidates
        for cid in council:
            if cid not in known:
                raise InvalidBallot(f"unknown candidate {cid}")
        _check_below_line_minimum(council, manifest)


def encode_ballot(ballot: Ballot, manifest: ElectionManifest) -> bytes:
    """Canonical byte encoding; see the module docstring for the format."""
    validate_ballot(ballot, manifest)
    assembly_index = manifest.assembly_index
    if ballot.council_mode is CouncilMode.ABOVE_THE_LINE:
        council_index = manifest.group_index
    else:
        council_index = manifest.candidate_index
    assembly, council = ballot.assembly_prefs, ballot.council_prefs
    return b"".join([
        bytes((ballot.council_mode.value,)),
        len(assembly).to_bytes(2, "big"),
        *[assembly_index[cid].to_bytes(2, "big") for cid in assembly],
        len(council).to_bytes(2, "big"),
        *[council_index[pid].to_bytes(2, "big") for pid in council],
    ])


def _out_of_range(indexes: list[int], pool: tuple[str, ...], race: str) -> InvalidBallot:
    first = next(i for i in indexes if i >= len(pool))
    return InvalidBallot(f"{race} index {first} out of range")


def decode_ballot(data: bytes, manifest: ElectionManifest) -> Ballot:
    """Inverse of encode_ballot. MalformedEncoding for structural damage,
    InvalidBallot for well-formed bytes that reference impossible ballots.
    A card's encoding decodes to the manifest's card object (Ballot is
    frozen, so the one object serves every voter who cast it).
    """
    card = manifest.card_by_encoding.get(data)
    if card is not None:
        return card
    size = len(data)
    if size < 1:
        raise MalformedEncoding("empty input")
    mode_byte = data[0]
    if mode_byte not in (0, 1):
        raise MalformedEncoding(f"unknown mode byte {mode_byte:#04x}")
    # the two counts fix every offset: the council count sits right after
    # the assembly indexes, and the council indexes end the encoding
    if size < 3:
        raise MalformedEncoding("truncated encoding")
    council_at = 3 + 2 * (data[1] << 8 | data[2])
    if council_at + 2 > size:
        raise MalformedEncoding("truncated encoding")
    end = council_at + 2 + 2 * (data[council_at] << 8 | data[council_at + 1])
    if end > size:
        raise MalformedEncoding("truncated encoding")
    if end != size:
        raise MalformedEncoding("trailing bytes after ballot")
    assembly_idx = [data[i] << 8 | data[i + 1] for i in range(3, council_at, 2)]
    council_idx = [data[i] << 8 | data[i + 1] for i in range(council_at + 2, end, 2)]

    names = manifest.assembly_candidates
    try:
        assembly = tuple([names[i] for i in assembly_idx])
    except IndexError:
        raise _out_of_range(assembly_idx, names, "assembly") from None
    if mode_byte:
        mode, pool = CouncilMode.BELOW_THE_LINE, manifest.candidate_ids
    else:
        mode, pool = CouncilMode.ABOVE_THE_LINE, manifest.groups
    try:
        council = tuple([pool[i] for i in council_idx])
    except IndexError:
        raise _out_of_range(council_idx, pool, "council") from None

    # in-range indexes name known ids, so of validate_ballot's checks only
    # these can still fail; they run in its order
    _check_duplicates_and_empty(assembly, council)
    if mode_byte:
        _check_below_line_minimum(council, manifest)
    return Ballot(assembly_prefs=assembly, council_mode=mode, council_prefs=council)


def draw_ballot(leaning: str, follows_card: bool, manifest: ElectionManifest,
                rng: Random) -> Ballot:
    """Card followers cast their group's card exactly. Everyone else gets
    a random valid above-the-line ballot whose first council preference is
    their leaning (a modelling assumption, surfaced in scenario reports).
    """
    if follows_card:
        card = manifest.cards.get(leaning)
        if card is None:
            raise InvalidBallot(f"no card configured for group {leaning}")
        return card
    others = [g for g in manifest.groups if g != leaning]
    extra = rng.randint(0, len(others))
    tail = rng.sample(others, extra)
    n_assembly = rng.randint(1, min(4, len(manifest.assembly_candidates)))
    assembly = tuple(rng.sample(manifest.assembly_candidates, n_assembly))
    return Ballot(
        assembly_prefs=assembly,
        council_mode=CouncilMode.ABOVE_THE_LINE,
        council_prefs=(leaning, *tail),
    )


@dataclass(frozen=True)
class TallyResult:
    counts: dict[str, int]
    margin: Optional[int]
    winner: Optional[str]
    runner_up: Optional[str]


def first_preference_key(ballot: Ballot, manifest: ElectionManifest) -> Optional[str]:
    """Group credited with the ballot's first council preference.

    Below-the-line ballots count toward the group of their first-ranked
    candidate.
    """
    if not ballot.council_prefs:
        return None
    first = ballot.council_prefs[0]
    if ballot.council_mode is CouncilMode.ABOVE_THE_LINE:
        return first
    return manifest.candidates[first]


def tally_first_preferences(ballots: list[Ballot], manifest: ElectionManifest) -> TallyResult:
    """First-preference counts for the council race plus the top-two margin.

    The margin is the full count gap between first and second place; absent
    when no ballot carries a council vote. A single-horse race reports its
    full count as the margin.
    """
    counts: dict[str, int] = {}
    for b in ballots:
        key = first_preference_key(b, manifest)
        if key is None:
            continue
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        return TallyResult(counts={}, margin=None, winner=None, runner_up=None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    winner, top = ranked[0]
    if len(ranked) > 1:
        runner_up, second = ranked[1]
    else:
        runner_up, second = None, 0
    return TallyResult(counts=counts, margin=top - second, winner=winner, runner_up=runner_up)
