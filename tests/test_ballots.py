"""Ballot encoding, voter behaviour, and first-preference tallies."""

import math
from collections import Counter
from dataclasses import replace
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from votesim.ballots import (
    Ballot,
    CouncilMode,
    InvalidBallot,
    MalformedEncoding,
    decode_ballot,
    draw_ballot,
    encode_ballot,
    make_manifest,
    tally_first_preferences,
    validate_ballot,
)
from votesim.config import parse_config
from votesim.engine import ScenarioEngine

ATL = CouncilMode.ABOVE_THE_LINE
BTL = CouncilMode.BELOW_THE_LINE


def atl(manifest, *groups, assembly=None):
    return Ballot(
        assembly_prefs=assembly or (manifest.assembly_candidates[0],),
        council_mode=ATL,
        council_prefs=groups,
    )


class TestEncodeDecode:
    def test_round_trip_identity_atl(self):
        m = make_manifest(num_groups=24, num_candidates=48, num_assembly=4)
        b = atl(m, "g03")
        data = encode_ballot(b, m)
        assert decode_ballot(data, m) == b
        # canonical: same ballot encodes to the same bytes
        assert encode_ballot(b, m) == data

    def test_a_decoded_card_is_the_published_card(self):
        m = make_manifest(num_groups=4, num_candidates=8, num_assembly=2)
        for card in m.cards.values():
            assert decode_ballot(encode_ballot(card, m), m) is card
        # a ballot that is no card is still parsed into an equal new one
        b = atl(m, "g01", "g02")
        assert b not in m.cards.values()
        decoded = decode_ballot(encode_ballot(b, m), m)
        assert decoded == b and decoded is not b

    def test_preference_order_changes_encoding(self):
        m = make_manifest(num_groups=4, num_candidates=8, num_assembly=2)
        b1 = atl(m, "g01", "g02")
        b2 = atl(m, "g02", "g01")
        assert encode_ballot(b1, m) != encode_ballot(b2, m)

    def test_exhaustive_single_pref_atl_round_trip(self):
        # brute-force enumeration oracle: every ATL single-preference ballot
        # on a 4-group manifest round-trips
        m = make_manifest(num_groups=4, num_candidates=8, num_assembly=2)
        ballots = [atl(m, g) for g in m.groups]
        assert len(ballots) == 4
        for b in ballots:
            assert decode_ballot(encode_ballot(b, m), m) == b

    def test_truncated_bytes_rejected(self):
        m = make_manifest(num_groups=4, num_candidates=8, num_assembly=2)
        data = encode_ballot(atl(m, "g01", "g02"), m)
        for cut in range(len(data)):
            with pytest.raises(MalformedEncoding):
                decode_ballot(data[:cut], m)

    def test_unknown_group_index_rejected(self):
        # bytes built by hand per the documented format: mode byte, one
        # assembly pref (index 0), one council pref referencing group 25
        # on a 24-group manifest (index 24)
        m = make_manifest(num_groups=24, num_candidates=48, num_assembly=4)
        raw = bytes([0x00]) + (1).to_bytes(2, "big") + (0).to_bytes(2, "big") \
            + (1).to_bytes(2, "big") + (24).to_bytes(2, "big")
        with pytest.raises(InvalidBallot):
            decode_ballot(raw, m)

    def test_bad_mode_byte(self):
        m = make_manifest(num_groups=4, num_candidates=8, num_assembly=2)
        with pytest.raises(MalformedEncoding):
            decode_ballot(b"\x07\x00\x00\x00\x00", m)

    def test_trailing_bytes_rejected(self):
        m = make_manifest(num_groups=4, num_candidates=8, num_assembly=2)
        data = encode_ballot(atl(m, "g01"), m)
        with pytest.raises(MalformedEncoding):
            decode_ballot(data + b"\x00", m)

    def test_duplicate_prefs_rejected(self):
        m = make_manifest(num_groups=4, num_candidates=8, num_assembly=2)
        with pytest.raises(InvalidBallot):
            encode_ballot(atl(m, "g01", "g01"), m)

    def test_btl_round_trip_and_minimum(self):
        m = make_manifest(num_groups=4, num_candidates=8, num_assembly=2,
                          min_below_line_prefs=2)
        b = Ballot(assembly_prefs=("a01",), council_mode=BTL,
                   council_prefs=("c001", "c005", "c002"))
        assert decode_ballot(encode_ballot(b, m), m) == b
        short = Ballot(assembly_prefs=("a01",), council_mode=BTL,
                       council_prefs=("c001",))
        with pytest.raises(InvalidBallot):
            encode_ballot(short, m)

    def test_round_trip_random_ballots(self):
        m = make_manifest(num_groups=6, num_candidates=18, num_assembly=3)
        rng = Random(7)
        for _ in range(500):
            if rng.random() < 0.5:
                k = rng.randint(1, 6)
                b = Ballot(
                    assembly_prefs=tuple(rng.sample(m.assembly_candidates,
                                                    rng.randint(1, 3))),
                    council_mode=ATL,
                    council_prefs=tuple(rng.sample(m.groups, k)),
                )
            else:
                k = rng.randint(1, 8)
                b = Ballot(
                    assembly_prefs=tuple(rng.sample(m.assembly_candidates,
                                                    rng.randint(1, 3))),
                    council_mode=BTL,
                    council_prefs=tuple(rng.sample(m.candidate_ids, k)),
                )
            assert decode_ballot(encode_ballot(b, m), m) == b

    def test_injectivity_exhaustive_small_manifest(self):
        # exhaustive sub-universe on a 4-group manifest: all ATL orderings
        # of every nonempty group subset, crossed with both 1-assembly picks
        m = make_manifest(num_groups=4, num_candidates=4, num_assembly=2)
        seen = {}
        for a in m.assembly_candidates:
            for k in range(1, 5):
                for prefs in permutations(m.groups, k):
                    b = Ballot(assembly_prefs=(a,), council_mode=ATL,
                               council_prefs=prefs)
                    data = encode_ballot(b, m)
                    assert data not in seen, f"collision {b} vs {seen[data]}"
                    seen[data] = b
        assert len(seen) == 2 * (4 + 12 + 24 + 24)


def reference_decode(data, manifest):
    """The byte-at-a-time decoder that decode_ballot replaced, kept as the
    oracle for its results and its exceptions.
    """
    if len(data) < 1:
        raise MalformedEncoding("empty input")
    mode_byte = data[0]
    if mode_byte not in (0, 1):
        raise MalformedEncoding(f"unknown mode byte {mode_byte:#04x}")
    mode = CouncilMode(mode_byte)
    pos = 1

    def take_u16():
        nonlocal pos
        if pos + 2 > len(data):
            raise MalformedEncoding("truncated encoding")
        v = int.from_bytes(data[pos:pos + 2], "big")
        pos += 2
        return v

    n_assembly = take_u16()
    assembly_idx = [take_u16() for _ in range(n_assembly)]
    n_council = take_u16()
    council_idx = [take_u16() for _ in range(n_council)]
    if pos != len(data):
        raise MalformedEncoding("trailing bytes after ballot")
    for i in assembly_idx:
        if i >= len(manifest.assembly_candidates):
            raise InvalidBallot(f"assembly index {i} out of range")
    if mode is CouncilMode.ABOVE_THE_LINE:
        pool = manifest.groups
    else:
        pool = tuple(manifest.candidates.keys())
    for i in council_idx:
        if i >= len(pool):
            raise InvalidBallot(f"council index {i} out of range")
    ballot = Ballot(
        assembly_prefs=tuple(manifest.assembly_candidates[i] for i in assembly_idx),
        council_mode=mode,
        council_prefs=tuple(pool[i] for i in council_idx),
    )
    validate_ballot(ballot, manifest)
    return ballot


def outcome(decode, data, manifest):
    try:
        return decode(data, manifest)
    except (MalformedEncoding, InvalidBallot) as exc:
        return type(exc), str(exc)


@st.composite
def manifests(draw):
    groups = draw(st.integers(1, 6))
    return make_manifest(num_groups=groups,
                         num_candidates=draw(st.integers(groups, 3 * groups)),
                         num_assembly=draw(st.integers(1, 4)),
                         min_below_line_prefs=draw(st.integers(1, 3)))


@st.composite
def near_encodings(draw, manifest):
    """Bytes laid out per the wire format, for either council mode, with
    indexes that may run past their pool or repeat, then cut short or
    extended.
    """
    mode = draw(st.sampled_from([0, 1] * 4 + [2, 0xff]))
    pool = len(manifest.groups) if mode == 0 else len(manifest.candidates)

    def indexes(size):
        # past the pool by one, or by up to four so that the first bad
        # index and the largest can differ
        top = size + draw(st.sampled_from([0, 3]))
        return draw(st.lists(st.integers(0, top), max_size=5))

    assembly = indexes(len(manifest.assembly_candidates))
    council = indexes(pool)
    data = bytes([mode]) + b"".join(
        v.to_bytes(2, "big")
        for v in (len(assembly), *assembly, len(council), *council))
    tail = draw(st.sampled_from(["whole", "cut", "extra"]))
    if tail == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif tail == "extra":
        data += draw(st.binary(min_size=1, max_size=4))
    return data


class TestDecodeMatchesReference:
    # the same Ballot, or the same exception class and message, on every
    # input: random bytes, near-valid layouts, and mutilated encodings of
    # valid ballots of both council modes

    @settings(max_examples=300, deadline=None)
    @given(manifest=manifests(), data=st.binary(max_size=24))
    def test_random_bytes(self, manifest, data):
        assert outcome(decode_ballot, data, manifest) == \
            outcome(reference_decode, data, manifest)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_near_encodings(self, data):
        manifest = data.draw(manifests())
        raw = data.draw(near_encodings(manifest))
        assert outcome(decode_ballot, raw, manifest) == \
            outcome(reference_decode, raw, manifest)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_valid_ballots_and_their_prefixes_and_extensions(self, data):
        manifest = data.draw(manifests())
        mode = data.draw(st.sampled_from(CouncilMode))
        pool = manifest.groups if mode is CouncilMode.ABOVE_THE_LINE \
            else manifest.candidate_ids
        council = tuple(data.draw(st.permutations(pool))[
            :data.draw(st.integers(manifest.min_below_line_prefs, len(pool)))]) \
            if len(pool) >= manifest.min_below_line_prefs else ()
        assembly = tuple(data.draw(st.permutations(manifest.assembly_candidates))[
            :data.draw(st.integers(0 if council else 1,
                                   len(manifest.assembly_candidates)))])
        ballot = Ballot(assembly, mode, council)
        encoded = encode_ballot(ballot, manifest)
        assert decode_ballot(encoded, manifest) == ballot
        for raw in (*(encoded[:cut] for cut in range(len(encoded))),
                    encoded + data.draw(st.binary(min_size=1, max_size=3))):
            assert outcome(decode_ballot, raw, manifest) == \
                outcome(reference_decode, raw, manifest)


class TestDrawBallot:
    def setup_method(self):
        self.m = make_manifest(num_groups=24, num_candidates=48, num_assembly=24)

    def test_card_follower_gets_exact_card(self):
        assert draw_ballot("g01", True, self.m, Random(1)) == self.m.cards["g01"]

    def test_non_follower_first_pref_is_leaning(self):
        rng = Random(2)
        for _ in range(50):
            ballot = draw_ballot("g01", False, self.m, rng)
            assert ballot.council_prefs[0] == "g01"

    def test_card_following_rate_monte_carlo(self):
        # 10,000 draws at rate 0.40; tolerance 0.02 is ~4 binomial sigma
        rng = Random(3)
        card_rate = 0.40
        n = 10_000
        hits = 0
        for _ in range(n):
            leaning = rng.choice(self.m.groups)
            ballot = draw_ballot(leaning, rng.random() < card_rate, self.m, rng)
            if ballot == self.m.cards[leaning]:
                hits += 1
        assert abs(hits / n - 0.40) <= 0.02

    # The engine draws each voter's leaning and card-following. With no
    # quota and TLS off, 24,000 voters over this manifest's 24 groups.
    @pytest.fixture(scope="class")
    def drawn_voters(self):
        engine = ScenarioEngine(parse_config({
            "schema_version": 1, "name": "draws", "seed": 5, "voters": 24_000,
            "manifest": {"groups": 24, "candidates": 48, "assembly": 24},
            "behavior": {"card_rate": 0.40},
            "timeline": {"polls_open": 0, "polls_close": 43200,
                         "receipt_service_end": 86400},
            "tls": {"enabled": False}}))
        return engine.manifest, list(engine.voters.values())

    def test_card_rate_within_three_sigma(self, drawn_voters):
        # a voter casts the card when it follows it, or when it does not
        # and draws it anyway: no tail (1/24), one assembly preference
        # (1/4) and the card's one (1/24)
        manifest, voters = drawn_voters
        n = len(voters)
        hits = sum(v.intended == manifest.cards[v.leaning] for v in voters)
        p = 0.40 + 0.60 / (24 * 4 * 24)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 3 * sigma

    def test_unfixed_leaning_is_uniform_over_groups(self, drawn_voters):
        # 24,000 draws over 24 groups; 49.7 is the chi-square critical
        # value at 23 degrees of freedom and p = 0.001
        manifest, voters = drawn_voters
        n = len(voters)
        seen = Counter(v.leaning for v in voters)
        assert set(seen) == set(manifest.groups)
        expected = n / len(manifest.groups)
        chi2 = sum((seen[g] - expected) ** 2 / expected for g in manifest.groups)
        assert chi2 < 49.7


class TestTally:
    def setup_method(self):
        self.m = make_manifest(num_groups=24, num_candidates=48, num_assembly=4)

    def test_empty(self):
        result = tally_first_preferences([], self.m)
        assert result.counts == {}
        assert result.margin is None
        assert result.winner is None

    def test_direct_count(self):
        ballots = [atl(self.m, "g01")] * 3 + [atl(self.m, "g02")]
        result = tally_first_preferences(ballots, self.m)
        assert result.counts == {"g01": 3, "g02": 1}
        assert result.margin == 2
        assert result.winner == "g01"
        assert result.runner_up == "g02"

    def test_btl_counts_toward_candidate_group(self):
        b = Ballot(assembly_prefs=("a01",), council_mode=BTL,
                   council_prefs=("c001", "c002"))
        result = tally_first_preferences([b], self.m)
        assert result.counts == {self.m.candidates["c001"]: 1}

    def test_a_candidate_without_a_group_is_rejected(self):
        with pytest.raises(InvalidBallot, match="c999"):
            replace(self.m, candidates={**self.m.candidates, "c999": None})

    def test_margin_flip_at_window_scale(self):
        # 660 votes, honest margin 31; flipping 32 from the leader to the
        # runner-up flips the winner. Oracle: recount the edited multiset.
        ballots = []
        ballots += [atl(self.m, "g01") for _ in range(200)]
        ballots += [atl(self.m, "g02") for _ in range(169)]
        for i in range(291):
            ballots.append(atl(self.m, self.m.groups[2 + i % 20]))
        assert len(ballots) == 660
        honest = tally_first_preferences(ballots, self.m)
        assert honest.winner == "g01"
        assert honest.margin == 31
        flipped = list(ballots)
        moved = 0
        for i, b in enumerate(flipped):
            if moved == 32:
                break
            if b.council_prefs[0] == "g01":
                flipped[i] = atl(self.m, "g02")
                moved += 1
        manipulated = tally_first_preferences(flipped, self.m)
        # independent oracle: direct recount of first preferences
        recount = {}
        for b in flipped:
            recount[b.council_prefs[0]] = recount.get(b.council_prefs[0], 0) + 1
        assert manipulated.counts == recount
        assert manipulated.winner == "g02"
        assert manipulated.winner != honest.winner

    def test_permutation_invariance_and_additivity(self):
        rng = Random(11)
        card_rate = 0.4
        ballots = []
        for _ in range(300):
            leaning = rng.choice(self.m.groups)
            ballots.append(draw_ballot(leaning, rng.random() < card_rate, self.m, rng))
        base = tally_first_preferences(ballots, self.m)
        shuffled = list(ballots)
        rng.shuffle(shuffled)
        assert tally_first_preferences(shuffled, self.m).counts == base.counts
        # additivity over concatenation
        a, b = ballots[:120], ballots[120:]
        ca = tally_first_preferences(a, self.m).counts
        cb = tally_first_preferences(b, self.m).counts
        merged = {k: ca.get(k, 0) + cb.get(k, 0) for k in set(ca) | set(cb)}
        assert merged == base.counts
