"""PlanCache eviction under interleaved lookups, and golden fingerprints.

The cache is used from a single thread, but fabric sessions interleave
lookups for many assignments in arbitrary orders; these tests pin the
LRU semantics (hit/miss/evict *ordering*, not just counts) through the
observer event stream, and pin the assignment fingerprints that key the
cache so a digest change cannot slip in silently.
"""

import hashlib
import json

from repro.core import MulticastAssignment, PlanCache, compile_frame_plan
from repro.core.serialization import assignment_fingerprint

from conftest import EventRecorder


def _asg(n, dests):
    return MulticastAssignment.from_dict(n, dests)


def _trace(cache, rec, assignments):
    """Look up a sequence of assignments; return (kind, key) pairs."""
    start = len(rec.events)
    for a in assignments:
        cache.get(a, compile_fn=compile_frame_plan)
    return [(e.kind, e.key) for e in rec.events[start:]]


class TestEvictionInterleavings:
    def setup_method(self):
        self.rec = EventRecorder()
        self.cache = PlanCache(maxsize=2, observer=self.rec)
        self.a = _asg(8, {0: [0, 1]})
        self.b = _asg(8, {1: [2, 3]})
        self.c = _asg(8, {2: [4, 5]})
        self.fa = assignment_fingerprint(self.a)
        self.fb = assignment_fingerprint(self.b)
        self.fc = assignment_fingerprint(self.c)

    def test_fill_hit_evict_ordering(self):
        trace = _trace(
            self.cache, self.rec, [self.a, self.b, self.a, self.c]
        )
        # a,b fill; the a-hit refreshes a; c then evicts b (LRU), not a.
        assert trace == [
            ("miss", self.fa),
            ("miss", self.fb),
            ("hit", self.fa),
            ("miss", self.fc),
            ("evict", self.fb),
        ]

    def test_untouched_entry_is_the_victim(self):
        trace = _trace(
            self.cache, self.rec, [self.a, self.b, self.c]
        )
        assert trace[-1] == ("evict", self.fa)

    def test_evicted_entry_misses_again(self):
        _trace(self.cache, self.rec, [self.a, self.b, self.c])
        trace = _trace(self.cache, self.rec, [self.a])
        assert trace == [("miss", self.fa), ("evict", self.fb)]
        assert self.cache.hits == 0 and self.cache.misses == 4

    def test_alternating_hits_never_evict(self):
        _trace(self.cache, self.rec, [self.a, self.b])
        trace = _trace(
            self.cache, self.rec,
            [self.a, self.b, self.a, self.b, self.a, self.b],
        )
        assert all(kind == "hit" for kind, _ in trace)
        assert len(self.cache) == 2
        assert self.cache.hit_rate == 6 / 8

    def test_event_sizes_track_occupancy(self):
        for a in (self.a, self.b, self.c):
            self.cache.get(a, compile_fn=compile_frame_plan)
        sizes = [e.size for e in self.rec.events]
        # miss events fire before insertion; evict after removal.
        assert sizes == [0, 1, 2, 2]

    def test_extra_key_interleaves_without_collision(self):
        plain = _trace(self.cache, self.rec, [self.a])
        self.cache.get(
            self.a, compile_fn=compile_frame_plan, extra_key="variant"
        )
        kinds = [k for k, _ in plain] + [self.rec.events[-1].kind]
        assert kinds == ["miss", "miss"]
        assert self.rec.events[-1].key == f"{self.fa}@variant"
        # And each key now hits independently.
        self.cache.get(self.a, compile_fn=compile_frame_plan)
        self.cache.get(
            self.a, compile_fn=compile_frame_plan, extra_key="variant"
        )
        assert [e.kind for e in self.rec.events[-2:]] == ["hit", "hit"]

    def test_clear_resets_counters_and_emits(self):
        _trace(self.cache, self.rec, [self.a, self.a])
        self.cache.clear()
        assert self.rec.events[-1].kind == "clear"
        assert len(self.cache) == 0
        assert self.cache.hits == 0 and self.cache.misses == 0


class TestFingerprintGoldens:
    """The digests that key the cache, pinned byte-for-byte.

    ``assignment_fingerprint`` hashes canonical JSON with sha256 — both
    stable across Python versions (unlike ``hash()``, which is salted).
    A failure here means every persisted fingerprint just changed:
    bump deliberately, never accidentally.
    """

    GOLDEN = {
        "empty-4": (
            "42141911a7e5dbd47c3d5beed07bf1081f816dd12c14c4906c0142f79b0096f8"
        ),
        "paper-8": (
            "040f6859d4d3003f26b36e8b0c62254b78fa98c7e9ac81a3bf8fe8502e9cd33d"
        ),
        "broadcast-8": (
            "97d0ff3be5a887196ac833a5827e88c66be8ddaf23a8d1e64d8e9094696612ef"
        ),
    }

    def _cases(self):
        return {
            "empty-4": MulticastAssignment(4, [None] * 4),
            "paper-8": MulticastAssignment(
                8, [{0, 1}, None, {3, 4, 7}, {2}, None, None, None, {5, 6}]
            ),
            "broadcast-8": _asg(8, {3: list(range(8))}),
        }

    def test_golden_fingerprints(self):
        actual = {
            name: assignment_fingerprint(a) for name, a in self._cases().items()
        }
        assert actual == self.GOLDEN

    def test_fingerprint_is_sha256_of_canonical_json(self):
        a = self._cases()["paper-8"]
        canonical = json.dumps(
            {
                "n": 8,
                "destinations": {
                    str(i): sorted(ds)
                    for i, ds in enumerate(a.destinations)
                    if ds
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        assert (
            assignment_fingerprint(a)
            == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        )

    def test_construction_route_does_not_matter(self):
        via_dict = _asg(8, {0: [1, 0], 2: [7, 4, 3], 3: [2], 7: [6, 5]})
        via_list = MulticastAssignment(
            8, [{0, 1}, None, {3, 4, 7}, {2}, None, None, None, {5, 6}]
        )
        assert assignment_fingerprint(via_dict) == assignment_fingerprint(
            via_list
        )
