"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
import threading
from typing import List, Optional

import pytest
from hypothesis import strategies as st

from repro.core.multicast import MulticastAssignment
from repro.core.tags import Tag
from repro.obs import Observer


class EventRecorder(Observer):
    """Records every event it receives, in order (thread-safe)."""

    def __init__(self):
        self.events = []
        self._lock = threading.Lock()

    def on_event(self, event):
        with self._lock:
            self.events.append(event)

    def of(self, *kinds):
        """The recorded events of the given classes, in order."""
        with self._lock:
            return [e for e in self.events if isinstance(e, kinds)]


def make_random_assignment(n: int, rng: random.Random) -> MulticastAssignment:
    """A uniformly random valid multicast assignment (test helper)."""
    outs = list(range(n))
    rng.shuffle(outs)
    k = rng.randrange(0, n + 1)
    used = outs[:k]
    ins = list(range(n))
    rng.shuffle(ins)
    dests: List[Optional[List[int]]] = [None] * n
    i = 0
    while used:
        take = rng.randrange(1, len(used) + 1)
        dests[ins[i]] = used[:take]
        used = used[take:]
        i += 1
    return MulticastAssignment(n, dests)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for non-hypothesis randomized tests."""
    return random.Random(0xBA27)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

def sizes(min_m: int = 1, max_m: int = 6) -> st.SearchStrategy[int]:
    """Network sizes 2^min_m .. 2^max_m."""
    return st.integers(min_value=min_m, max_value=max_m).map(lambda m: 1 << m)


@st.composite
def assignments(draw, min_m: int = 1, max_m: int = 5) -> MulticastAssignment:
    """Random valid multicast assignments as a hypothesis strategy."""
    n = draw(sizes(min_m, max_m))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return make_random_assignment(n, random.Random(seed))


@st.composite
def bsn_tag_vectors(draw, min_m: int = 1, max_m: int = 5) -> List[Tag]:
    """Tag vectors satisfying the BSN input constraints (eqs. 1-3)."""
    n = draw(sizes(min_m, max_m))
    half = n // 2
    # Draw alpha count first, then fit 0s and 1s under the constraint.
    na = draw(st.integers(min_value=0, max_value=half))
    n0 = draw(st.integers(min_value=0, max_value=half - na))
    n1 = draw(st.integers(min_value=0, max_value=half - na))
    ne = n - n0 - n1 - na
    if ne < na:  # eq. (3) follows from (1)+(2); keep explicit guard
        n0 = min(n0, half - na)
        ne = n - n0 - n1 - na
    tags = (
        [Tag.ZERO] * n0 + [Tag.ONE] * n1 + [Tag.ALPHA] * na + [Tag.EPS] * ne
    )
    perm = draw(st.permutations(tags))
    return list(perm)


@st.composite
def binary_tag_vectors(draw, min_m: int = 1, max_m: int = 6) -> List[Tag]:
    """Arbitrary 0/1 tag vectors (for bit sorting)."""
    n = draw(sizes(min_m, max_m))
    return draw(
        st.lists(
            st.sampled_from([Tag.ZERO, Tag.ONE]), min_size=n, max_size=n
        )
    )
