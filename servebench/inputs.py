"""Seeded input generators for the serving benchmark.

Every input is drawn here, from :class:`random.Random`, so a workload is
a pure function of its seed: neither a change under ``src/`` nor a NumPy
upgrade can alter what the program is asked to route.  The program only
receives the generated objects, built through its public constructors.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

N = 256


def stream(seed: int, part: str) -> random.Random:
    """An independent, reproducible RNG for one part of one workload."""
    return random.Random(f"servebench:{seed}:{part}")


def geometric(rng: random.Random, mean: float) -> int:
    """A geometric draw on {1, 2, ...} with the given mean (>= 1)."""
    if mean <= 1.0:
        return 1
    p = 1.0 / mean
    return 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - p))


def poisson(rng: random.Random, rate: float) -> int:
    """A Poisson draw (Knuth's product method; fine for rates < ~500)."""
    limit = math.exp(-rate)
    k, prod = 0, rng.random()
    while prod > limit:
        k += 1
        prod *= rng.random()
    return k


def hotspot_destinations(
    rng: random.Random, n: int = N, hot_outputs: int = 4, cold_share: float = 0.25
) -> List[Optional[List[int]]]:
    """One hotspot-style multicast: a few hot outputs, handed out first,
    plus ``cold_share`` of the remaining outputs; each active source
    takes 1-3 destinations.  At n=256 that is 67 terminals a frame."""
    outs = list(range(n))
    rng.shuffle(outs)
    hot, cold = outs[:hot_outputs], outs[hot_outputs:]
    used = hot + cold[: int(len(cold) * cold_share)]
    sources = list(range(n))
    rng.shuffle(sources)
    dests: List[Optional[List[int]]] = [None] * n
    si = 0
    while used:
        take = min(rng.randint(1, 3), len(used))
        dests[sources[si]] = sorted(used[:take])
        used = used[take:]
        si += 1
    return dests


def held_sequence(
    rng: random.Random, pool_size: int, length: int, mean_hold: float = 8.0
) -> List[int]:
    """Pool indices for ``length`` frames: each draw is held for a
    geometric run of frames (a speaker holding the floor)."""
    seq: List[int] = []
    while len(seq) < length:
        seq.extend([rng.randrange(pool_size)] * geometric(rng, mean_hold))
    return seq[:length]


def poisson_requests(
    rng: random.Random,
    slots: int,
    rate: float,
    mean_fanout: float,
    n: int = N,
    tag: str = "",
) -> List[Tuple[int, int, Tuple[int, ...], str]]:
    """An open-loop arrival stream: ``(slot, source, destinations,
    payload)`` with Poisson arrivals per slot and geometric fanout."""
    out = []
    for slot in range(slots):
        for _ in range(poisson(rng, rate)):
            src = rng.randrange(n)
            fanout = min(geometric(rng, mean_fanout), n)
            dests = tuple(sorted(rng.sample(range(n), fanout)))
            out.append((slot, src, dests, f"{tag}call{len(out)}"))
    return out


def fault_cells(
    rng: random.Random, kinds: Sequence[str], n: int = N
) -> List[Tuple[str, int, int]]:
    """Faulty cells ``(kind, level, index)``: one cell of each kind on
    every fault plane of an ``n``-port network, at seeded positions.
    Every plane is hit, so what a plan does to traffic varies little
    from seed to seed; a dead cell on the output plane loses its
    terminals for good."""
    m = n.bit_length() - 1
    cells = []
    for level in range(1, m + 1):
        picked = rng.sample(range(n // 2), len(kinds))
        cells.extend((kind, level, k) for kind, k in zip(kinds, picked))
    return cells
