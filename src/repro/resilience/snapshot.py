"""Warm restart: snapshot / restore a fabric's learned state.

A restarted :class:`~repro.core.fabric.MulticastFabric` starts cold:
every hot assignment pays a full plan compile again, and a quarantined
fault plane is forgotten — the new process re-learns the fault the
expensive way, frame by degraded frame.  :class:`FabricSnapshot` makes
both survive the restart as one JSON document:

* **plan cache** — the *assignments* behind every cached
  :class:`~repro.core.fastplan.FramePlan`, in LRU order.  Fingerprints
  alone would not do (they are one-way hashes), so the caches retain
  each entry's assignment; restore re-compiles them through the new
  network's own compiler, which keeps the restored plans honest about
  the new network's fault plan (same assignment, possibly different
  plan).
* **health tracker** — the primary plane's quarantine state machine,
  so a plane quarantined before the restart stays drained after it.
* **circuit breaker** — the breaker state, when the fabric runs one.

Round trip::

    snap = FabricSnapshot.capture(fabric)
    snap.save("fabric.json")
    ...
    fabric2 = MulticastFabric(cfg)          # fresh process
    FabricSnapshot.load("fabric.json").restore(fabric2)

:meth:`FabricSnapshot.save` replaces the file atomically, so a crash
mid-write leaves the previous snapshot intact.  A fabric constructed
with ``snapshot_path`` warm-starts through
:meth:`FabricSnapshot.warm_start`, which starts cold instead of failing
when the file is unreadable or was written by another format version
or network size.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, List, Optional

from ..core.multicast import MulticastAssignment
from ..errors import ReproError
from ..obs.events import ResilienceEvent

__all__ = ["FabricSnapshot"]

_FORMAT_VERSION = 1


def _emit(observer, action: str, frames: int) -> None:
    if observer is not None and observer.enabled:
        observer.on_resilience(
            ResilienceEvent(
                action=action, frames=frames, t_ns=perf_counter_ns()
            )
        )


@dataclass
class FabricSnapshot:
    """Restorable state of one fabric: plans, plane health, breaker.

    Attributes:
        n: network size the snapshot was taken from (restore refuses a
            mismatch).
        assignments: destination lists of every cached plan's
            assignment, LRU order (oldest first, so restoring preserves
            eviction order).  Each entry is the assignment's
            ``{input: [outputs]}`` mapping with string keys (JSON).
        health: :meth:`~repro.faults.health.HealthTracker.snapshot`
            state, or ``None`` when the fabric tracked no plane health.
        breaker: :meth:`~repro.resilience.breaker.CircuitBreaker.snapshot`
            state, or ``None``.
    """

    n: int
    assignments: List[Dict[str, List[int]]] = field(default_factory=list)
    health: Optional[Dict[str, object]] = None
    breaker: Optional[Dict[str, object]] = None

    @classmethod
    def capture(cls, fabric) -> "FabricSnapshot":
        """Snapshot a fabric's plan cache, health and breaker state."""
        cache = getattr(fabric.network, "plan_cache", None)
        assignments: List[Dict[str, List[int]]] = []
        if cache is not None:
            for asg in cache.snapshot_assignments():
                assignments.append(
                    {
                        str(i): sorted(asg[i])
                        for i in asg.active_inputs
                    }
                )
        health = fabric.health.snapshot() if fabric.health is not None else None
        breaker = (
            fabric.breaker.snapshot()
            if getattr(fabric, "breaker", None) is not None
            else None
        )
        snap = cls(
            n=fabric.n,
            assignments=assignments,
            health=health,
            breaker=breaker,
        )
        _emit(fabric.observer, "snapshot_saved", len(assignments))
        return snap

    def restore(self, fabric) -> int:
        """Warm a (typically fresh) fabric from this snapshot.

        Re-compiles every snapshotted assignment into the fabric's plan
        cache — through the fabric's own compiler, so a different fault
        plan yields correctly different plans — and re-adopts the
        health-tracker and breaker states.  Returns the number of plans
        compiled (0 on a reference-engine fabric, which has no cache).

        The snapshot is applied all or nothing: every assignment is
        parsed before the fabric is touched, and a health or breaker
        state that fails to restore rolls both back to what they were.

        Raises:
            ValueError: when the snapshot is for a different ``n``.
            ValueError, KeyError, TypeError, ReproError: when an
                assignment, the health state or the breaker state is
                malformed; the fabric is left unchanged.
        """
        if fabric.n != self.n:
            raise ValueError(
                f"snapshot is for n={self.n}, fabric is n={fabric.n}"
            )
        cached = getattr(fabric.network, "plan_cache", None) is not None
        assignments = self._assignments() if cached else []
        states = [
            (target, state)
            for target, state in (
                (fabric.health, self.health),
                (getattr(fabric, "breaker", None), self.breaker),
            )
            if target is not None and state is not None
        ]
        before = [target.snapshot() for target, _ in states]
        try:
            for target, state in states:
                target.restore(state)
        except Exception:
            for (target, _), state in zip(states, before):
                target.restore(state)
            raise
        for asg in assignments:
            fabric.network._plan(asg)
        _emit(fabric.observer, "snapshot_restored", len(assignments))
        return len(assignments)

    def to_json(self) -> str:
        """Serialise to the versioned JSON document."""
        return json.dumps(
            {
                "kind": "fabric_snapshot",
                "version": _FORMAT_VERSION,
                "n": self.n,
                "assignments": self.assignments,
                "health": self.health,
                "breaker": self.breaker,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FabricSnapshot":
        """Parse a document produced by :meth:`to_json`."""
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("kind") != "fabric_snapshot":
            raise ValueError('expected {"kind": "fabric_snapshot", ...}')
        if doc.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported snapshot version {doc.get('version')!r}"
            )
        assignments = doc.get("assignments", [])
        if not isinstance(assignments, list) or not all(
            isinstance(m, dict)
            and all(isinstance(v, list) for v in m.values())
            for m in assignments
        ):
            raise ValueError(
                "snapshot assignments must be a list of "
                "{input: [outputs]} mappings"
            )
        for key in ("health", "breaker"):
            if not isinstance(doc.get(key), (dict, type(None))):
                raise ValueError(f"snapshot {key} must be an object or null")
        return cls(
            n=int(doc["n"]),
            assignments=[
                {str(k): [int(d) for d in v] for k, v in m.items()}
                for m in assignments
            ],
            health=doc.get("health"),
            breaker=doc.get("breaker"),
        )

    def save(self, path: str) -> None:
        """Write the JSON document to ``path`` (creating parent dirs).

        The document goes to a temporary file in the same directory,
        is flushed and fsynced, then renamed over ``path`` with
        :func:`os.replace`.  A write that fails part-way leaves the
        previous file byte-identical and removes the temporary file.
        """
        target = os.path.abspath(path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        tmp = f"{target}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(self.to_json() + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "FabricSnapshot":
        """Read a snapshot written by :meth:`save`."""
        with open(path) as fh:
            return cls.from_json(fh.read())

    @classmethod
    def warm_start(cls, fabric, path: str) -> int:
        """Restore ``fabric`` from the snapshot at ``path``, or start cold.

        A torn or otherwise unreadable file, an unsupported format
        version or a snapshot of a different network size never fails
        the caller: the fabric keeps its cold state and a
        ``"snapshot_rejected"`` :class:`~repro.obs.events.ResilienceEvent`
        is emitted instead.  A missing file is a plain cold start with
        no event.

        Returns:
            the number of plans warmed (0 on a cold start).
        """
        if not os.path.exists(path):
            return 0
        try:
            return cls.load(path).restore(fabric)
        except (OSError, ValueError, KeyError, TypeError, ReproError):
            _emit(fabric.observer, "snapshot_rejected", 0)
            return 0

    def _assignments(self) -> List[MulticastAssignment]:
        """The snapshotted assignments, parsed (raises on a bad entry)."""
        return [
            MulticastAssignment.from_dict(
                self.n, {int(k): v for k, v in mapping.items()}
            )
            for mapping in self.assignments
        ]
