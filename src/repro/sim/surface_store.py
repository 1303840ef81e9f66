"""Persistent, engine-fingerprint-keyed store of latency surfaces.

Every fresh CLI invocation or sweep used to re-simulate operating
points a previous run had already computed. The store makes surfaces
outlive the process: one JSON file per *engine fingerprint* — a hash of
everything that determines the numbers (model, hardware config,
execution plan, packing-planner signature, store version) — holding
that engine's exact points as ``LatencySurface.export_points()``
entries. Callers warm-start by merging the file's entries into a fresh
surface (``merge_points()``) and append new discoveries back with an
atomic read-merge-replace, so concurrent writers can only lose a few
freshly simulated points, never corrupt the file.

Failure policy: the store is a cache, not a source of truth. *Every*
failure path — unreadable directory, corrupt JSON, a missing or
truncated point table, malformed entries, version drift, a file whose
fingerprint does not match its name, read-only store directory —
degrades to in-memory simulation with a :class:`RuntimeWarning`;
nothing here ever raises into the serving path. Numbers are unaffected
either way: stored points were produced by the same simulator and
round-trip exactly through JSON, so a warm-started run is
bit-identical to a cold one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

__all__ = [
    "STORE_SCHEMA_VERSION",
    "DEFAULT_STORE_DIR",
    "SurfaceStore",
    "engine_fingerprint",
]

#: Version of the store file envelope ``{store_version, fingerprint,
#: model, plan, n_points, points}``, whose ``points`` are
#: ``export_points()`` entries. Bump on any change to either so stale
#: files are skipped, not misread (it is part of the fingerprint, so
#: they are not even found).
STORE_SCHEMA_VERSION = 2

#: Where the CLIs put the store when ``--surface-store`` is passed
#: without a directory.
DEFAULT_STORE_DIR = ".repro-surface-store"


def _canon(value: Any) -> Any:
    """Canonicalize configs for hashing: dataclasses/enums -> plain JSON."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    return value


def engine_fingerprint(engine) -> str:
    """Hex digest naming everything that determines an engine's numbers.

    Two engines share a fingerprint iff their surfaces are
    interchangeable: same model, same hardware config, same execution
    plan, same packing-planner signature (``depth_buckets`` changes the
    modeled numbers, so a custom planner changes the fingerprint), and
    same store version. Truncated to 16 hex chars — collision odds
    are negligible at fleet scale and the filenames stay readable.
    """
    planner = engine.planner
    payload = {
        "store_version": STORE_SCHEMA_VERSION,
        "model": _canon(engine.model),
        "hardware": _canon(engine.config),
        "plan": _canon(engine.plan),
        "planner": None if planner is None else {
            "type": type(planner).__name__,
            "depth_buckets": planner.depth_buckets,
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class SurfaceStore:
    """One directory of ``surface-<fingerprint>.json`` files.

    The directory is created lazily on first save. All methods are
    total: failures warn and return a harmless value instead of
    raising (see the module docstring for the policy), each defect
    once: :meth:`save`'s read-merge repeats no warning of :meth:`load`.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._reported: Set[str] = set()  # the warnings given so far

    def path_for(self, fingerprint: str) -> Path:
        """The store file backing one engine fingerprint."""
        return self.root / f"surface-{fingerprint}.json"

    # --------------------------------------------------------------- load
    def _read(self, fingerprint: str) -> Optional[List[Dict[str, Any]]]:
        """The point entries stored for a fingerprint, or None.

        Warns and returns None on any defect: unreadable file, corrupt
        JSON, a non-object document, envelope version drift, a foreign
        fingerprint (a file copied or renamed across engines must not
        leak another deployment's numbers), or a missing or truncated
        point table.
        """
        path = self.path_for(fingerprint)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._warn(f"cannot read {path}: {exc}")
            return None
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            self._warn(f"corrupt surface store file {path}: {exc}")
            return None
        if not isinstance(doc, dict):
            self._warn(f"surface store file {path} is not a JSON object")
            return None
        if doc.get("store_version") != STORE_SCHEMA_VERSION:
            self._warn(
                f"surface store file {path} has version "
                f"{doc.get('store_version')!r}, expected {STORE_SCHEMA_VERSION}"
            )
            return None
        if doc.get("fingerprint") != fingerprint:
            self._warn(
                f"surface store file {path} carries fingerprint "
                f"{doc.get('fingerprint')!r}, expected {fingerprint!r}"
            )
            return None
        points = doc.get("points")
        if not isinstance(points, list):
            self._warn(f"surface store file {path} has no point table")
            return None
        if doc.get("n_points") != len(points):
            self._warn(
                f"surface store file {path} is truncated: header says "
                f"{doc.get('n_points')!r} points, {len(points)} present"
            )
            return None
        return points

    def load(self, engine) -> int:
        """Warm-start an engine's surface from the store.

        Merges the stored exact points into ``engine.surface`` (the
        incumbent wins on key collisions — both sides simulated the
        same numbers) and returns how many points were added; 0 on a
        cold store or any failure. Never touches
        ``LatencySurface.n_simulated``: loaded points do not count as
        simulation, which is exactly what the warm-start CI assertion
        measures.
        """
        fingerprint = engine_fingerprint(engine)
        points = self._read(fingerprint)
        if points is None:
            return 0
        try:
            return engine.surface.merge_points(points)
        except Exception as exc:  # malformed entries — fall back cold
            self._warn(
                f"surface store file {self.path_for(fingerprint)} has "
                f"malformed points: {exc}"
            )
            return 0

    # --------------------------------------------------------------- save
    def save(self, engine) -> int:
        """Append an engine's exact points to its store file atomically.

        Read-merge-union: the current file's points are folded into the
        engine's surface first (:meth:`load`), so a concurrent writer's
        discoveries survive (last-writer-wins only over the few points
        both simulated — which are identical anyway). The union is
        written to a temp file and moved over the target with
        ``os.replace``, so readers never observe a partial file.
        Returns the number of points written; 0 (with a warning, and
        no read) when the directory cannot be created or written.
        """
        fingerprint = engine_fingerprint(engine)
        path = self.path_for(fingerprint)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            self._warn(f"cannot write surface store file {path}: {exc}")
            return 0
        self.load(engine)
        points = engine.surface.export_points()
        envelope = {
            "store_version": STORE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "model": engine.model.name,
            "plan": engine.plan.name,
            "n_points": len(points),
            "points": points,
        }
        try:
            fd, tmp = tempfile.mkstemp(
                dir=str(self.root), prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(envelope, fh, indent=1)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self._warn(f"cannot write surface store file {path}: {exc}")
            return 0
        return len(points)

    def _warn(self, message: str) -> None:
        if message in self._reported:
            return
        self._reported.add(message)
        warnings.warn(
            f"surface store: {message}; falling back to in-memory "
            f"simulation",
            RuntimeWarning,
            stacklevel=3,
        )
