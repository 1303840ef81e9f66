"""Tests for the persistent, fingerprint-keyed surface store.

The store is a cache, not a source of truth, so the interesting
surface area is the failure paths: every way a store file or directory
can be wrong must degrade to in-memory simulation with a
``RuntimeWarning`` — never an exception into the serving path — and a
healthy round-trip must be bit-identical to cold simulation.
"""

from __future__ import annotations

import json

import pytest

from repro.core import ExecutionPlan, MeadowEngine
from repro.sim import SurfaceStore, engine_fingerprint
from repro.sim.surface_store import STORE_SCHEMA_VERSION


@pytest.fixture()
def engine(small_model, zcu12, shared_planner):
    return MeadowEngine(small_model, zcu12, ExecutionPlan.meadow(), shared_planner)


@pytest.fixture()
def twin(small_model, zcu12, shared_planner):
    """A second engine with the same fingerprint as ``engine``."""
    return MeadowEngine(small_model, zcu12, ExecutionPlan.meadow(), shared_planner)


@pytest.fixture()
def store(tmp_path):
    return SurfaceStore(tmp_path / "store")


def _warm(engine, n=3):
    """Simulate a few distinct points and return the surface's keys."""
    engine.surface.prefill(64)
    engine.surface.decode(64, batch=2)
    engine.surface.decode(128)
    return engine.surface.point_keys()


class TestRoundTrip:
    def test_save_then_load_is_bit_identical(self, engine, twin, store):
        keys = _warm(engine)
        assert store.save(engine) == len(keys)

        assert store.load(twin) == len(keys)
        assert twin.surface.point_keys() == keys
        for stage, tokens, batch in keys:
            a = engine.surface._points[(stage, tokens, batch)]
            b = twin.surface._points[(stage, tokens, batch)]
            assert b.latency_s == a.latency_s
            assert b.total_cycles == a.total_cycles
            assert b.energy_uj == a.energy_uj

    def test_load_does_not_count_as_simulation(self, engine, twin, store):
        _warm(engine)
        store.save(engine)
        store.load(twin)
        # Warm-started lookups are cache hits: the CI warm-start
        # assertion hinges on loads never bumping n_simulated.
        assert twin.surface.n_simulated == 0
        twin.surface.prefill(64)
        assert twin.surface.n_simulated == 0

    def test_cold_store_loads_nothing(self, engine, store):
        assert store.load(engine) == 0
        assert len(engine.surface) == 0

    def test_save_merges_concurrent_writer(self, engine, twin, store):
        # A saved first: prefill(64), decode(64,2), decode(128).
        _warm(engine)
        store.save(engine)
        # B (same fingerprint) simulated a disjoint point and saves
        # second — the read-merge-union must keep A's discoveries.
        twin.surface.decode(96)
        assert store.save(twin) == 4
        fresh = MeadowEngine(
            engine.model, engine.config, engine.plan, engine.planner
        )
        assert store.load(fresh) == 4
        assert fresh.surface.point_keys() == (
            engine.surface.point_keys() | twin.surface.point_keys()
        )

    def test_save_is_atomic_rename(self, engine, store):
        _warm(engine)
        store.save(engine)
        # No temp droppings, exactly the one canonical file.
        names = sorted(p.name for p in store.root.iterdir())
        assert names == [f"surface-{engine_fingerprint(engine)}.json"]


class TestFingerprint:
    def test_same_config_same_fingerprint(self, engine, twin):
        assert engine_fingerprint(engine) == engine_fingerprint(twin)

    def test_plan_changes_fingerprint(self, engine, small_model, zcu12):
        other = MeadowEngine(
            small_model, zcu12, ExecutionPlan.gemm_baseline()
        )
        assert engine_fingerprint(other) != engine_fingerprint(engine)

    def test_bandwidth_changes_fingerprint(self, engine):
        other = engine.clone(config=engine.config.with_bandwidth(1.0))
        assert engine_fingerprint(other) != engine_fingerprint(engine)

    def test_foreign_fingerprint_file_not_loaded(self, engine, store):
        """A file renamed/copied across engines must not leak points."""
        _warm(engine)
        store.save(engine)
        other = engine.clone(config=engine.config.with_bandwidth(1.0))
        path = store.path_for(engine_fingerprint(engine))
        path.rename(store.path_for(engine_fingerprint(other)))
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            assert store.load(other) == 0
        assert len(other.surface) == 0


class TestFailurePaths:
    """Every defect warns and falls back; nothing raises."""

    def _saved(self, engine, store):
        _warm(engine)
        store.save(engine)
        return store.path_for(engine_fingerprint(engine))

    def test_corrupt_json_warns_and_falls_back(self, engine, twin, store):
        path = self._saved(engine, store)
        path.write_text("{not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.load(twin) == 0

    def test_truncated_point_table_warns(self, engine, twin, store):
        path = self._saved(engine, store)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["points"] = doc["points"][:1]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="truncated"):
            assert store.load(twin) == 0
        assert len(twin.surface) == 0

    def test_non_object_document_warns(self, engine, twin, store):
        path = self._saved(engine, store)
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="not a JSON object"):
            assert store.load(twin) == 0

    def test_store_version_mismatch_warns(self, engine, twin, store):
        path = self._saved(engine, store)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["store_version"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="version"):
            assert store.load(twin) == 0

    def test_missing_surface_payload_warns(self, engine, twin, store):
        # The payload is the envelope's point table.
        path = self._saved(engine, store)
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["points"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="no point table"):
            assert store.load(twin) == 0

    def test_malformed_points_warn(self, engine, twin, store):
        path = self._saved(engine, store)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["points"] = [{"bogus": True}]
        doc["n_points"] = 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert store.load(twin) == 0

    def test_malformed_last_entry_merges_nothing(self, engine, twin, store):
        path = self._saved(engine, store)
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["points"][-1]["latency_s"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert store.load(twin) == 0
        # Cold means cold: the valid entries before the bad one are not
        # merged either, so a warm-start count of 0 is the truth.
        assert len(twin.surface) == 0

    def test_store_file_is_a_directory_warns(self, engine, store):
        store.root.mkdir(parents=True)
        store.path_for(engine_fingerprint(engine)).mkdir()
        with pytest.warns(RuntimeWarning, match="cannot read"):
            assert store.load(engine) == 0

    def test_unwritable_store_dir_warns_on_save(self, engine, tmp_path):
        # Root may ignore directory permission bits, so the reliable
        # portable "cannot mkdir/write" failure is a root whose parent
        # is a regular file.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        store = SurfaceStore(blocker / "store")
        _warm(engine)
        with pytest.warns(RuntimeWarning, match="cannot write") as caught:
            assert store.save(engine) == 0
        # The directory cannot be made, so there is no file to merge
        # and nothing else to report.
        assert len(caught) == 1

    def test_load_then_save_reports_a_malformed_file_once(
        self, engine, twin, store
    ):
        path = self._saved(engine, store)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["points"] = [{"bogus": True}]
        doc["n_points"] = 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="malformed") as caught:
            assert store.load(twin) == 0
            twin.surface.decode(96)
            # The read-merge finds the same defect and says nothing;
            # the save still writes the engine's points over it.
            assert store.save(twin) == 1
        assert len(caught) == 1

    def test_unreadable_store_dir_is_cold_not_fatal(self, engine, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        store = SurfaceStore(blocker / "store")
        # Reads through a non-directory raise NotADirectoryError, an
        # OSError: warn-and-cold, never a crash.
        with pytest.warns(RuntimeWarning, match="cannot read"):
            assert store.load(engine) == 0

    def test_corrupt_file_is_survivable_end_to_end(self, engine, twin, store):
        """Corrupt on disk, then save: the run still persists its work."""
        path = self._saved(engine, store)
        path.write_text("\x00garbage", encoding="utf-8")
        twin.surface.decode(96)
        with pytest.warns(RuntimeWarning):
            n = store.save(twin)
        assert n == 1
        fresh = MeadowEngine(
            engine.model, engine.config, engine.plan, engine.planner
        )
        assert store.load(fresh) == 1
