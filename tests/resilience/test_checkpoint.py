"""CheckpointStore: digest keys, atomic round-trips, graceful misses."""

import pickle
from dataclasses import dataclass

from repro.faults import FaultEvent, FaultTrace
from repro.resilience import CheckpointStore


@dataclass(frozen=True)
class Spec:
    shard_id: int
    seed: int = 0
    payload: str = "work"


class TestDigest:
    def test_stable_for_equal_inputs(self):
        assert CheckpointStore.spec_digest(
            Spec(shard_id=1, seed=4)
        ) == CheckpointStore.spec_digest(Spec(shard_id=1, seed=4))

    def test_sensitive_to_inputs(self):
        a = CheckpointStore.spec_digest(Spec(shard_id=1, seed=4))
        b = CheckpointStore.spec_digest(Spec(shard_id=1, seed=5))
        c = CheckpointStore.spec_digest(Spec(shard_id=1, payload="other"))
        assert len({a, b, c}) == 3

    def test_equal_values_digest_equal_whatever_they_share(self):
        """Two fault traces with one fingerprint, one naming its
        platform with one shared string and one with two equal
        strings, digest the same (their pickles differ)."""
        shared = "".join(["snap", "py"])
        first, second = ("".join(["snap", "py"]) for _ in range(2))
        assert first is not second

        def spec(outage_on, restore_on):
            return Spec(shard_id=0, payload=FaultTrace([
                FaultEvent(1.0, "outage", outage_on, episode=0),
                FaultEvent(2.0, "restore", restore_on, episode=0),
            ]))

        one, two = spec(shared, shared), spec(first, second)
        assert one.payload.fingerprint() == two.payload.fingerprint()
        assert pickle.dumps(one, protocol=4) != pickle.dumps(two, protocol=4)
        assert (
            CheckpointStore.spec_digest(one)
            == CheckpointStore.spec_digest(two)
        )


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        spec = Spec(shard_id=2, seed=9)
        store.save(spec, {"answer": 42})
        assert store.load(spec) == {"answer": 42}

    def test_path_embeds_shard_and_digest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        spec = Spec(shard_id=3)
        path = store.save(spec, "result")
        assert "shard-03-" in path
        assert CheckpointStore.spec_digest(spec)[:12] in path

    def test_missing_file_is_a_miss(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert store.load(Spec(shard_id=0)) is None

    def test_changed_spec_is_a_miss(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(Spec(shard_id=0, seed=1), "stale")
        assert store.load(Spec(shard_id=0, seed=2)) is None

    def test_corrupt_file_is_a_miss_not_an_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        spec = Spec(shard_id=0)
        path = store.save(spec, "good")
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert store.load(spec) is None

    def test_wrong_payload_shape_is_a_miss(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        spec = Spec(shard_id=0)
        with open(store.path_for(spec), "wb") as handle:
            pickle.dump(["not", "a", "dict"], handle)
        assert store.load(spec) is None

    def test_stale_digest_inside_payload_is_a_miss(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        spec = Spec(shard_id=0)
        with open(store.path_for(spec), "wb") as handle:
            pickle.dump(
                {"digest": "deadbeef", "shard_id": 0, "result": "old"},
                handle,
            )
        assert store.load(spec) is None

    def test_save_overwrites_atomically(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        spec = Spec(shard_id=1)
        store.save(spec, "first")
        store.save(spec, "second")
        assert store.load(spec) == "second"
        assert not list(tmp_path.glob("*.tmp"))

    def test_non_dataclass_spec_digests_too(self, tmp_path):
        # Duck-typing floor: anything picklable with a shard_id works.
        digest = CheckpointStore.spec_digest(("tuple", "spec"))
        assert len(digest) == 40


class TestManifest:
    def test_manifest_round_trips_as_json(self, tmp_path):
        import json

        store = CheckpointStore(str(tmp_path))
        path = store.write_manifest({"records": [], "counters": {}})
        with open(path) as handle:
            assert json.load(handle) == {"records": [], "counters": {}}
