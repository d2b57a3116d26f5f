"""The resident worker fleet: reuse, chunking, transport, equivalence.

:class:`~repro.core.fleet.WorkerFleet` is the scheduler under
``validate_batch``; these tests pin its contracts directly:

* a fleet survives across batch calls (the warm-pool amortization);
* chunked dispatch covers every document exactly once for any chunk
  size, including pathological ones;
* the compiled pair materializes at most once per fleet, on every
  transport route (``pickle_count`` is the observable);
* a parallel run's verdicts and merged stats equal the serial run's.
"""

import os

import pytest

from repro.core.batch import validate_batch
from repro.core.fleet import FleetConfig, PairTransport, WorkerFleet
from repro.errors import BatchError
from repro.schema.registry import SchemaPair
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.serializer import write_file


@pytest.fixture()
def exp2_fresh_pair(exp2_source, exp2_target):
    return SchemaPair(exp2_source, exp2_target)


def write_corpus(directory, count, items=2):
    paths = []
    for index in range(count):
        path = os.path.join(str(directory), f"doc{index:03d}.xml")
        write_file(make_purchase_order(items), path)
        paths.append(path)
    return paths


class TestFleetReuse:
    def test_one_fleet_many_batches(self, exp2_fresh_pair, tmp_path):
        paths = write_corpus(tmp_path, 8)
        with WorkerFleet(exp2_fresh_pair, 2) as fleet:
            first = validate_batch(exp2_fresh_pair, paths, fleet=fleet)
            second = validate_batch(
                exp2_fresh_pair, paths[:4], fleet=fleet
            )
        assert first.all_valid and first.total == 8
        assert second.all_valid and second.total == 4
        assert fleet.batches_run == 2

    def test_workers_persist_across_batches(
        self, exp2_fresh_pair, tmp_path
    ):
        paths = write_corpus(tmp_path, 6)
        with WorkerFleet(exp2_fresh_pair, 2) as fleet:
            pids_before = sorted(p.pid for p in fleet._workers.values())
            validate_batch(exp2_fresh_pair, paths, fleet=fleet)
            validate_batch(exp2_fresh_pair, paths, fleet=fleet)
            pids_after = sorted(p.pid for p in fleet._workers.values())
        assert pids_before == pids_after

    def test_fleet_config_mismatch_is_an_error(
        self, exp2_fresh_pair, tmp_path
    ):
        paths = write_corpus(tmp_path, 2)
        with WorkerFleet(
            exp2_fresh_pair, 2, config=FleetConfig(retries=0)
        ) as fleet:
            with pytest.raises(BatchError, match="different"):
                validate_batch(
                    exp2_fresh_pair, paths, fleet=fleet, retries=3
                )

    def test_memo_persists_across_batches(self, exp2_fresh_pair, tmp_path):
        # The same corpus twice over one fleet: the second batch should
        # hit the worker's resident memo, proof the worker state (not
        # just the process) survives between calls.  One worker, so the
        # split of the documents over workers cannot vary the counts:
        # the first order fills the memo, the three identical orders
        # after it hit it, and the second batch hits all four.
        paths = write_corpus(tmp_path, 4)
        with WorkerFleet(
            exp2_fresh_pair, 1, config=FleetConfig(memo_size=4096)
        ) as fleet:
            first = validate_batch(
                exp2_fresh_pair, paths, fleet=fleet, memo_size=4096
            )
            second = validate_batch(
                exp2_fresh_pair, paths, fleet=fleet, memo_size=4096
            )
        assert second.stats.memo_hits > first.stats.memo_hits
        assert (first.stats.memo_hits, first.stats.memo_misses) == (3, 6)
        assert (second.stats.memo_hits, second.stats.memo_misses) == (4, 0)

    def test_closed_fleet_rejects_validate(self, exp2_fresh_pair, tmp_path):
        paths = write_corpus(tmp_path, 2)
        fleet = WorkerFleet(exp2_fresh_pair, 2)
        fleet.close()
        assert fleet.closed
        with pytest.raises(BatchError):
            fleet.validate(paths, on_result=lambda *a: None)


class TestChunking:
    @pytest.mark.parametrize("chunk_size", [1, 3, 100])
    def test_every_document_exactly_once(
        self, exp2_fresh_pair, tmp_path, chunk_size
    ):
        paths = write_corpus(tmp_path, 10)
        batch = validate_batch(
            exp2_fresh_pair, paths, jobs=2, chunk_size=chunk_size
        )
        assert sorted(r.path for r in batch.results) == sorted(paths)
        assert batch.all_valid

    def test_chunk_size_must_be_positive(self, exp2_fresh_pair):
        with pytest.raises(ValueError, match="chunk_size"):
            WorkerFleet(exp2_fresh_pair, 2, chunk_size=0)

    def test_jobs_must_be_positive(self, exp2_fresh_pair):
        with pytest.raises(ValueError, match="jobs"):
            WorkerFleet(exp2_fresh_pair, 0)

    def test_chunks_dispatched_accounting(self, exp2_fresh_pair, tmp_path):
        paths = write_corpus(tmp_path, 9)
        with WorkerFleet(exp2_fresh_pair, 2, chunk_size=2) as fleet:
            validate_batch(exp2_fresh_pair, paths, fleet=fleet)
        assert fleet.chunks_dispatched == 5  # ceil(9 / 2)


class TestZeroCopyTransport:
    def test_fork_route_never_pickles(self, exp2_fresh_pair, tmp_path):
        paths = write_corpus(tmp_path, 6)
        with WorkerFleet(
            exp2_fresh_pair, 2, start_method="fork"
        ) as fleet:
            assert fleet.transport.kind == "fork"
            validate_batch(exp2_fresh_pair, paths, fleet=fleet)
            validate_batch(exp2_fresh_pair, paths, fleet=fleet)
            assert fleet.transport.pickle_count == 0

    def test_spawn_route_pickles_at_most_once(
        self, exp2_fresh_pair, tmp_path
    ):
        paths = write_corpus(tmp_path, 6)
        with WorkerFleet(
            exp2_fresh_pair, 2, start_method="spawn"
        ) as fleet:
            assert fleet.transport.kind == "artifact"
            first = validate_batch(exp2_fresh_pair, paths, fleet=fleet)
            second = validate_batch(exp2_fresh_pair, paths, fleet=fleet)
            assert fleet.transport.pickle_count <= 1
        assert first.all_valid and second.all_valid

    def test_given_artifact_is_never_pickled(
        self, exp2_fresh_pair, tmp_path
    ):
        from repro.schema import artifacts

        exp2_fresh_pair.warm()
        artifact = str(tmp_path / "pair.pkl")
        artifacts.save(exp2_fresh_pair, artifact)
        paths = write_corpus(tmp_path, 4)
        with WorkerFleet(
            exp2_fresh_pair, 2, start_method="spawn",
            artifact_path=artifact, warm=False,
        ) as fleet:
            assert fleet.transport.route == ("artifact", artifact)
            batch = validate_batch(exp2_fresh_pair, paths, fleet=fleet)
            assert fleet.transport.pickle_count == 0
        assert batch.all_valid
        # The caller's artifact is the caller's: closing leaves it.
        assert os.path.exists(artifact)

    @pytest.mark.parametrize("teardown", ["close", "kill"])
    def test_owned_artifact_is_deleted_at_teardown(
        self, exp2_fresh_pair, tmp_path, teardown
    ):
        paths = write_corpus(tmp_path, 2)
        fleet = WorkerFleet(exp2_fresh_pair, 1, start_method="spawn")
        kind, artifact = fleet.transport.route
        assert kind == "artifact" and os.path.exists(artifact)
        assert validate_batch(
            exp2_fresh_pair, paths, fleet=fleet
        ).all_valid
        getattr(fleet, teardown)()
        assert not os.path.exists(artifact)

    def test_transport_close_is_idempotent(self, exp2_fresh_pair):
        transport = PairTransport(exp2_fresh_pair, "spawn", None)
        _, artifact = transport.route
        transport.close()
        transport.close()
        assert not os.path.exists(artifact)


class TestJobsEquivalence:
    def test_parallel_equals_serial(self, exp2_fresh_pair, tmp_path):
        paths = write_corpus(tmp_path, 12)
        serial = validate_batch(
            exp2_fresh_pair, paths, jobs=1, collect_stats=True
        )
        parallel = validate_batch(
            exp2_fresh_pair, paths, jobs=3, collect_stats=True,
            chunk_size=2,
        )
        assert serial.results == parallel.results
        assert serial.stats == parallel.stats

    def test_spawn_equals_fork(self, exp2_fresh_pair, tmp_path):
        paths = write_corpus(tmp_path, 6)
        results = {}
        for method in ("fork", "spawn"):
            with WorkerFleet(
                exp2_fresh_pair, 2,
                config=FleetConfig(collect_stats=True),
                start_method=method,
            ) as fleet:
                results[method] = validate_batch(
                    exp2_fresh_pair, paths, fleet=fleet,
                    collect_stats=True,
                )
        assert results["fork"].results == results["spawn"].results
        assert results["fork"].stats == results["spawn"].stats

    def test_empty_batch(self, exp2_fresh_pair):
        batch = validate_batch(exp2_fresh_pair, [], jobs=4)
        assert batch.total == 0
        assert batch.all_valid
