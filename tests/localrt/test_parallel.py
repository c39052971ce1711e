"""Parallel map execution: every backend must equal the serial run."""

import os

import pytest

from repro.common.config import ExecutionConfig
from repro.common.errors import ExecutionError
from repro.localrt.api import LocalJob, Mapper, SumReducer
from repro.localrt.engine import JobRunState
from repro.localrt.jobs import wordcount_job
from repro.localrt.parallel import (
    BACKEND_NAMES,
    MapBackend,
    MapTaskSpec,
    ProcessMapBackend,
    SerialMapBackend,
    ThreadMapBackend,
    backend_from_config,
    execute_map_wave,
    make_backend,
)
from repro.localrt.records import TextLineReader
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner

PATTERNS = ["^b.*", ".*ing$", "^[aeiou].*"]


def make_jobs():
    return [wordcount_job(f"wc{i}", p) for i, p in enumerate(PATTERNS)]


def test_parallel_fifo_equals_serial(corpus_store):
    serial = FifoLocalRunner(corpus_store, ExecutionConfig()).run(make_jobs())
    with FifoLocalRunner(
            corpus_store,
            ExecutionConfig(map_backend="threads", map_workers=4)) as runner:
        parallel = runner.run(make_jobs())
    for job_id in ("wc0", "wc1", "wc2"):
        assert (serial.results[job_id].output
                == parallel.results[job_id].output)
    assert parallel.blocks_read == serial.blocks_read


def test_parallel_shared_scan_equals_serial(corpus_store):
    arrivals = {"wc1": 1, "wc2": 2}
    serial = SharedScanRunner(
        corpus_store,
        ExecutionConfig(blocks_per_segment=3)).run(make_jobs(), arrivals)
    with SharedScanRunner(
            corpus_store,
            ExecutionConfig(blocks_per_segment=3, map_backend="threads",
                            map_workers=4)) as runner:
        parallel = runner.run(make_jobs(), arrivals)
    for job_id in ("wc0", "wc1", "wc2"):
        assert (serial.results[job_id].output
                == parallel.results[job_id].output)
    assert parallel.bytes_read == serial.bytes_read
    assert parallel.iterations == serial.iterations


def test_read_counters_thread_safe(corpus_store):
    """Concurrent read_block calls must not lose counter increments."""
    before = corpus_store.stats.blocks_read
    with FifoLocalRunner(
            corpus_store,
            ExecutionConfig(map_backend="threads", map_workers=8)) as runner:
        runner.run(make_jobs())
    delta = corpus_store.stats.blocks_read - before
    assert delta == 3 * corpus_store.num_blocks


def test_execute_map_wave_validation(corpus_store):
    reader = TextLineReader()
    state = JobRunState(wordcount_job("a", ".*"))
    with pytest.raises(ExecutionError, match="duplicate"):
        execute_map_wave(corpus_store, reader,
                         [MapTaskSpec(0, (state,)), MapTaskSpec(0, (state,))],
                         backend=SerialMapBackend())
    with pytest.raises(ExecutionError, match="no jobs"):
        MapTaskSpec(0, ())


def test_empty_wave_is_noop(corpus_store):
    with ThreadMapBackend(workers=4) as backend:
        execute_map_wave(corpus_store, TextLineReader(), [], backend=backend)


# ---------------------------------------------------------------- backends
def test_process_backend_fifo_equals_serial(corpus_store):
    serial = FifoLocalRunner(corpus_store, ExecutionConfig()).run(make_jobs())
    with FifoLocalRunner(
            corpus_store,
            ExecutionConfig(map_backend="processes",
                            map_workers=2)) as runner:
        procs = runner.run(make_jobs())
    for job_id in ("wc0", "wc1", "wc2"):
        assert serial.results[job_id].output == procs.results[job_id].output
        assert (list(serial.results[job_id].counters)
                == list(procs.results[job_id].counters))
    assert procs.blocks_read == serial.blocks_read
    assert procs.bytes_read == serial.bytes_read


def test_process_backend_shared_scan_equals_serial(corpus_store):
    arrivals = {"wc1": 1, "wc2": 2}
    serial = SharedScanRunner(
        corpus_store,
        ExecutionConfig(blocks_per_segment=3)).run(make_jobs(), arrivals)
    with SharedScanRunner(
            corpus_store,
            ExecutionConfig(blocks_per_segment=3, map_backend="processes",
                            map_workers=2)) as runner:
        procs = runner.run(make_jobs(), arrivals)
    for job_id in ("wc0", "wc1", "wc2"):
        assert serial.results[job_id].output == procs.results[job_id].output
    assert procs.bytes_read == serial.bytes_read
    assert procs.iterations == serial.iterations


def test_make_backend_names():
    for name in BACKEND_NAMES:
        backend = make_backend(name, workers=2)
        assert backend.name == name
        backend.close()
    with pytest.raises(ExecutionError, match="unknown map backend"):
        make_backend("gpu")


def test_backend_from_config():
    backend = backend_from_config(ExecutionConfig(map_backend="threads",
                                                  map_workers=3))
    assert isinstance(backend, ThreadMapBackend)
    assert backend.workers == 3
    backend.close()


def test_unpicklable_job_fails_by_name(corpus_store):
    job = wordcount_job("closure", ".*")
    # A lambda-held mapper attribute cannot cross the process boundary.
    job.mapper.poison = lambda: None
    with FifoLocalRunner(
            corpus_store,
            ExecutionConfig(map_backend="processes", map_workers=2)) as runner:
        with pytest.raises(ExecutionError, match="'closure'.*processes"):
            runner.run([job])


def test_backend_result_shape_is_validated(corpus_store):
    class TruncatingBackend(MapBackend):
        name = "truncating"

        def run_wave(self, store, reader, tasks):
            return []  # silently drops every task

    class MalformedBackend(MapBackend):
        name = "malformed"

        def run_wave(self, store, reader, tasks):
            # One output list per task but too few per-job buffers.
            return [(0, [], []) for _ in tasks]

    state = JobRunState(wordcount_job("a", ".*"))
    tasks = [MapTaskSpec(0, (state,))]
    with pytest.raises(ExecutionError, match="0 results for 1 tasks"):
        execute_map_wave(corpus_store, TextLineReader(), tasks,
                         backend=TruncatingBackend())
    with pytest.raises(ExecutionError, match="malformed"):
        execute_map_wave(corpus_store, TextLineReader(), tasks,
                         backend=MalformedBackend())


def test_backend_context_manager_reusable(corpus_store):
    config = ExecutionConfig(map_backend="processes", map_workers=2)
    with SharedScanRunner(corpus_store, config) as runner:
        assert isinstance(runner.backend, ProcessMapBackend)
        first = runner.run(make_jobs())
        second = runner.run(make_jobs())
    for job_id in ("wc0", "wc1", "wc2"):
        assert first.results[job_id].output == second.results[job_id].output
    # Leaving the block shut the pool down; a closed runner re-creates
    # its pool lazily on the next run.
    assert runner.backend._pool is None
    third = runner.run(make_jobs())
    runner.close()
    assert third.results["wc0"].output == first.results["wc0"].output


class WorkerPidMapper(Mapper):
    """Maps every record to the pid of the process that mapped it."""

    def map(self, key, value):
        yield os.getpid(), 1


def pid_job() -> LocalJob:
    return LocalJob(job_id="pids", mapper=WorkerPidMapper(),
                    reducer=SumReducer())


@pytest.mark.parametrize("runner_cls", [FifoLocalRunner, SharedScanRunner])
def test_runner_keeps_its_process_pool_across_runs(corpus_store, runner_cls):
    config = ExecutionConfig(map_backend="processes", map_workers=2)
    runner = runner_cls(corpus_store, config)
    try:
        first = runner.run([pid_job()])
        pool = runner.backend._pool
        workers = dict(pool._processes)
        second = runner.run([pid_job()])
        # The second run reused the first run's pool and worker processes.
        assert runner.backend._pool is pool
        assert dict(pool._processes) == workers
        mapped_in = {pid for report in (first, second)
                     for pid, _ in report.results["pids"].output}
        assert mapped_in and mapped_in <= set(workers)
        assert os.getpid() not in mapped_in
    finally:
        runner.close()
    assert runner.backend._pool is None
    for process in workers.values():
        process.join(timeout=10)
        assert not process.is_alive()
