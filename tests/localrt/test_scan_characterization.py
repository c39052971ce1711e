"""Characterization of the batch shared-scan plan.

Pins, for one fixed run, everything the S3 scan loop decides: which
iteration each job joins and completes in, the pointer and chunk of
every iteration, the participants in order, the hook sequence, the
logical I/O and the chunks handed to the read-ahead prefetcher.  The
values were recorded from the runner before its scan loop was moved
onto :class:`~repro.schedulers.s3.scanloop.ScanLoop`; any drift in the
plan shows up here as a diff.

The geometry is chosen to hit the loop's edge cases at once: 11 blocks
in segments of 3 (the last chunk before the wrap is ragged), two jobs
joining mid-scan in the same iteration, and an idle gap (iterations
6-8) before the last arrival.  Cache hit counts are not pinned: the
prefetcher races the demand reads.
"""

from repro.common.config import ExecutionConfig
from repro.localrt.jobs import wordcount_job
from repro.localrt.prefetch import ReadAheadPrefetcher
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore
from repro.obs import Tracer

PATTERNS = {"wc0": "^w.*", "wc1": ".*1$", "wc2": "^l.*", "wc3": ".*"}
ARRIVALS = {"wc0": 0, "wc1": 2, "wc2": 2, "wc3": 9}

EXPECTED_ITERATIONS = 13
EXPECTED_BLOCKS_READ = 28
EXPECTED_BYTES_READ = 12320
#: job -> (completed_iteration, completed_blocks_read)
EXPECTED_COMPLETION = {
    "wc0": (3, 11),
    "wc1": (5, 17),
    "wc2": (5, 17),
    "wc3": (12, 28),
}
#: job -> number of distinct output keys.
EXPECTED_OUTPUT_KEYS = {"wc0": 7, "wc1": 24, "wc2": 1, "wc3": 231}
#: (pointer, blocks, job_ids) of every ``s3.iteration`` span, in order.
EXPECTED_SPANS = [
    (0, 3, ["wc0"]),
    (3, 3, ["wc0"]),
    (6, 3, ["wc0", "wc1", "wc2"]),
    (9, 2, ["wc0", "wc1", "wc2"]),
    (0, 3, ["wc1", "wc2"]),
    (3, 3, ["wc1", "wc2"]),
    (6, 3, ["wc3"]),
    (9, 2, ["wc3"]),
    (0, 3, ["wc3"]),
    (3, 3, ["wc3"]),
]
#: (iteration, participant job ids) per ``on_iteration_end`` call.
EXPECTED_HOOK = [
    (0, ["wc0"]),
    (1, ["wc0"]),
    (2, ["wc0", "wc1", "wc2"]),
    (3, ["wc0", "wc1", "wc2"]),
    (4, ["wc1", "wc2"]),
    (5, ["wc1", "wc2"]),
    (9, ["wc3"]),
    (10, ["wc3"]),
    (11, ["wc3"]),
    (12, ["wc3"]),
]
#: Block ranges handed to ``ReadAheadPrefetcher.schedule``, in order.
#: The chunk after iteration 5 is warmed although no job is scanning
#: then: a later arrival is pending, and it starts at that chunk.
EXPECTED_PREFETCH = [
    [3, 4, 5],
    [6, 7, 8],
    [9, 10],
    [0, 1, 2],
    [3, 4, 5],
    [6, 7, 8],
    [9, 10],
    [0, 1, 2],
    [3, 4, 5],
]


def lines(n):
    return [f"word{i % 7} line {i:04d} tail{i % 3}" for i in range(n)]


def test_shared_scan_plan_is_pinned(tmp_path, monkeypatch):
    store = BlockStore.create(tmp_path / "s", lines(220),
                              block_size_bytes=440)
    assert store.num_blocks == 11
    scheduled: list[list[int]] = []
    original = ReadAheadPrefetcher.schedule

    def spy(self, indices):
        indices = list(indices)
        scheduled.append(indices)
        return original(self, indices)

    monkeypatch.setattr(ReadAheadPrefetcher, "schedule", spy)
    hook: list[tuple[int, list[str]]] = []
    tracer = Tracer(name="characterization")
    runner = SharedScanRunner(
        store,
        ExecutionConfig(blocks_per_segment=3, cache_capacity_bytes=1 << 20,
                        prefetch_depth=2),
        tracer=tracer)
    report = runner.run(
        [wordcount_job(job_id, pattern)
         for job_id, pattern in PATTERNS.items()],
        ARRIVALS,
        on_iteration_end=lambda i, states: hook.append(
            (i, [state.job.job_id for state in states])))

    assert report.iterations == EXPECTED_ITERATIONS
    assert report.blocks_read == EXPECTED_BLOCKS_READ
    assert report.bytes_read == EXPECTED_BYTES_READ
    assert {job_id: (result.completed_iteration,
                     result.completed_blocks_read)
            for job_id, result in report.results.items()
            } == EXPECTED_COMPLETION
    assert list(report.results) == ["wc0", "wc1", "wc2", "wc3"]
    assert {job_id: len(result.output)
            for job_id, result in report.results.items()
            } == EXPECTED_OUTPUT_KEYS
    spans = [(span.args["pointer"], span.args["blocks"],
              span.args["job_ids"])
             for span in tracer.spans() if span.name == "s3.iteration"]
    assert spans == EXPECTED_SPANS
    assert hook == EXPECTED_HOOK
    assert scheduled == EXPECTED_PREFETCH
