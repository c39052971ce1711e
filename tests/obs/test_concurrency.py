"""Tracing under parallel map backends: per-lane span trees stay sane.

Each worker thread records into its own lane (the thread name), so even
with concurrent recording the exported structure must be well-nested
per lane: spans at the same depth never partially overlap, and deeper
spans lie inside an enclosing shallower span.
"""

import tempfile
from pathlib import Path

import pytest

from repro.common.config import ExecutionConfig
from repro.localrt.jobs import wordcount_job
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore
from repro.obs import Tracer

_EPS = 1e-6


@pytest.fixture(scope="module")
def corpus():
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"the quick brown fox number {i}" for i in range(300)]
        yield BlockStore.create(Path(tmp) / "corpus", lines,
                                block_size_bytes=256)


def _assert_well_nested_per_lane(spans):
    by_lane = {}
    for span in spans:
        by_lane.setdefault(span.lane, []).append(span)
    for lane, lane_spans in by_lane.items():
        # Same-depth spans in one lane must not partially overlap.
        for depth in {s.depth for s in lane_spans}:
            level = sorted((s for s in lane_spans if s.depth == depth),
                           key=lambda s: (s.ts, -s.dur))
            for a, b in zip(level, level[1:]):
                disjoint = a.ts + a.dur <= b.ts + _EPS
                nested = b.ts + b.dur <= a.ts + a.dur + _EPS
                assert disjoint or nested, (
                    f"lane {lane}: {a.name} and {b.name} partially overlap")
        # Every deeper span lies inside some shallower span of the lane.
        for span in lane_spans:
            if span.depth == 0:
                continue
            parents = [p for p in lane_spans if p.depth == span.depth - 1
                       and p.ts <= span.ts + _EPS
                       and span.ts + span.dur <= p.ts + p.dur + _EPS]
            assert parents, (
                f"lane {lane}: {span.name} (depth {span.depth}) has no "
                "enclosing span")


def test_threads_backend_produces_well_nested_span_tree(corpus):
    tracer = Tracer(name="test")
    with SharedScanRunner(
            corpus, ExecutionConfig(map_backend="threads", map_workers=4,
                                    blocks_per_segment=4),
            tracer=tracer) as runner:
        report = runner.run([wordcount_job("wc0", "^th.*"),
                             wordcount_job("wc1", ".*ing$")])
    assert report.results  # the run actually did work

    spans = list(tracer.spans())
    tasks = [s for s in spans if s.name == "map.task"]
    # Every block of every wave produced exactly one task span.
    assert len(tasks) == corpus.num_blocks
    _assert_well_nested_per_lane(spans)

    # Worker lanes exist and are distinct from the coordinating lane.
    wave_lanes = {s.lane for s in spans if s.name == "map.wave"}
    task_lanes = {s.lane for s in tasks}
    assert wave_lanes and task_lanes


def test_serial_backend_tasks_nest_inside_wave(corpus):
    tracer = Tracer(name="test")
    runner = SharedScanRunner(
        corpus, ExecutionConfig(blocks_per_segment=4), tracer=tracer)
    runner.run([wordcount_job("wc0", "^th.*")])
    spans = list(tracer.spans())
    _assert_well_nested_per_lane(spans)
    # Serial path: tasks record on the same lane as the wave, one level
    # deeper (inside s3.run > s3.iteration > map.wave).
    waves = [s for s in spans if s.name == "map.wave"]
    tasks = [s for s in spans if s.name == "map.task"]
    assert waves and tasks
    assert {t.depth for t in tasks} == {waves[0].depth + 1}
