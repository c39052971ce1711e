"""Benchmarks of the map execution backends (serial / threads / processes).

The shared-scan saving is about *bytes*; the backend knob is about *CPU*.
Pure-Python mappers are GIL-bound, so the thread backend mostly overlaps
I/O, while the process backend parallelises the map CPU itself.  These
benchmarks time one shared-scan run per backend over the same corpus and
check the outputs stay bit-identical — the wall-clock comparison is the
local analogue of adding map slots to the cluster.

The serial-vs-processes speedup assertion only makes sense with real
parallel hardware; it is skipped on single-core hosts (process-pool
overhead dominates there and the comparison measures nothing).
"""

import os
import pathlib
import tempfile

import pytest

from repro.common.clock import Stopwatch
from repro.common.config import ExecutionConfig
from repro.localrt.jobs import wordcount_job
from repro.localrt.parallel import BACKEND_NAMES
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore
from repro.workloads.text import TextCorpusGenerator

PATTERNS = ["^th.*", ".*ing$", "^[aeiou].*", ".*tion$"]


@pytest.fixture(scope="module")
def corpus():
    with tempfile.TemporaryDirectory() as tmp:
        store = BlockStore.create(
            pathlib.Path(tmp) / "corpus",
            TextCorpusGenerator(vocabulary_size=1000, seed=17).lines(300_000),
            block_size_bytes=25_000)
        yield store


def make_jobs():
    return [wordcount_job(f"wc{i}", p) for i, p in enumerate(PATTERNS)]


def run_backend(corpus, backend):
    with SharedScanRunner(corpus, ExecutionConfig(
            map_backend=backend, map_workers=os.cpu_count(),
            blocks_per_segment=8)) as runner:
        return runner.run(make_jobs())


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_backend_wall_clock(benchmark, corpus, backend):
    report = benchmark(lambda: run_backend(corpus, backend))
    # Same single shared pass regardless of execution strategy.
    assert report.blocks_read == corpus.num_blocks


def test_backends_identical_and_processes_beat_serial(corpus):
    """All backends byte-identical; processes faster than serial when the
    host actually has cores to parallelise over."""
    outputs = {}
    elapsed = {}
    for backend in BACKEND_NAMES:
        watch = Stopwatch()
        report = run_backend(corpus, backend)
        elapsed[backend] = watch.elapsed()
        outputs[backend] = {job_id: result.output
                            for job_id, result in report.results.items()}
    assert outputs["threads"] == outputs["serial"]
    assert outputs["processes"] == outputs["serial"]
    print("\nbackend wall-clock:",
          {k: f"{v:.3f}s" for k, v in elapsed.items()})
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(f"speedup assertion needs >= 2 cores (host has {cores})")
    assert elapsed["processes"] < elapsed["serial"], (
        f"processes ({elapsed['processes']:.3f}s) should beat serial "
        f"({elapsed['serial']:.3f}s) on a {cores}-core host")
