"""Execution of S3 scan iterations over real bytes, shared by both drivers.

One :class:`~repro.schedulers.s3.scanloop.ScanLoop` decides every merged
sub-job — which blocks the next iteration scans and which jobs share
each block — and :meth:`~repro.schedulers.s3.scanloop.ScanLoop.
build_iteration` is the only place an iteration is built.  Two drivers
feed it jobs:

* the batch :class:`~repro.localrt.runners.SharedScanRunner`, which adds
  each job at its arrival iteration and runs the loop to completion;
* the live :class:`~repro.service.core.SchedulerService`, which admits
  jobs while the scan runs.

Both run each built :class:`~repro.schedulers.s3.scanloop.Iteration`
through a :class:`LiveScanExecutor`:

* ``run_iteration`` — one shared map wave over the iteration's chunk,
  every block read exactly once, traced as an ``s3.iteration`` span with
  a per-wave ``io.wave`` delta;
* ``finish_job`` — shuffle/sort/reduce for a job whose scan completed,
  yielding the same :class:`~repro.localrt.api.JobResult` whichever
  driver ran it;
* ``close`` — release the map backend and the read-ahead prefetcher
  (both re-create lazily, so a closed executor stays usable).

:class:`StoreView` gives the loop its view of a block store, and
:func:`chunk_to_warm` picks what the prefetcher warms while a wave maps.
"""

from __future__ import annotations

from typing import Mapping, Sequence, TypeVar

from ..common import ids
from ..common.config import ExecutionConfig
from ..common.errors import ExecutionError
from ..dfs.block import Block, DfsFile
from ..obs.metrics import MetricsRegistry
from ..obs.runtime import resolve_tracer
from ..obs.tracer import Tracer
from ..schedulers.assignment import group_blocks_by_location
from ..schedulers.s3.scanloop import Iteration, ScanLoop
from .api import BlockStoreProtocol, JobResult
from .engine import JobRunState, count_pending_values, run_reduce
from .parallel import MapTaskSpec, backend_from_config, execute_map_wave
from .prefetch import ReadAheadPrefetcher
from .records import RecordReader, TextLineReader
from .storage import ReadStats

#: Wave-size histogram buckets (blocks per wave).
_WAVE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class StoreView:
    """A :class:`~repro.schedulers.s3.jobqueue.FileResolver` over a local
    block store: sizes and replica locations taken from the real store,
    so scan-loop state sees the same placement the reads will route by
    (a single store reports one synthetic ``"local"`` node; a sharded
    store reports its shard names, primary first)."""

    def __init__(self, store: BlockStoreProtocol, name: str) -> None:
        blocks = tuple(
            Block(block_id=ids.block_id(name, index), file_name=name,
                  index=index,
                  size_mb=max(store.block_size_bytes(index), 1) / 2 ** 20,
                  locations=store.block_locations(index))
            for index in range(store.num_blocks))
        self.file = DfsFile(name=name, blocks=blocks)

    def get_file(self, name: str) -> DfsFile:
        if name != self.file.name:
            raise ExecutionError(f"unknown file {name!r} "
                                 f"(this view holds {self.file.name!r})")
        return self.file


def chunk_to_warm(loop: ScanLoop, chunk_size: int,
                  arrivals_pending: bool) -> range | None:
    """The chunk the loop's next build will scan, when one will run.

    Call it right after a build.  The next chunk starts at the pointer
    and never wraps inside a chunk (as :meth:`ScanLoop.build_iteration`).
    It is worth warming while a job is still scanning or while an
    arrival is still to come — a job that arrives while the loop is idle
    starts its scan at that same pointer.
    """
    if not (arrivals_pending or loop.has_work()):
        return None
    length = min(chunk_size, loop.num_blocks - loop.pointer)
    return range(loop.pointer, loop.pointer + length)


_RunnerT = TypeVar("_RunnerT", bound="_LocalRunnerBase")


class _LocalRunnerBase:
    """Construction shared by every runner: store, reader, map backend,
    prefetch depth and tracer, all from one :class:`~repro.common.config.
    ExecutionConfig`, plus the per-wave trace bookkeeping."""

    #: Tracer name for this runner kind (exporters show it as the track).
    _tracer_name = "localrt"

    def __init__(self, store: BlockStoreProtocol,
                 config: ExecutionConfig | None = None, *,
                 reader: RecordReader | None = None,
                 tracer: Tracer | None = None) -> None:
        if config is None:
            config = ExecutionConfig()
        elif not isinstance(config, ExecutionConfig):
            raise ExecutionError(
                f"config must be an ExecutionConfig, got {type(config).__name__}")
        self.store = store
        self.config = config
        self.reader = reader or TextLineReader()
        # Idempotent: an already-attached cache is kept, so repeat
        # runners share it.
        if config.cache_capacity_bytes is not None and not store.has_cache:
            store.ensure_cache(config.cache_capacity_bytes)
        self.backend = backend_from_config(config)
        # The config guarantees a cache capacity whenever this is > 0.
        self.prefetch_depth = config.prefetch_depth
        # Precedence: an explicit tracer, then config.trace.enabled, then
        # an active TraceSession, then the no-op NULL_TRACER.
        self.tracer = resolve_tracer(tracer, config.trace.enabled,
                                     self._tracer_name)
        # Placement-aware stores emit shard.read/shard.failover through
        # the runner's tracer; a single store's attach is a no-op.
        store.attach_tracer(self.tracer)
        #: Per-run metric instruments (populated only while tracing).
        self.metrics = MetricsRegistry()

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the map backend's pool (idempotent; pools re-create
        lazily, so a closed runner stays usable).

        A runner keeps its pool across ``run()`` calls, so repeated runs
        reuse the same workers; use the runner as a context manager, or
        call this, to shut the pool down.
        """
        self.backend.close()

    def __enter__(self: _RunnerT) -> _RunnerT:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------- observability
    def _wave_placement(self, label: str, blocks: Sequence[int]) -> None:
        """Annotate a wave with where its blocks will be served from.

        Groups the wave's blocks by preferred (first-listed) replica
        holder — for a sharded store that is the primary shard, or the
        first live replica once a shard is down.  Purely observational:
        task order (and therefore absorb order and job outputs) never
        changes.  Single stores report only the synthetic ``"local"``
        node, so the event is skipped for them.
        """
        if not self.tracer.enabled or not blocks:
            return
        plan = group_blocks_by_location(self.store.block_locations, blocks)
        if set(plan) == {"local"}:
            return
        self.tracer.event(
            "wave.placement", subject=label,
            args={location: len(held)
                  for location, held in sorted(plan.items())})

    def _absorb_wave(self, label: str, before: ReadStats) -> None:
        """Record one wave's I/O delta as an ``io.wave`` event + metrics."""
        delta = self.store.stats_snapshot().delta(before)
        self.metrics.absorb_read_stats(delta)
        self.metrics.histogram("wave.blocks",
                               buckets=_WAVE_BUCKETS).observe(delta.blocks_read)
        self.tracer.event("io.wave", subject=label,
                          blocks=delta.blocks_read, bytes=delta.bytes_read,
                          physical_blocks=delta.physical_blocks_read,
                          cache_hits=delta.cache_hits,
                          cache_misses=delta.cache_misses,
                          prefetched=delta.prefetched_blocks)


class LiveScanExecutor(_LocalRunnerBase):
    """Executes :class:`ScanLoop` iterations over a :class:`BlockStore`.

    Construction mirrors the runners — ``LiveScanExecutor(store,
    ExecutionConfig(...))``.  The backend and the prefetcher (started on
    the first warm request) persist across iterations until
    :meth:`close`.  All scheduling state lives with the caller.
    """

    _tracer_name = "service"

    def __init__(self, store: BlockStoreProtocol,
                 config: ExecutionConfig | None = None, *,
                 reader: RecordReader | None = None,
                 tracer: Tracer | None = None) -> None:
        super().__init__(store, config, reader=reader, tracer=tracer)
        self._prefetcher: ReadAheadPrefetcher | None = None
        #: Logical blocks read when this executor started (baseline for
        #: per-job virtual completion times).
        self._blocks_baseline = store.logical_blocks_read()

    @property
    def blocks_read(self) -> int:
        """Logical blocks read through this executor so far."""
        return self.store.logical_blocks_read() - self._blocks_baseline

    def run_iteration(self, index: int, iteration: Iteration,
                      run_states: Mapping[str, JobRunState], *,
                      next_chunk: range | None = None) -> None:
        """Run one merged sub-job's map wave (blocks read exactly once).

        ``run_states`` maps each participant's id to its run state.
        ``next_chunk``, when given, is warmed into the block cache while
        this wave maps — the live analogue of the paper's partial-job
        pipeline (prepare sub-job *i+1* during sub-job *i*).
        """
        tasks = [MapTaskSpec(block_index=block,
                             states=tuple(run_states[job_id] for job_id
                                          in iteration.block_jobs[block]))
                 for block in iteration.chunk]
        label = f"iter_{index}"
        wave_before = (self.store.stats_snapshot()
                       if self.tracer.enabled else None)
        self._wave_placement(label, iteration.chunk)
        with self.tracer.span("s3.iteration", subject=label,
                              pointer=iteration.chunk[0], blocks=len(tasks),
                              jobs=len(iteration.participants),
                              job_ids=list(iteration.participants)):
            if next_chunk is not None and self.prefetch_depth > 0:
                if self._prefetcher is None:
                    self._prefetcher = ReadAheadPrefetcher(
                        self.store, depth=self.prefetch_depth,
                        tracer=self.tracer)
                self._prefetcher.schedule(next_chunk)
            execute_map_wave(self.store, self.reader, tasks,
                             backend=self.backend, tracer=self.tracer)
        if wave_before is not None:
            self._absorb_wave(label, wave_before)

    def finish_job(self, run_state: JobRunState,
                   completed_iteration: int) -> JobResult:
        """Reduce a scan-complete job into its final :class:`JobResult`."""
        reduce_input = count_pending_values(run_state)
        output = run_reduce(run_state, self.tracer)
        return JobResult(
            job_id=run_state.job.job_id,
            output=output,
            map_input_records=run_state.map_input_records,
            map_output_records=run_state.map_output_records,
            reduce_output_records=len(output),
            reduce_input_values=reduce_input,
            completed_iteration=completed_iteration,
            completed_blocks_read=self.blocks_read,
            counters=run_state.counters,
        )

    def stop_prefetcher(self) -> None:
        """Stop the prefetcher, if one runs; the next warm request starts
        a fresh one, paced from that point (idempotent)."""
        if self._prefetcher is not None:
            self._prefetcher.close()
            self._prefetcher = None

    def close(self) -> None:
        """Stop the prefetcher and release the backend (idempotent)."""
        self.stop_prefetcher()
        super().close()

