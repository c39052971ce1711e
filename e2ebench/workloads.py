"""The three benchmark workloads, each timed end to end or traced by layer.

Each ``run_*`` function builds its inputs from the seed, measures for
about ``ctx.seconds``, checks every output against its oracle (see
:mod:`checks`) and returns an :class:`Outcome`: end-to-end metrics
normally, per-layer metrics when ``ctx.trace`` is set.  A traced run
interleaves untraced and traced repeats of the same work, so the
tracing overhead is measured in the same run.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from checks import (
    SIM_PINNED,
    CorrectnessError,
    canonical,
    check_equal,
    check_sim_panel,
    compare_outputs,
    expected_shared_scan_blocks,
)
from hostspeed import scale
from probes import LayerTracer, require_calls

import repro.experiments.base as sim_base
import repro.localrt.live as localrt_live
import repro.localrt.parallel as localrt_parallel
import repro.localrt.runners as localrt_runners
import repro.service.http as service_http
from repro.cluster.cluster import Cluster
from repro.common.config import ExecutionConfig
from repro.common.tracelog import TraceLog
from repro.experiments.fig4 import panel_specs, run_panel, scheduler_factories
from repro.experiments.paperconfig import (
    paper_cluster_config,
    paper_cost_model,
    paper_dfs_config,
)
from repro.localrt import (
    BlockStore,
    FifoLocalRunner,
    SharedScanRunner,
    count_pending_values,
    wordcount_job,
)
from repro.mapreduce.driver import SimulationDriver
from repro.schedulers.s3 import S3Scheduler
from repro.schedulers.s3.scanloop import ScanLoop
from repro.service import JobStatus, SchedulerService, ServiceConfig
from repro.workloads import DEFAULT_PATTERNS
from repro.workloads.text import TextCorpusGenerator

MB = float(1 << 20)
#: Seed of the text corpora's vocabulary, the same for every run.
VOCABULARY_SEED = 0

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Timed repeats per run at the least (more while ``--seconds`` allows).
MIN_REPEATS = 3

# Batch workload: 31 blocks and the runner's default 4-block segment,
# so a full scan is 8 iterations.  Generating the corpus is ~99% of
# set-up, so the corpus is 1 MB.
WORDCOUNT_BYTES = 1_000_000
WORDCOUNT_BLOCK = 32 << 10
SEGMENT = ExecutionConfig().blocks_per_segment
NUM_JOBS = 8
#: Job i of wordcount-staggered is admitted at iteration STAGGER * i.
STAGGER = 2

# Service workload: the threaded service over a 512 KB corpus (32
# blocks, 8 iterations per full scan).  Each repeat starts a service and
# schedules SERVICE_JOBS jobs that its core releases when the scan
# reaches their iteration (``submit_at_iteration``): the first half one
# every PACE[0] iterations (r1), the second half one every PACE[1]
# iterations (r2).  Arrivals are paced by the scan, not by wall-clock
# Poisson streams: on 2-vCPU hosts open-loop latencies spread by
# 0.2-0.48 (IQR over median) between runs, because every host stall and
# garbage-collector pause lands in their tail.
SERVICE_BYTES = 512 << 10
SERVICE_BLOCK = 16 << 10
SERVICE_JOBS = 16
PACE = (2, 1)
#: The CANCEL_EVERY-th job of a repeat is cancelled once released.
CANCEL_EVERY = 10
SCRAPE_EVERY_S = 0.2
POLL_S = 0.01
DRAIN_TIMEOUT_S = 60.0

PANELS = ("4a", "4e")
#: Scheduler names of the simulator's Figure 4 comparison.
SIM_SCHEDULERS = ("FIFO", "MRS1", "MRS2", "MRS3", "S3")
#: Simulator set-ups before each timed scheduler run.  One takes 30-60
#: ms, and the host's speed drifts over seconds, so set-ups spread over
#: the whole run give a steadier median than a burst at its start.
SIM_SETUPS = 2


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    workdir: Path
    log: Callable[[str], None]
    #: One sample of the host's speed: seconds of the reference kernel
    #: (``hostspeed.KernelTimer.seconds``).
    speed: Callable[[], float]


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]


# --------------------------------------------------------------- helpers
def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive linear interpolation)."""
    if not values:
        raise CorrectnessError("percentile of no samples")
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_repeats(ctx: Context, body: Callable[[int], Any],
                  min_repeats: int = MIN_REPEATS,
                  period: int = 1) -> list[tuple[Any, float]]:
    """Run ``body(i)`` until another repeat would overrun ``seconds``.

    Returns each repeat's result with its speed scale: the factor that
    takes the repeat's wall times to the reference host speed, from the
    reference kernel timed (``ctx.speed``) right before and right after
    it (see :mod:`hostspeed`).  The next repeat is expected to take as long as
    the one ``period`` repeats back (for bodies that cycle through
    unequal units).  A full collection before each repeat (untimed)
    starts every repeat from the same heap state, so a repeat does not
    pay for garbage the previous one left.
    """
    start = time.perf_counter()
    out: list[tuple[Any, float]] = []
    took: list[float] = []
    gc.collect()
    before = ctx.speed()
    while True:
        t0 = time.perf_counter()
        result = body(len(out))
        took.append(time.perf_counter() - t0)
        gc.collect()
        after = ctx.speed()
        out.append((result, scale(before, after)))
        before = after
        expected = took[-period] if len(took) >= period else took[-1]
        elapsed = time.perf_counter() - start
        if len(out) >= min_repeats and elapsed + expected > ctx.seconds:
            ctx.log(f"{len(out)} repeats, median speed scale "
                    f"{statistics.median(k for _, k in out):.4f}")
            return out


def text_lines(seed: int, size: int) -> list[str]:
    """A Zipf text corpus: fixed vocabulary, lines sampled from ``seed``.

    ``TextCorpusGenerator`` draws its vocabulary from its seed as well,
    and which words land in the Zipf head sets the tokens per MB and
    the patterns' hit rates: with the vocabulary left to the seed, one
    seed's service latencies ran 25% above another's on every repeat.
    The generator keeps the random generator it is given, so re-seeding
    that generator after construction fixes the vocabulary while the
    seed still chooses every line.
    """
    rng = np.random.default_rng(VOCABULARY_SEED)
    generator = TextCorpusGenerator(seed=rng)
    rng.bit_generator.state = np.random.default_rng(seed).bit_generator.state
    return list(generator.lines(size))


def build_stores(ctx: Context, name: str,
                 make: Callable[[Path], BlockStore]) -> tuple[BlockStore,
                                                              float]:
    """Set up ``SETUPS`` times; returns the last store and the median time.

    Each set-up time is scaled to the reference speed.  Earlier copies
    are deleted so the run keeps one store on disk.
    """
    times = []
    store = None
    before = ctx.speed()
    for index in range(SETUPS):
        if store is not None:
            shutil.rmtree(store.directory)
        t0 = time.perf_counter()
        store = make(ctx.workdir / f"{name}-{index}")
        took = time.perf_counter() - t0
        after = ctx.speed()
        times.append(took * scale(before, after))
        before = after
    assert store is not None
    ctx.log(f"setup: {store.num_blocks} blocks, {store.total_bytes} bytes; "
            f"set-up times at reference speed {[round(t, 4) for t in times]}")
    return store, statistics.median(times)


def install_probes(tracer: LayerTracer) -> LayerTracer:
    """Wrap the public entry point of every layer the benchmark reports."""
    def nbytes(_a: tuple, _k: dict, item: str) -> dict[str, float]:
        return {"bytes": len(item) + 1}

    tracer.wrap(TextCorpusGenerator, "lines", "workloads.gen", measure=nbytes)
    tracer.wrap(BlockStore, "create", "storage.create")
    tracer.wrap(BlockStore, "read_block_bytes", "storage.read")
    tracer.wrap(SharedScanRunner, "run", "runners.run",
                measure=lambda a, k, r: {"iterations": r.iterations})
    for module in (localrt_runners, localrt_live):
        tracer.wrap(module, "execute_map_wave", "parallel.wave",
                    measure=lambda a, k, r: {"tasks": len(a[2])})
        tracer.wrap(module, "run_reduce", "reduce",
                    before=lambda a, k: {
                        "values": count_pending_values(a[0])})
    tracer.wrap(localrt_parallel, "collect_map_outputs", "kernel",
                measure=lambda a, k, r: {"records": r[0],
                                         "bytes": len(a[2])})
    tracer.wrap(localrt_parallel, "absorb_map_result", "absorb",
                measure=lambda a, k, r: {"records": len(a[2])})
    tracer.wrap(ScanLoop, "build_iteration", "s3.build",
                measure=lambda a, k, r: {
                    "built": 0 if r is None else 1,
                    "jobs": 0 if r is None else len(r.participants)})
    tracer.wrap(SchedulerService, "submit_at_iteration", "service.submit",
                keep_samples=True)
    tracer.wrap(SchedulerService, "cancel", "service.cancel")
    tracer.wrap(service_http, "handle_path", "http", key=lambda a: a[1])
    tracer.wrap(sim_base, "run_scheduler", "sim.run",
                key=lambda a: "." + a[0].name,
                measure=lambda a, k, r: {"events": r[1].events_processed})
    tracer.wrap(Cluster, "nodes_with_free_map_slot", "cluster.free_slot")
    tracer.wrap(TraceLog, "record", "tracelog.record")
    return tracer


def setup_layers(tracer: LayerTracer) -> dict[str, float]:
    """Per-set-up generator and store-creation costs."""
    gen_s = tracer.busy("workloads.gen")
    return {
        "storage.create_s": tracer.busy("storage.create") / SETUPS,
        "workloads.gen_s": gen_s / SETUPS,
        "workloads.gen_mb_per_s": (tracer.extra("workloads.gen", "bytes")
                                   / MB / gen_s),
    }


def scan_layers(tracer: LayerTracer, reps: int, *,
                kernel_tracer: LayerTracer | None = None,
                workers: int = 1) -> dict[str, float]:
    """Engine, storage-read and map-wave costs per repeat.

    Worker processes cannot be probed from the parent, so on the process
    pool the read and kernel costs come from ``kernel_tracer``, a serial
    traced repeat of the same job set; ``parallel.pool_overhead_s`` is
    then the wave time that reading and kernels spread over ``workers``
    and the parent's absorb do not explain.
    """
    ktr = kernel_tracer or tracer
    read_s = ktr.busy("storage.read") / reps
    kernel_s = ktr.busy("kernel") / reps
    wave_s = tracer.busy("parallel.wave") / reps
    absorb_s = tracer.busy("absorb") / reps
    return {
        "storage.read_s": read_s,
        "kernel.s": kernel_s,
        "kernel.records": ktr.extra("kernel", "records") / reps,
        "kernel.mb_per_s": ktr.extra("kernel", "bytes") / MB / ktr.busy(
            "kernel"),
        "absorb.s": absorb_s,
        "absorb.records": tracer.extra("absorb", "records") / reps,
        "reduce.s": tracer.busy("reduce") / reps,
        "reduce.values": tracer.extra("reduce", "values") / reps,
        "parallel.wave_s": wave_s,
        "parallel.tasks": tracer.extra("parallel.wave", "tasks") / reps,
        "parallel.pool_overhead_s": (wave_s - absorb_s
                                     - (read_s + kernel_s) / workers),
    }


def io_layers(io: Any, job_blocks: int) -> dict[str, float]:
    """Read counters; ``job_blocks`` is the blocks the jobs scanned."""
    return {
        "storage.blocks_read": io.blocks_read,
        "storage.physical_blocks_read": io.physical_blocks_read,
        "storage.bytes_read": io.bytes_read,
        "storage.scan_sharing": job_blocks / io.blocks_read,
    }


def overhead_frac(traced: Sequence[float], untraced: Sequence[float],
                  ) -> float:
    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base


def batch_e2e(setup_s: float, makespans: Sequence[float],
              latencies: Sequence[Sequence[float]]) -> dict[str, float]:
    """End-to-end metrics of a batch workload.

    ``latencies[r]`` holds each job's latency in repeat ``r``, in job
    order.  ``.r1`` is the first half of the jobs, ``.r2`` the second
    half; each percentile is taken over the jobs of one repeat, and the
    metric is its median over the repeats.
    """
    half = NUM_JOBS // 2

    def over_repeats(jobs: slice, q: int) -> float:
        return statistics.median(percentile(run[jobs], q)
                                 for run in latencies)

    makespan = statistics.median(makespans)
    return {
        "setup_s": setup_s,
        "makespan_s": makespan,
        "latency_p50_s.r1": over_repeats(slice(None, half), 50),
        "latency_p95_s.r1": over_repeats(slice(None, half), 95),
        "latency_p50_s.r2": over_repeats(slice(half, None), 50),
        "latency_p95_s.r2": over_repeats(slice(half, None), 95),
        "max_ok_rate_jps": NUM_JOBS / makespan,
        "ok_frac": 1.0,
        "peak_rss_mb": peak_rss_mb(),
    }


# ------------------------------------------------------ batch workloads
def _fifo_oracle(store: BlockStore, jobs: list) -> dict[str, list]:
    """Outputs of one full FIFO scan per job (untimed)."""
    report = FifoLocalRunner(store).run(jobs)
    check_equal("FIFO oracle logical blocks", report.blocks_read,
                len(jobs) * store.num_blocks)
    return {job_id: result.output for job_id, result in
            report.results.items()}


def _shared_run(runner: SharedScanRunner, jobs: list,
                arrivals: dict[str, int], oracle: dict[str, list],
                expected_blocks: int) -> tuple[float, list[float], Any]:
    """One timed shared scan, checked afterwards.

    Returns the makespan, each job's latency and the run's I/O
    counters; outputs are dropped once checked, so repeats do not
    accumulate them.  The ``on_iteration_end`` hook stamps the end of
    every iteration's map phase.  A job is due when its admission
    iteration starts (at ``run()``, or when the iteration before it
    ended) and has its result when the map phase of the iteration it
    completed in ends; its reduce follows.
    """
    iteration_end: dict[int, float] = {}

    def hook(iteration: int, _states: list) -> None:
        iteration_end[iteration] = time.perf_counter()

    t0 = time.perf_counter()
    report = runner.run(jobs, arrivals, on_iteration_end=hook)
    t1 = time.perf_counter()
    compare_outputs("shared scan", {job_id: result.output for job_id, result
                                    in report.results.items()}, oracle)
    check_equal("shared-scan logical blocks", report.blocks_read,
                expected_blocks)
    latencies = []
    for job in jobs:
        admitted = arrivals.get(job.job_id, 0)
        due = max((end for iteration, end in iteration_end.items()
                   if iteration < admitted), default=t0)
        done = iteration_end[report.results[job.job_id].completed_iteration]
        latencies.append(done - due)
    return t1 - t0, latencies, report.io


def _batch(ctx: Context, *, name: str, make_store: Callable[[Path],
                                                            BlockStore],
           make_jobs: Callable[[], list], arrivals: dict[str, int],
           ) -> Outcome:
    """A shared scan on the process pool, ``nproc`` workers."""
    workers = os.cpu_count() or 1
    setup_tracer = install_probes(LayerTracer()) if ctx.trace else None
    try:
        store, setup_s = build_stores(ctx, name, make_store)
    finally:
        if setup_tracer is not None:
            setup_tracer.close()
    oracle = _fifo_oracle(store, make_jobs())
    expected = expected_shared_scan_blocks(
        store.num_blocks, SEGMENT,
        [arrivals.get(job.job_id, 0) for job in make_jobs()])
    config = ExecutionConfig(map_backend="processes", map_workers=workers)
    runner = SharedScanRunner(store, config)

    def once(tracer: LayerTracer | None = None,
             use: SharedScanRunner = runner) -> tuple[float, list, Any]:
        if tracer is None:
            return _shared_run(use, make_jobs(), arrivals, oracle, expected)
        install_probes(tracer)
        try:
            return _shared_run(use, make_jobs(), arrivals, oracle, expected)
        finally:
            tracer.close()

    if not ctx.trace:
        runs = timed_repeats(ctx, lambda _i: once())
        makespans = [r[0] * k for r, k in runs]
        latencies = [[latency * k for latency in r[1]] for r, k in runs]
        ctx.log(f"{len(runs)} repeats, makespans at reference speed "
                f"{[round(m, 4) for m in makespans]}")
        return Outcome(attempted=NUM_JOBS * len(runs), failed=0,
                       metrics=batch_e2e(setup_s, makespans, latencies))

    # Worker processes cannot be probed from here: reads and kernels are
    # timed on a serial repeat of the same job set.
    tracer = LayerTracer()
    kernel_tracer = LayerTracer()
    serial = SharedScanRunner(store, ExecutionConfig())

    def cycle(_i: int) -> tuple[float, float, Any]:
        untraced = once()[0]
        traced, _, io = once(tracer)
        once(kernel_tracer, serial)
        return untraced, traced, io

    cycles = [c for c, _ in timed_repeats(ctx, cycle, min_repeats=2)]
    tracers = [setup_tracer, tracer, kernel_tracer]
    require_calls(tracers, BATCH_REQUIRED)
    reps = len(cycles)
    run_s = tracer.busy("runners.run") / reps
    metrics = {
        **setup_layers(setup_tracer),
        **scan_layers(tracer, reps, kernel_tracer=kernel_tracer,
                      workers=workers),
        **io_layers(cycles[-1][2], NUM_JOBS * store.num_blocks),
        "runners.iterations": tracer.extra("runners.run", "iterations")
        / reps,
        "runners.run_s": run_s,
        "obs.trace_overhead_frac": overhead_frac(
            [c[1] for c in cycles], [c[0] for c in cycles]),
        "unattributed_s": run_s - (tracer.busy("parallel.wave")
                                   + tracer.busy("reduce")) / reps,
        "layers.failed_calls": sum(t.failures() for t in tracers),
    }
    return Outcome(attempted=NUM_JOBS * reps * 3,
                   failed=0, metrics=metrics)


#: Probes that must record calls on the batch workload.
BATCH_REQUIRED = ("workloads.gen", "storage.create", "runners.run",
                  "parallel.wave", "absorb", "reduce", "storage.read",
                  "kernel")


def run_wordcount_staggered(ctx: Context) -> Outcome:
    size = 256 << 10 if ctx.smoke else WORDCOUNT_BYTES
    block = 16 << 10 if ctx.smoke else WORDCOUNT_BLOCK

    def make_store(directory: Path) -> BlockStore:
        return BlockStore.create(directory, text_lines(ctx.seed, size),
                                 block_size_bytes=block)

    def make_jobs() -> list:
        return [wordcount_job(f"wc{i}", DEFAULT_PATTERNS[i])
                for i in range(NUM_JOBS)]

    return _batch(
        ctx, name="wordcount", make_store=make_store, make_jobs=make_jobs,
        arrivals={f"wc{i}": STAGGER * i for i in range(NUM_JOBS)})


# ------------------------------------------------------ service workload
def release_iterations() -> list[int]:
    """The iteration at which each job of a service repeat is released."""
    half = SERVICE_JOBS // 2
    first = [i * PACE[0] for i in range(half)]
    start = half * PACE[0]
    return first + [start + i * PACE[1] for i in range(SERVICE_JOBS - half)]


@dataclass
class _ServiceRun:
    """One service repeat's tickets, in job order, and its books."""

    tickets: list[Any]
    blocks_read: int
    iterations: int

    @property
    def makespan(self) -> float:
        """From the first release to the last job's end (service clock)."""
        return (max(t.finished_at for t in self.tickets)
                - min(t.submitted_at for t in self.tickets))

    def done(self) -> list[Any]:
        return [t for t in self.tickets if t.status is JobStatus.DONE]

    def latencies(self, jobs: slice) -> list[float]:
        """Release-to-result time of the completed jobs in ``jobs``."""
        return [t.response_s for t in self.tickets[jobs]
                if t.status is JobStatus.DONE]


def _service_run(store: BlockStore, oracle: dict[str, list]) -> _ServiceRun:
    """Start a service, release the jobs, wait for them, check them.

    While the core scans, this thread acts as the operator: it scrapes
    ``/metrics`` and ``/readyz`` every ``SCRAPE_EVERY_S`` and cancels
    the ``CANCEL_EVERY``-th job as soon as the core has released it.
    """
    before = store.logical_blocks_read()
    svc = SchedulerService(store, ServiceConfig()).start()
    ids = [f"job{i}" for i in range(SERVICE_JOBS)]
    victim = ids[CANCEL_EVERY - 1]
    try:
        for i, at in enumerate(release_iterations()):
            svc.submit_at_iteration(
                wordcount_job(ids[i], _pattern(i)), at, tenant="ab"[i % 2])
        cancelled = False
        next_scrape = time.perf_counter()
        while True:
            if not cancelled:
                cancelled = svc.cancel(victim)
            now = time.perf_counter()
            if now >= next_scrape:
                service_http.handle_path(svc, "/metrics")
                code, _, _ = service_http.handle_path(svc, "/readyz")
                if code not in (200, 503):
                    raise CorrectnessError(f"/readyz returned {code}")
                next_scrape = now + SCRAPE_EVERY_S
            tickets = svc.jobs()
            if len(tickets) == SERVICE_JOBS and all(
                    t.status.terminal for t in tickets):
                break
            time.sleep(POLL_S)
        svc.drain(timeout=DRAIN_TIMEOUT_S)
    finally:
        svc.shutdown()
    # Read the books only once the core has stopped: an iteration built
    # before a cancel may still be reading blocks for the cancelled job.
    by_id = {ticket.job_id: ticket for ticket in svc.jobs()}
    run = _ServiceRun([by_id[job_id] for job_id in ids],
                      svc.snapshot()["blocks_read"], svc.iterations)
    check_equal("service logical blocks", run.blocks_read,
                store.logical_blocks_read() - before)
    _check_service(run, oracle, store.num_blocks)
    # Drop the checked outputs, so repeats do not accumulate them.
    run.tickets = [replace(ticket, result=None) for ticket in run.tickets]
    return run


def _pattern(index: int) -> str:
    return DEFAULT_PATTERNS[index % len(DEFAULT_PATTERNS)]


def _check_service(run: _ServiceRun, oracle: dict[str, list],
                   num_blocks: int) -> None:
    """Outputs must match the FIFO oracle; only the victim may cancel."""
    for index, ticket in enumerate(run.tickets):
        if ticket.status is JobStatus.CANCELLED \
                and index == CANCEL_EVERY - 1:
            continue
        check_equal(f"{ticket.job_id} status", ticket.status, JobStatus.DONE)
        check_equal(f"{ticket.job_id} blocks covered",
                    (ticket.covered_blocks, ticket.total_blocks),
                    (num_blocks, num_blocks))
        if canonical(ticket.result.output) != canonical(
                oracle[_pattern(index)]):
            raise CorrectnessError(
                f"service: output of {ticket.job_id} ({_pattern(index)}) "
                "differs from the FIFO oracle")


def _service_e2e(setup_s: float, runs: Sequence[tuple[_ServiceRun, float]],
                 ) -> dict[str, float]:
    """Medians over repeats; percentiles over the jobs of one repeat.

    ``runs`` pairs each repeat with its speed scale.
    """
    half = SERVICE_JOBS // 2

    def over_repeats(jobs: slice, q: int) -> float:
        return statistics.median(percentile(run.latencies(jobs), q) * k
                                 for run, k in runs)

    return {
        "setup_s": setup_s,
        "makespan_s": statistics.median(run.makespan * k for run, k in runs),
        "latency_p50_s.r1": over_repeats(slice(None, half), 50),
        "latency_p95_s.r1": over_repeats(slice(None, half), 95),
        "latency_p50_s.r2": over_repeats(slice(half, None), 50),
        "latency_p95_s.r2": over_repeats(slice(half, None), 95),
        "max_ok_rate_jps": statistics.median(
            len(run.done()) / (run.makespan * k) for run, k in runs),
        "ok_frac": 1.0,
        "peak_rss_mb": peak_rss_mb(),
    }


#: Probes that must record calls on the service workload.
SERVICE_REQUIRED = ("workloads.gen", "storage.create", "s3.build",
                    "parallel.wave", "storage.read", "kernel", "absorb",
                    "reduce", "service.submit", "service.cancel",
                    "http/metrics", "http/readyz")


def run_service_paced(ctx: Context) -> Outcome:
    size = 128 << 10 if ctx.smoke else SERVICE_BYTES
    setup_tracer = install_probes(LayerTracer()) if ctx.trace else None
    try:
        store, setup_s = build_stores(ctx, "service", lambda d: (
            BlockStore.create(d, text_lines(ctx.seed, size),
                              block_size_bytes=SERVICE_BLOCK)))
    finally:
        if setup_tracer is not None:
            setup_tracer.close()
    oracle_jobs = [wordcount_job(f"oracle{i}", pattern)
                   for i, pattern in enumerate(DEFAULT_PATTERNS)]
    oracle = {pattern: output for pattern, output in zip(
        DEFAULT_PATTERNS, _fifo_oracle(store, oracle_jobs).values())}

    if not ctx.trace:
        runs = timed_repeats(ctx, lambda _i: _service_run(store, oracle))
        ctx.log(f"{len(runs)} repeats, makespans at reference speed "
                f"{[round(run.makespan * k, 4) for run, k in runs]}")
        return Outcome(attempted=sum(len(run.done()) for run, _ in runs),
                       failed=0, metrics=_service_e2e(setup_s, runs))

    tracer = LayerTracer()

    def cycle(_i: int) -> tuple[_ServiceRun, _ServiceRun, Any]:
        untraced = _service_run(store, oracle)
        install_probes(tracer)
        try:
            before = store.stats_snapshot()
            traced = _service_run(store, oracle)
            io = store.stats_snapshot().delta(before)
        finally:
            tracer.close()
        return untraced, traced, io

    cycles = [c for c, _ in timed_repeats(ctx, cycle, min_repeats=2)]
    require_calls([setup_tracer, tracer], SERVICE_REQUIRED)
    reps = len(cycles)
    traced = [c[1] for c in cycles]
    tickets = [t for run in traced for t in run.tickets]
    submits = tracer.probes["service.submit"].samples
    decile = max(1, len(submits) // 10)
    waits = [t.wait_s for t in tickets if t.wait_s is not None]
    covered = sum(t.covered_blocks for t in tickets)
    blocks_read = sum(run.blocks_read for run in traced)
    built = tracer.extra("s3.build", "built")
    metrics = {
        **setup_layers(setup_tracer),
        **scan_layers(tracer, reps),
        **io_layers(cycles[-1][2],
                    sum(t.covered_blocks for t in traced[-1].tickets)),
        "s3.build_iteration_us": (tracer.busy("s3.build")
                                  / tracer.calls("s3.build") * 1e6),
        "s3.jobs_per_iteration": tracer.extra("s3.build", "jobs") / built,
        "service.submit_us": statistics.median(submits) * 1e6,
        "service.submit_us.late_over_early": (
            statistics.mean(submits[-decile:])
            / statistics.mean(submits[:decile])),
        "service.admit_wait_s.p50": percentile(waits, 50),
        "service.admit_wait_s.p95": percentile(waits, 95),
        "service.iterations": statistics.mean(run.iterations
                                              for run in traced),
        "service.blocks_read": blocks_read / reps,
        "service.scan_sharing": covered / blocks_read,
        "service.rejected": sum(t.status is JobStatus.REJECTED
                                for t in tickets) / reps,
        "service.cancelled": sum(t.status is JobStatus.CANCELLED
                                 for t in tickets) / reps,
        "service.retained_entries": len(tickets) / reps,
        "obs.scrape_ms": (tracer.busy("http/metrics")
                          / tracer.calls("http/metrics") * 1e3),
        "obs.readyz_ms": (tracer.busy("http/readyz")
                          / tracer.calls("http/readyz") * 1e3),
        "obs.trace_overhead_frac": overhead_frac(
            [run.makespan for run in traced],
            [c[0].makespan for c in cycles]),
        "unattributed_s": statistics.mean(run.makespan for run in traced)
        - (tracer.busy("s3.build") + tracer.busy("parallel.wave")
           + tracer.busy("reduce")) / reps,
        "layers.failed_calls": setup_tracer.failures() + tracer.failures(),
    }
    return Outcome(attempted=sum(len(c[0].done()) + len(c[1].done())
                                 for c in cycles),
                   failed=0, metrics=metrics)


# -------------------------------------------------------- sim workload
def _sim_setup() -> None:
    """Build both panels' inputs and a simulator loaded with them."""
    specs = panel_specs()
    for panel in PANELS:
        spec = specs[panel]
        driver = SimulationDriver(
            S3Scheduler(), cluster_config=paper_cluster_config(),
            dfs_config=paper_dfs_config(spec.block_size_mb),
            cost_model=paper_cost_model())
        driver.register_file(spec.file_name, spec.file_size_mb)
        driver.submit_all(spec.jobs_factory(), spec.arrivals_factory())


def _sim_pass(panels: Sequence[str]) -> dict[str, float]:
    """Run the panels once; returns each panel's wall time."""
    walls = {}
    for panel in panels:
        t0 = time.perf_counter()
        result = run_panel(panel)
        walls[panel] = time.perf_counter() - t0
        check_sim_panel(panel, result.metrics)
    return walls


def _sim_unit(panel: str, index: int) -> float:
    """Scheduler ``index`` of a panel, run as ``run_panel`` runs it.

    Returns its wall time; its TET/ART must equal the pinned values.
    """
    spec = panel_specs()[panel]
    t0 = time.perf_counter()
    metrics, _ = sim_base.run_scheduler(
        scheduler_factories()[index](), spec.jobs_factory(),
        spec.arrivals_factory(), file_name=spec.file_name,
        file_size_mb=spec.file_size_mb,
        dfs_config=paper_dfs_config(spec.block_size_mb))
    wall = time.perf_counter() - t0
    check_equal(f"fig{panel} {metrics.scheduler} TET/ART",
                (metrics.tet, metrics.art),
                SIM_PINNED[panel][metrics.scheduler])
    return wall


def run_sim_fig4(ctx: Context) -> Outcome:
    """Figure 4 panels 4a and 4e, all five schedulers.

    Timed scheduler by scheduler as ``run_panel`` runs them; the traced
    run calls ``run_panel`` itself.  The panels are the paper's fixed
    configurations, so the seed does not change the inputs; their
    TET/ART are pinned exactly.
    """
    panels = PANELS[:1] if ctx.smoke else PANELS
    jobs_per_pass = len(panels) * 5 * len(panel_specs()["4a"].jobs_factory())
    if not ctx.trace:
        # One unit is one scheduler of one panel, in turn, so the ten
        # (panel, scheduler) pairs each sample the whole run: a whole
        # panel takes 3-7 s, the host's speed drifts over seconds, and
        # medians of two or three panel runs spread by 0.3-0.44 between
        # runs.  A panel's time is the sum of its schedulers' times,
        # each scaled by the reference kernel timed around it.
        pairs = [(panel, index) for panel in panels
                 for index in range(len(SIM_SCHEDULERS))]

        def unit(i: int) -> tuple[tuple[str, int], float, list[float]]:
            setups = []
            for _ in range(SIM_SETUPS):
                t0 = time.perf_counter()
                _sim_setup()
                setups.append(time.perf_counter() - t0)
            pair = pairs[i % len(pairs)]
            return pair, _sim_unit(*pair), setups

        units = timed_repeats(ctx, unit, min_repeats=len(pairs),
                              period=len(pairs))
        walls = {pair: [wall * k for (done, wall, _), k in units
                        if done == pair]
                 for pair in pairs}
        setups = [t * k for (_, _, times), k in units for t in times]

        def panel_s(panel: str, q: int) -> float:
            return sum(percentile(walls[(panel, index)], q)
                       for index in range(len(SIM_SCHEDULERS)))

        ctx.log(f"{len(units)} scheduler runs at reference speed: panel 4a "
                f"{panel_s(panels[0], 50):.4f} s, last panel "
                f"{panel_s(panels[-1], 50):.4f} s")
        makespan = sum(panel_s(panel, 50) for panel in panels)
        metrics = {
            "setup_s": statistics.median(setups),
            "makespan_s": makespan,
            "latency_p50_s.r1": panel_s(panels[0], 50),
            "latency_p95_s.r1": panel_s(panels[0], 95),
            "latency_p50_s.r2": panel_s(panels[-1], 50),
            "latency_p95_s.r2": panel_s(panels[-1], 95),
            "max_ok_rate_jps": jobs_per_pass / makespan,
            "ok_frac": 1.0,
            "peak_rss_mb": peak_rss_mb(),
        }
        return Outcome(attempted=jobs_per_pass // len(pairs) * len(units),
                       failed=0, metrics=metrics)

    untraced = sum(_sim_pass(panels).values())
    tracer = install_probes(LayerTracer())
    try:
        traced = sum(_sim_pass(panels).values())
    finally:
        tracer.close()
    require_calls([tracer], (*(f"sim.run.{name}" for name in SIM_SCHEDULERS),
                             "cluster.free_slot", "tracelog.record",
                             "s3.build"))
    metrics = {}
    run_total = 0.0
    for name in SIM_SCHEDULERS:
        probe = f"sim.run.{name}"
        events = tracer.extra(probe, "events")
        busy = tracer.busy(probe)
        run_total += busy
        metrics[f"sim.events.{name}"] = events
        metrics[f"sim.run_s.{name}"] = busy
        metrics[f"sim.events_per_s.{name}"] = events / busy
    built = tracer.extra("s3.build", "built")
    metrics.update({
        "cluster.free_slot_calls": tracer.calls("cluster.free_slot"),
        "cluster.free_slot_s": tracer.busy("cluster.free_slot"),
        "tracelog.records": tracer.calls("tracelog.record"),
        "tracelog.record_s": tracer.busy("tracelog.record"),
        "s3.build_iteration_us": (tracer.busy("s3.build")
                                  / tracer.calls("s3.build") * 1e6),
        "s3.jobs_per_iteration": tracer.extra("s3.build", "jobs") / built,
        "obs.trace_overhead_frac": overhead_frac([traced], [untraced]),
        "unattributed_s": run_total - (
            tracer.busy("cluster.free_slot") + tracer.busy("tracelog.record")
            + tracer.busy("s3.build")),
        "layers.failed_calls": tracer.failures(),
    })
    return Outcome(attempted=jobs_per_pass * 2, failed=0, metrics=metrics)


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "wordcount-staggered": run_wordcount_staggered,
    "service-paced": run_service_paced,
    "sim-fig4": run_sim_fig4,
}
