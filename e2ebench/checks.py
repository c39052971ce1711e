"""The benchmark's correctness gate.

Every timed run is checked after the fact, outside the timed section:

* job outputs must be byte-identical, after sorting, to an oracle run of
  :class:`~repro.localrt.FifoLocalRunner` — one full scan per job, which
  shares no scan loop with the S3 code under test;
* logical blocks read must equal their exact expected count, computed
  here from the paper's circular segment scan, not read back from the
  runner;
* simulated TET and ART must equal pinned values exactly.

Any mismatch raises :class:`CorrectnessError`; the command then exits
non-zero and records no metrics.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


class CorrectnessError(RuntimeError):
    """A benchmark output differs from its oracle."""


def canonical(output: Sequence[Any]) -> bytes:
    """A job output as bytes, independent of record order."""
    return "\n".join(sorted(repr(record) for record in output)).encode()


def compare_outputs(label: str, got: Mapping[str, Sequence[Any]],
                    want: Mapping[str, Sequence[Any]]) -> None:
    """Outputs per job id must match the oracle's byte for byte."""
    if set(got) != set(want):
        raise CorrectnessError(
            f"{label}: job ids differ from the oracle: missing "
            f"{sorted(set(want) - set(got))}, extra "
            f"{sorted(set(got) - set(want))}")
    for job_id in sorted(want):
        if canonical(got[job_id]) != canonical(want[job_id]):
            raise CorrectnessError(
                f"{label}: output of {job_id} differs from the FIFO oracle "
                f"({len(got[job_id])} records, oracle "
                f"{len(want[job_id])})")


def check_equal(label: str, got: object, want: object) -> None:
    if got != want:
        raise CorrectnessError(f"{label}: got {got!r}, expected {want!r}")


def expected_shared_scan_blocks(num_blocks: int, segment: int,
                                arrivals: Sequence[int]) -> int:
    """Logical blocks an S3 shared scan reads for a set of jobs.

    ``arrivals`` holds each job's admission iteration.  Each iteration
    reads the next segment of the circular file — cut short at the end
    of the file and at the largest remaining need of the admitted jobs —
    and every admitted job needs one full pass over the file.
    """
    pending = sorted(arrivals)
    remaining: list[int] = []
    pointer = iteration = total = 0
    while pending or remaining:
        if not remaining and pending[0] > iteration:
            iteration = pending[0]
        while pending and pending[0] == iteration:
            pending.pop(0)
            remaining.append(num_blocks)
        chunk = min(segment, num_blocks - pointer, max(remaining))
        total += chunk
        remaining = [need - chunk for need in remaining if need > chunk]
        pointer = (pointer + chunk) % num_blocks
        iteration += 1
    return total


#: Figure 4 TET and ART (simulated seconds) per panel and scheduler.
#: The simulator is deterministic, so these must repeat exactly.
SIM_PINNED: dict[str, dict[str, tuple[float, float]]] = {
    "4a": {
        "FIFO": (2715.9999999999873, 1214.4000000000037),
        "MRS1": (957.9727999999972, 665.972799999997),
        "MRS2": (955.6656000000003, 487.40383999999966),
        "MRS3": (1015.8639999999994, 461.0495999999991),
        "S3": (919.3647999999996, 347.4731849999994),
    },
    "4e": {
        "FIFO": (3483.9999999999286, 1636.7999999999918),
        "MRS1": (1034.7728, 742.7727999999998),
        "MRS2": (1109.2655999999974, 594.9238399999965),
        "MRS3": (1246.263999999992, 622.3295999999958),
        "S3": (1050.2389999999998, 481.9407024999995),
    },
}


def check_sim_panel(panel: str, metrics: Sequence[Any]) -> None:
    """Each scheduler's TET and ART must equal the pinned values."""
    got = {m.scheduler: (m.tet, m.art) for m in metrics}
    check_equal(f"fig{panel} TET/ART", got, SIM_PINNED[panel])
