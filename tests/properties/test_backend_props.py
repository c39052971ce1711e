"""Property-based equivalence of the map execution backends.

The backend knob (``serial`` / ``threads`` / ``processes``) is an
execution-strategy change, never a semantics change: for any corpus, any
segment size and any admission schedule, all three backends must produce
**byte-identical** part files and identical counters.  The serial absorb
step (in-block-order merge) is what makes this hold even though workers
race; these properties pin it down.
"""

import hashlib
import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import ExecutionConfig
from repro.localrt.jobs import wordcount_job
from repro.localrt.output import write_output
from repro.localrt.parallel import BACKEND_NAMES
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore

WORDS = ["the", "thing", "running", "eating", "apple", "orange",
         "motion", "nation", "sad", "sunny"]
PATTERNS = ["^th.*", ".*ing$", "^[aeiou].*", ".*tion$"]

corpora = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join),
    min_size=4, max_size=20)
schedules = st.lists(st.integers(0, 4), min_size=1, max_size=3)


def _digest(directory: pathlib.Path) -> dict[str, str]:
    """Byte-level fingerprint of every part file in ``directory``."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.glob("part-*"))}


@given(corpus=corpora, seg=st.integers(1, 4), arrivals=schedules,
       block_size=st.integers(20, 120))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_all_backends_byte_identical(tmp_path_factory, corpus, seg, arrivals,
                                     block_size):
    directory = tmp_path_factory.mktemp("backend-corpus")
    store = BlockStore.create(directory, corpus, block_size_bytes=block_size)

    def jobs():
        return [wordcount_job(f"w{i}", PATTERNS[i % len(PATTERNS)])
                for i in range(len(arrivals))]

    arrival_map = {f"w{i}": a for i, a in enumerate(arrivals)}
    digests: dict[str, dict[str, dict[str, str]]] = {}
    counters: dict[str, list] = {}
    io: dict[str, tuple] = {}
    for backend in BACKEND_NAMES:
        with SharedScanRunner(
                store, ExecutionConfig(blocks_per_segment=seg,
                                       map_backend=backend,
                                       map_workers=2)) as runner:
            report = runner.run(jobs(), arrival_iterations=arrival_map)
        per_job: dict[str, dict[str, str]] = {}
        for job_id, result in report.results.items():
            out_dir = tmp_path_factory.mktemp(f"out-{backend}-{job_id}")
            write_output(result, out_dir)
            per_job[job_id] = _digest(out_dir)
        digests[backend] = per_job
        counters[backend] = [list(report.results[j].counters)
                             for j in sorted(report.results)]
        io[backend] = (report.blocks_read, report.bytes_read,
                       report.iterations)
    serial = digests["serial"]
    for backend in BACKEND_NAMES[1:]:
        assert digests[backend] == serial, \
            f"{backend} part files diverge from serial"
        assert counters[backend] == counters["serial"]
        assert io[backend] == io["serial"]
