"""Characterization pin of the simulator's Figure 4 results.

Every scheduler on every Figure 4 panel (4a–4f) must reproduce its
TET/ART and its processed-event count exactly, and the Chrome export of
panel 4a's S3 run must hash to the same bytes.  The values were recorded
before the simulator's hot path (free-slot index, trace record path,
event heap) was reworked; any change to what the simulation does — not
merely how fast it does it — shows up here.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.experiments.base import run_scheduler
from repro.experiments.fig4 import panel_specs, scheduler_factories
from repro.experiments.paperconfig import paper_dfs_config
from repro.obs.export import export_chrome

#: (TET, ART, events_processed) per panel and scheduler.
PINNED: dict[str, dict[str, tuple[float, float, int]]] = {
    "4a": {
        "FIFO": (2715.9999999999873, 1214.4000000000037, 26590),
        "MRS1": (957.9727999999972, 665.972799999997, 2677),
        "MRS2": (955.6656000000003, 487.40383999999966, 5334),
        "MRS3": (1015.8639999999994, 461.0495999999991, 7991),
        "S3": (919.3647999999996, 347.4731849999994, 12822),
    },
    "4b": {
        "FIFO": (2715.9999999999873, 1497.4000000000037, 26586),
        "MRS1": (395.97280000000046, 386.97280000000046, 2677),
        "MRS2": (645.6656000000015, 460.40384000000097, 5334),
        "MRS3": (899.8639999999998, 628.0495999999994, 7990),
        "S3": (413.7268000000005, 394.76437000000044, 5052),
    },
    "4c": {
        "FIFO": (3620.000000000038, 1729.6000000000054, 26590),
        "MRS1": (1585.679999999999, 1293.6799999999987, 2677),
        "MRS2": (1518.1599999999994, 955.344000000001, 5334),
        "MRS3": (1628.2399999999998, 896.5120000000003, 7991),
        "S3": (1185.020000000001, 642.2520000000004, 9714),
    },
    "4d": {
        "FIFO": (2332.0000000000023, 1003.2000000000035, 13470),
        "MRS1": (919.5727999999993, 627.5727999999992, 1365),
        "MRS2": (878.865599999999, 433.6438399999993, 2710),
        "MRS3": (900.6639999999994, 380.4095999999996, 4055),
        "S3": (854.6359999999999, 281.24913999999956, 7420),
    },
    "4e": {
        "FIFO": (3483.9999999999286, 1636.7999999999918, 52830),
        "MRS1": (1034.7728, 742.7727999999998, 5301),
        "MRS2": (1109.2655999999974, 594.9238399999965, 10582),
        "MRS3": (1246.263999999992, 622.3295999999958, 15863),
        "S3": (1050.2389999999998, 481.9407024999995, 21110),
    },
    "4f": {
        "FIFO": (5955.999999999827, 2999.999999999942, 65950),
        "MRS1": (1560.8, 1268.7999999999997, 6613),
        "MRS2": (1817.5999999999976, 1121.4400000000023, 13206),
        "MRS3": (2177.5999999999917, 1271.679999999996, 19799),
        "S3": (1476.1500000000005, 918.8774999999998, 20148),
    },
}

#: sha256 of the Chrome trace export of panel 4a's S3 run.
CHROME_4A_S3_SHA256 = (
    "9ae784c22d43f00a1952c66571b1de44c7c186f7bd8b9d1169511cee41d41d25")


@pytest.fixture(scope="module")
def runs():
    """Every (panel, scheduler) run, as ``run_panel`` runs it.

    Returns ``{panel: {scheduler: (tet, art, events)}}`` plus the Chrome
    export of panel 4a's S3 run under the key ``"chrome_4a_s3"``.
    """
    out: dict[str, object] = {}
    for panel, spec in panel_specs().items():
        got: dict[str, tuple[float, float, int]] = {}
        for factory in scheduler_factories():
            metrics, result = run_scheduler(
                factory(), spec.jobs_factory(), spec.arrivals_factory(),
                file_name=spec.file_name, file_size_mb=spec.file_size_mb,
                dfs_config=paper_dfs_config(spec.block_size_mb))
            got[metrics.scheduler] = (metrics.tet, metrics.art,
                                      result.events_processed)
            if panel == "4a" and metrics.scheduler == "S3":
                handle = io.StringIO()
                export_chrome(handle, [result.trace.tracer])
                out["chrome_4a_s3"] = handle.getvalue()
        out[panel] = got
    return out


@pytest.mark.parametrize("panel", sorted(PINNED))
def test_panel_tet_art_and_events_are_pinned(runs, panel):
    assert runs[panel] == PINNED[panel]


def test_chrome_export_of_4a_s3_is_pinned(runs):
    digest = hashlib.sha256(runs["chrome_4a_s3"].encode()).hexdigest()
    assert digest == CHROME_4A_S3_SHA256
