"""Self-test of the end-to-end benchmark.

Run from the repository root::

    python3 e2ebench/selftest.py

It checks that

* ``BENCHMARK.json`` keeps to the format limits;
* a smoke-size run of every workload, untraced and traced, prints every
  metric ``BENCHMARK.json`` names, with its unit, on its last line;
* a corrupted output (one job missing one key) fails the correctness
  gate: the command exits non-zero and prints no result;
* a layer whose call site moved (its probe records no calls) fails the
  traced run;
* the command fails, without a result, where the program's source is
  missing.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"SELFTEST FAILED: {message}")


def check_manifest() -> dict:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(list(manifest) == ["command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"],
          "BENCHMARK.json keys")
    check(1 <= manifest["run_seconds"] <= 60, "run_seconds range")
    check(2 <= len(manifest["workloads"]) <= 8, "2 to 8 workloads")
    names = [w["name"] for w in manifest["workloads"]]
    for workload in manifest["workloads"]:
        check(len(workload["why"]) <= 200 and "\n" not in workload["why"],
              f"why of {workload['name']} is one line of <= 200 chars")
    for metric in manifest["end_to_end"]:
        check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"]
                                       for m in manifest["end_to_end"]),
          "setup_s is in seconds, lower is better, with the largest bound")
    metrics = manifest["end_to_end"] + manifest["per_layer"]
    names += [m["name"] for m in metrics]
    check(len(names) == len(set(names)), "every name is used once")
    for name in names:
        check(NAME.fullmatch(name) is not None, f"name {name!r}")
    for metric in metrics:
        check(UNIT.fullmatch(metric["unit"]) is not None,
              f"unit {metric['unit']!r}")
        check(metric["better"] in ("lower", "higher"),
              f"direction of {metric['name']}")
    check(len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 << 10,
          "BENCHMARK.json size")
    return manifest


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_smoke_runs(manifest: dict) -> None:
    for workload in (w["name"] for w in manifest["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "1", "--trace",
                 str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            check(proc.returncode == 0,
                  f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = last_json(proc.stdout)
            check(set(result) == RESULT_KEYS, f"{label}: result keys")
            check(result["correct"] is True, f"{label}: correct")
            check(isinstance(result["attempted"], int)
                  and result["attempted"] >= 1, f"{label}: attempted")
            check(isinstance(result["failed"], int), f"{label}: failed")
            want = {m["name"]: m["unit"] for m in manifest[section]}
            got = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
            check(got == want, f"{label}: metric names/units differ: "
                  f"{set(got) ^ set(want)}")
            for name, metric in result["metrics"].items():
                check(isinstance(metric["value"], (int, float)),
                      f"{label}: {name} is a number")
            print(f"ok: {label} ({len(got)} metrics)", flush=True)


def run_in_process(argv: list[str]) -> tuple[int, str]:
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    return code, out.getvalue()


def check_corrupted_output_fails() -> None:
    """Drop one key from one job's shared-scan output."""
    from repro.localrt import SharedScanRunner

    original = SharedScanRunner.run

    def corrupted(self, jobs, *args, **kwargs):  # type: ignore[no-untyped-def]
        report = original(self, jobs, *args, **kwargs)
        victim = report.results[jobs[-1].job_id]
        victim.output.pop(0)
        return report

    SharedScanRunner.run = corrupted  # type: ignore[method-assign]
    try:
        code, stdout = run_in_process(
            ["--workload", "wordcount-staggered", "--seed", "3",
             "--seconds", "1", "--smoke"])
        check(code == 1, f"corrupted output exited {code}, not 1")
        check('"correct"' not in stdout, "corrupted output printed a result")
        print("ok: a corrupted output fails the gate", flush=True)
    finally:
        SharedScanRunner.run = original  # type: ignore[method-assign]


def check_moved_call_site_fails() -> None:
    """A kernel reached through another name leaves its probe at zero."""
    import repro.localrt.parallel as parallel
    import workloads

    original_install = workloads.install_probes
    kernel = parallel.collect_map_outputs

    def install_then_bypass(tracer):  # type: ignore[no-untyped-def]
        tracer = original_install(tracer)
        parallel.collect_map_outputs = kernel
        return tracer

    workloads.install_probes = install_then_bypass
    try:
        code, stdout = run_in_process(
            ["--workload", "wordcount-staggered", "--seed", "3", "--seconds",
             "1", "--smoke", "--trace", "1"])
    finally:
        workloads.install_probes = original_install
        parallel.collect_map_outputs = kernel
    check(code == 3, f"traced run with a silent layer exited {code}, not 3")
    check('"correct"' not in stdout, "silent layer printed a result")
    print("ok: a layer with zero calls fails the traced run", flush=True)


def check_bare_directory_fails() -> None:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "wordcount-staggered", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            work.rmdir()
    check(proc.returncode != 0, "run without the program exited 0")
    check('"correct"' not in proc.stdout, "run without the program printed "
          "a result")
    print("ok: without the program source the command fails", flush=True)


def main() -> int:
    manifest = check_manifest()
    print("ok: BENCHMARK.json keeps to the format", flush=True)
    check_bare_directory_fails()
    check_corrupted_output_fails()
    check_moved_call_site_fails()
    check_smoke_runs(manifest)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
