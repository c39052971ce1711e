"""End-to-end benchmark of the shared-scan system.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload wordcount-staggered --seed 1 \\
        --seconds 30 --trace 0

runs one workload for about ``--seconds`` seconds, checks every output
against its oracle and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, their times scaled to
a reference host speed (``hostspeed.py``), with ``--trace 1`` the
per-layer ones, with the names and units ``BENCHMARK.json`` at the
repository root lists (see ``README.md``).  A failed correctness check,
or a traced layer that recorded no calls, exits non-zero without
printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))


def load_manifest() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = root / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            packed = (root / ".git" / "packed-refs").read_text()
            for line in packed.splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git repository)"


def host_facts(seed: int) -> dict[str, object]:
    import numpy

    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": git_commit(ROOT),
    }


def parse_args(argv: list[str], manifest: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[
        workload["name"] for workload in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs (for the self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    manifest = load_manifest()
    args = parse_args(argv, manifest)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from checks import CorrectnessError
    from hostspeed import KernelTimer
    from probes import AttributionError
    import workloads

    def log(message: str) -> None:
        print(f"[{args.workload}] {message}", flush=True)

    facts = host_facts(args.seed)
    log(f"host: {json.dumps(facts)}")
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    timer = KernelTimer(os.cpu_count() or 1)
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), smoke=args.smoke,
                            workdir=workdir, log=log, speed=timer.seconds)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except CorrectnessError as exc:
        print(f"CORRECTNESS FAILURE [{args.workload}]: {exc}",
              file=sys.stderr)
        return 1
    except AttributionError as exc:
        print(f"ATTRIBUTION FAILURE [{args.workload}]: {exc}",
              file=sys.stderr)
        return 3
    finally:
        timer.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    section = manifest["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    # Layers this workload does not run report 0.
    values = {name: 0.0 for name in units} if args.trace else {}
    unknown = set(outcome.metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: "
                       f"{sorted(unknown)}")
    values.update(outcome.metrics)
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"workload did not report: {sorted(missing)}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}
    for name, metric in metrics.items():
        log(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"host": facts, "workload": args.workload,
                      "trace": args.trace}))
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
