"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints every
end-to-end metric of ``BENCHMARK.json`` with its unit, that a traced run
prints every per-layer metric with its unit, and that a run told to
corrupt one result reports it as a failed operation (not a dropped one)
and exits non-zero. It also checks that the benchmark refuses to run,
without printing a result, when the program's source is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 170


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [
        *SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
        "--size", "tiny", *extra,
    ]
    if "--trace" not in extra:
        cmd += ["--trace", "0"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and set(result) != {"correct", "attempted", "failed", "metrics"}:
        result = None
    return proc.returncode, result


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_metrics(result: dict, specs: list[dict], what: str) -> None:
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    expect(set(got) == set(want), f"{what}: metric names {sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        expect(got[name]["unit"] == unit, f"{what}: {name} unit {got[name]['unit']!r}")
        expect(isinstance(got[name]["value"], float), f"{what}: {name} value")


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        code, res = run(name)
        expect(code == 0 and res is not None and res["correct"], f"{name}: clean run")
        expect(res["failed"] == 0 and res["attempted"] >= 1, f"{name}: counts {res}")
        check_metrics(res, SPEC["end_to_end"], f"{name} --trace 0")
        expect(res["metrics"]["ok_frac"]["value"] == 1.0, f"{name}: ok_frac")

        code, traced = run(name, "--trace", "1")
        expect(code == 0 and traced is not None and traced["correct"], f"{name}: traced")
        check_metrics(traced, SPEC["per_layer"], f"{name} --trace 1")

        code, bad = run(name, "--corrupt", "1")
        expect(code == 1 and bad is not None, f"{name}: corrupted run must exit 1")
        expect(not bad["correct"] and bad["failed"] == 1, f"{name}: corrupted {bad}")
        expect(bad["metrics"]["ok_frac"]["value"] < 1.0, f"{name}: corrupted ok_frac")
        print(f"ok  {name}: {res['attempted']} ops clean, 1 corrupted result counted failed")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        code, res = run(SPEC["workloads"][0]["name"], cwd=bare)
        expect(code != 0 and res is None, "bare directory: must fail without a result")
    print("ok  bare directory: refused without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
