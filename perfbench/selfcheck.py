"""Self-check of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It checks that
  * every workload, at the tiny size, prints exactly the metrics that
    BENCHMARK.json names, untraced and traced, with no failed op;
  * a perturbed reference value makes the default-seed run report
    failed > 0 and exit nonzero;
  * the benchmark exits nonzero without printing a result in a directory
    that holds only BENCHMARK.json and the benchmark's own files.
Exit code 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work" / "selfcheck"


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, proc = run(
                ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            )
            label = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}: {proc.stderr.strip()[-300:]}")
            elif set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            elif set(result["metrics"]) != names[trace]:
                problems.append(f"{label}: metrics differ: {sorted(set(result['metrics']) ^ names[trace])}")
            elif not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            print(f"{'ok' if not problems or not problems[-1].startswith(label) else 'FAIL'}  {label}")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
        ops = reference["workloads"]["oracle-exact"]
        first = sorted(ops)[0]
        ops[first]["min"] *= 1.0 + 1e-6
        perturbed = WORK / "reference.json"
        perturbed.write_text(json.dumps(reference), encoding="utf-8")
        code, result, _ = run(["--workload", "oracle-exact", "--seed", "0", "--seconds", "1",
                               "--trace", "0", "--reference", str(perturbed)])
        ok = code != 0 and result is not None and result["failed"] > 0 and not result["correct"]
        if not ok:
            problems.append(f"perturbed reference: exit {code}, result {result and result.get('failed')}")
        print(f"{'ok' if ok else 'FAIL'}  perturbed reference makes the run fail")

        bare = WORK / "bare"
        bare.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(["--workload", "census-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare)
        ok = code != 0 and result is None
        if not ok:
            problems.append(f"bare directory: exit {code}, printed a result: {result is not None}")
        print(f"{'ok' if ok else 'FAIL'}  no result and a nonzero exit without the package source")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
