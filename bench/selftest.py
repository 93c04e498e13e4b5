"""Self-test of the benchmark's golden check: a short default-seed run
passes with the committed digests and fails once one digest is perturbed.

Run from the repository root:

    python3 bench/selftest.py

Exits 0 when both outcomes are as expected.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "labeled-corpus"  # the quickest workload to run once


def run_with(golden: Path) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "1", "--trace", "0", "--golden", str(golden)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    committed = ROOT / "bench" / "golden.json"
    golden = json.loads(committed.read_text(encoding="utf-8"))
    digest = golden[WORKLOAD]["records"]
    golden[WORKLOAD]["records"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    perturbed = ROOT / ".bench_work" / "perturbed-golden.json"
    perturbed.parent.mkdir(exist_ok=True)
    perturbed.write_text(json.dumps(golden), encoding="utf-8")
    try:
        rc_ok, ok = run_with(committed)
        rc_bad, bad = run_with(perturbed)
    finally:
        perturbed.unlink()
    passed = (rc_ok == 0 and ok["correct"] and ok["failed"] == 0
              and rc_bad != 0 and not bad["correct"] and bad["failed"] == 1)
    print(f"committed digests: exit {rc_ok}, correct={ok['correct']}, failed={ok['failed']}")
    print(f"perturbed digest:  exit {rc_bad}, correct={bad['correct']}, failed={bad['failed']}")
    print("selftest", "passed" if passed else "FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
