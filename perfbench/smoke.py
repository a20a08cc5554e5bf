"""Short self-test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload for one second untraced and once traced.  It checks
that every metric BENCHMARK.json names is emitted with its unit, that no
op failed (the reference checks and the traced composition checks for
frontend bits, the DSE chain and the flow history all count as ops), and
that the report line carries the metrics README.md names per workload.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REPORTED = {
    "stream_long": ("fixed_rt_factor", "float_rt_factor"),
    "clips_short": ("fixed_rt_factor", "float_rt_factor", "chunk_p50_ms", "chunk_p90_ms"),
    "dse_bundled": ("dse_run_s",),
    "flow_checkpointed": ("flow_records_per_s", "resume_ms"),
}
EVERYWHERE = ("setup_s", "peak_rss_mb", "error_rate", "op_p50_ms", "work_per_s")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check(spec: dict, workload: str, trace: int) -> list[str]:
    report, result = run(workload, trace)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"failed ops: {report['failures']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']}: {got}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if not trace:
        for name in (*EVERYWHERE, *REPORTED[workload]):
            d = report["detail"].get(name)
            if d is None or "unit" not in d or d.get("samples", 0) < 1:
                problems.append(f"report metric {name}: {d}")
        if report["detail"]["error_rate"]["value"] != 0:
            problems.append("error_rate is not 0")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check(spec, w["name"], trace)
    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
