"""One benchmark process: import kwsflow, build inputs, run one workload.

Started by run.py in a fresh interpreter.  Prints one ``{"ready": ...}``
line once set-up is done (run.py times set-up from process start to that
line) and, unless ``--setup-only`` is given, one result line at the end.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import kwsflow  # noqa: E402  (timed: this import is part of set-up)

T_IMPORTED = time.perf_counter()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from hostspeed import Calibration  # noqa: E402

WORKLOADS = ("stream_long", "clips_short", "dse_bundled", "flow_checkpointed")
MIN_FIXED_CHUNKS = 100


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


# ---------------------------------------------------------------------------
# operations; each returns (failure reason or None, record) and times only
# the program's calls
# ---------------------------------------------------------------------------

def pipeline_call(buffer_samples, sample_rate, cfg, ref, input_ok):
    buf = kwsflow.SignalBuffer(buffer_samples.copy(), sample_rate)
    t0 = time.perf_counter()
    res = kwsflow.mfcc_pipeline(buf, cfg)
    dt = time.perf_counter() - t0
    why = None if input_ok else "input differs from the recorded pool entry"
    why = why or wl.check_pipeline(res, ref, cfg.mode)
    return why, dt, res


def stream_op(inputs: dict, refs: dict, k: int) -> tuple[str | None, dict]:
    calls = []
    why_all = None
    for name in ("chosen", "wide"):
        entries = inputs[name]["entries"]
        for j, mode in enumerate(wl.MODES):
            i, x, ok = entries[(2 * k + j) % len(entries)]
            cfg = inputs[name]["cfg"][mode]
            why, dt, _ = pipeline_call(x, cfg.sample_rate, cfg,
                                       refs["stream_long"][name][i][mode], ok)
            why_all = why_all or (why and f"{name}/{mode} entry {i}: {why}")
            calls.append({"config": name, "mode": mode, "s": dt,
                          "audio_s": len(x) / cfg.sample_rate})
    return why_all, {"calls": calls, "s": sum(c["s"] for c in calls)}


def clip_op(inputs: dict, refs: dict, k: int) -> tuple[str | None, dict]:
    entries = inputs["entries"]
    i, x, ok = entries[(k // 2) % len(entries)]
    mode = wl.MODES[k % 2]
    cfg = inputs["cfg"][mode]
    why, dt, _ = pipeline_call(x, cfg.sample_rate, cfg, refs["clips_short"][i][mode], ok)
    return why and f"{mode} chunk {i}: {why}", {"config": "chosen", "mode": mode, "s": dt,
                                                "audio_s": len(x) / cfg.sample_rate}


def dse_op(inputs, refs: dict, k: int) -> tuple[str | None, dict]:
    t0 = time.perf_counter()
    report = kwsflow.run_dse()
    dt = time.perf_counter() - t0
    return wl.same_report(json.loads(report.to_json()), refs["dse_bundled"]), {"s": dt}


def flow_op(inputs: list[dict], refs, k: int, first_use: set) -> tuple[str | None, dict]:
    v = inputs[k % len(inputs)]
    ck = v["checkpoint"]
    ck.unlink(missing_ok=True)
    t0 = time.perf_counter()
    kwsflow.run_flow(v["config"], checkpoint_path=ck, stop_after=v["stop_after"])
    t1 = time.perf_counter()
    result = kwsflow.resume_flow(v["config"], ck)
    t2 = time.perf_counter()
    text = result.to_json()
    why = None if v["input_ok"] else "input differs from the recorded pool entry"
    if not why and wl.text_digest(text) != v["digest"]:
        why = "resumed FlowResult differs from the recorded digest"
    if not why and v["index"] not in first_use:
        # once per variant, outside the timed region: the uninterrupted run
        first_use.add(v["index"])
        if kwsflow.run_flow(v["config"]).to_json() != text:
            why = "resumed FlowResult differs from the uninterrupted run"
    why = why and f"variant {v['index']}: {why}"
    return why, {"s": t2 - t0, "resume_s": t2 - t1, "records": len(result.history)}


def make_op(workload: str, inputs, refs: dict):
    if workload == "stream_long":
        return lambda k: stream_op(inputs, refs, k)
    if workload == "clips_short":
        return lambda k: clip_op(inputs, refs, k)
    if workload == "dse_bundled":
        return lambda k: dse_op(inputs, refs, k)
    first_use: set = set()
    return lambda k: flow_op(inputs, refs, k, first_use)


# ---------------------------------------------------------------------------
# closed loop and metrics
# ---------------------------------------------------------------------------

def closed_loop(workload: str, op, seconds: float,
                cal: Calibration) -> tuple[list[dict], list[str], int]:
    """Run ops back to back for `seconds`; the first op is an untimed warm-up.

    The calibration kernel runs between ops, at most once per interval.
    """
    records, failures = [], []
    warm = 2 if workload == "clips_short" else 1  # one call per mode

    def attempt(k: int) -> dict | None:
        try:
            why, rec = op(k)
        except Exception as exc:  # an op that raises counts as failed
            failures.append(f"op {k}: {type(exc).__name__}: {exc}")
            return None
        if why:
            failures.append(f"op {k}: {why}")
        return rec

    for k in range(warm):
        attempt(k)
    t_end = time.perf_counter() + seconds
    k = warm
    fixed = 0
    while time.perf_counter() < t_end or (workload == "clips_short" and fixed < MIN_FIXED_CHUNKS):
        cal.maybe_sample()
        rec = attempt(k)
        if rec is not None:
            records.append(rec)
            fixed += rec.get("mode") == "fixed"
        k += 1
    return records, failures, k


def e2e_metrics(workload: str, records: list[dict], speed: float) -> tuple[dict, dict]:
    """(gated end-to-end metrics, per-workload detail metrics for the report).

    Times are multiplied by `speed` (see hostspeed.py) and rates divided
    by it.  Rates divide work by median op times, so that a slow stretch
    moves them no more than it moves the medians.
    """
    detail: dict = {}

    def put(name, value, unit, samples):
        detail[name] = {"value": value, "unit": unit, "samples": samples}

    def p50(values):
        return statistics.median(values) * speed

    if workload in ("stream_long", "clips_short"):
        calls = [c for r in records for c in r.get("calls", [r])]
        by_kind: dict = {}
        for c in calls:
            by_kind.setdefault((c["config"], c["mode"]), []).append(c)
        audio = {k: statistics.median(c["audio_s"] for c in cs) for k, cs in by_kind.items()}
        secs = {k: p50([c["s"] for c in cs]) for k, cs in by_kind.items()}
        for mode in wl.MODES:
            mine = [k for k in by_kind if k[1] == mode]
            put(f"{mode}_rt_factor", sum(audio[k] for k in mine) / sum(secs[k] for k in mine),
                "audio_s/s", sum(len(by_kind[k]) for k in mine))
        work = sum(audio.values()) / sum(secs.values())
        if workload == "stream_long":
            for (name, mode), cs in sorted(by_kind.items()):
                put(f"{name}.{mode}_call_p50_ms", secs[name, mode] * 1e3, "ms", len(cs))
            op_ms = [r["s"] * 1e3 for r in records]
        else:
            op_ms = [c["s"] * 1e3 for c in by_kind["chosen", "fixed"]]
            put("chunk_p50_ms", p50(op_ms), "ms", len(op_ms))
            put("chunk_p90_ms", float(np.percentile(op_ms, 90)) * speed, "ms", len(op_ms))
    elif workload == "dse_bundled":
        op_ms = [r["s"] * 1e3 for r in records]
        work = 1e3 / p50(op_ms)
        put("dse_run_s", p50(op_ms) / 1e3, "s", len(op_ms))
    else:
        op_ms = [r["s"] * 1e3 for r in records]
        work = statistics.median(r["records"] / r["s"] for r in records) / speed
        put("flow_records_per_s", work, "1/s", len(records))
        put("resume_ms", p50([r["resume_s"] * 1e3 for r in records]), "ms", len(records))
    gated = {"op_p50_ms": p50(op_ms), "work_per_s": work,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    put("op_p50_ms", gated["op_p50_ms"], "ms", len(op_ms))
    put("op_p50_wall_ms", statistics.median(op_ms), "ms", len(op_ms))
    put("work_per_s", work, "1/s", len(op_ms))
    put("peak_rss_mb", gated["peak_rss_mb"], "MB", 1)
    put("host_speed_factor", speed, "ratio", 1)
    return gated, detail


def environment(seed: int) -> dict:
    scipy = sys.modules.get("scipy")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", "not imported"),
        "kwsflow": str(Path(kwsflow.__file__).parent.relative_to(ROOT)),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not Path(kwsflow.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"kwsflow imported from {kwsflow.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    scratch = Path(args.scratch)
    refs = wl.load_refs()
    t0 = time.perf_counter()
    inputs = wl.build_inputs(args.workload, args.seed, refs, scratch)
    t_ready = time.perf_counter()
    emit({"ready": True})
    # host speed right after set-up, to normalize the set-up times
    setup_cal = Calibration()
    setup_cal.batch(50)
    setup_speed = setup_cal.factor()
    if args.setup_only:
        emit({"setup_speed": setup_speed})
        return 0
    if args.trace:
        import traced
        out = traced.run(args.workload, args.seed, args.seconds, refs, scratch, ROOT)
        out["metrics"]["setup.import_ms"] = (T_IMPORTED - T_START) * 1e3 * setup_speed
        out["metrics"]["setup.inputs_ms"] = (t_ready - t0) * 1e3 * setup_speed
    else:
        cal = Calibration()
        records, failures, attempted = closed_loop(
            args.workload, make_op(args.workload, inputs, refs), args.seconds, cal)
        gated, detail = e2e_metrics(args.workload, records, cal.factor())
        out = {"attempted": attempted, "failures": failures, "metrics": gated,
               "detail": detail}
    out["setup_speed"] = setup_speed
    out["env"] = environment(args.seed)
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
