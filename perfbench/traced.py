"""Traced run: per-layer times from spans around calls into each layer.

The spans are recorded from this file only, around the public functions
of kwsflow.frontend, kwsflow.dse / kwsflow.corpus and kwsflow.flow /
kwsflow.toolchain; the program itself is not changed.  One pass covers
every layer, whatever the workload named on the command line:

  frontend  the stage functions, composed in mfcc_pipeline's order, on
            one 10 s buffer per config ("chosen", "wide") and on eight
            0.25 s chunks ("chunk"), in both modes; the composition must
            equal mfcc_pipeline's output bit for bit
  dse       the six select_* decisions chained as run_dse chains them,
            with kwsflow.dse's mfcc_pipeline and top_peak_bins names
            wrapped; the chain must pick run_dse's point
  flow      run_stage driven with wrappers around ScriptedReasoner and
            MockAdapter, checkpointing after every record, stopping half
            way and resuming from the checkpoint; the history must equal
            the untraced run_flow + resume_flow result

Each pass also times the untraced calls on the same inputs; the
difference is the tracing overhead.  Metrics are medians over passes.
Spans (name, start, end, parent, op) stay in memory and are written to
.perfbench_out/ when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

import kwsflow
import workloads as wl
from hostspeed import Calibration
from kwsflow import dse as kdse
from kwsflow import fixedpoint as fx
from kwsflow import flow as kflow
from kwsflow import frontend as fe
from kwsflow.toolchain import MockAdapter

FIXED_STAGES = ("quantize", "preemphasis", "window", "fft", "power", "melbank", "mel", "log", "dct")
FLOAT_STAGES = FIXED_STAGES[1:]
DECISIONS = ("bandwidth", "bitwidth", "alpha", "window", "fft_size", "mel_shape")
CHUNKS_PER_PASS = 8
OUT_DIR = ".perfbench_out"


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.first: dict[int, int] = {0: 0}  # op id -> index of its first span

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def new_op(self) -> int:
        self.op += 1
        self.first[self.op] = len(self.spans)
        return self.op

    def totals(self, op_ids: set[int]) -> dict:
        """name -> [calls, total s, self s] over spans of the given ops."""
        lo = min(self.first[o] for o in op_ids)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans[lo:]:
            if parent >= 0 and op in op_ids:
                child[parent] += t1 - t0
        out: dict = {}
        for i in range(lo, len(self.spans)):
            name, t0, t1, parent, op = self.spans[i]
            if op in op_ids:
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += 1
                acc[1] += t1 - t0
                acc[2] += t1 - t0 - child[i]
        return out


# ---------------------------------------------------------------------------
# frontend: mfcc_pipeline decomposed into its stage calls
# ---------------------------------------------------------------------------

def composed_pipeline(tr: Tracer, buf, cfg):
    """mfcc_pipeline's PipelineResult through the stage functions, one span each."""
    pre = fe.PreemphasisConfig(cfg.preemphasis_k)
    if cfg.mode == "float":
        x = tr.call("preemphasis", fe.preemphasis, buf.samples, pre)
        frames = tr.call("window", fe.frame_and_window, x, cfg)
        sre, sim = tr.call("fft", fe.fft_r22sdf, frames, np.zeros_like(frames), cfg)
        with tr.span("glue"):
            sre, sim = sre / cfg.fft_size, sim / cfg.fft_size
        power = tr.call("power", fe.power_spectrum, sre, sim, cfg)
        fb = tr.call("melbank", fe.build_mel_filterbank, cfg)
        energies = tr.call("mel", fe.mel_energies, power, fb, cfg)
        log_mel = tr.call("log", fe.log_compress, energies, cfg)
        mfcc = tr.call("dct", fe.dct_ii, log_mel, cfg)
    else:
        fmt = cfg.sample_format
        raw = tr.call("quantize", fx.quantize_array, buf.samples, fmt)
        x = tr.call("preemphasis", fe.preemphasis, raw, pre, fmt)
        frames = tr.call("window", fe.frame_and_window, x, cfg)
        sre, sim = tr.call("fft", fe.fft_r22sdf, frames, np.zeros_like(frames), cfg)
        power_raw = tr.call("power", fe.power_spectrum, sre, sim, cfg)
        fb = tr.call("melbank", fe.build_mel_filterbank, cfg)
        energies = tr.call("mel", fe.mel_energies, power_raw, fb, cfg)
        log_raw = tr.call("log", fe.log_compress, energies, cfg)
        mfcc_raw = tr.call("dct", fe.dct_ii, log_raw, cfg)
        with tr.span("glue"):
            power = fx.to_real_array(power_raw, cfg.energy_format)
            log_mel = fx.to_real_array(log_raw, fe.LOG_FORMAT)
            mfcc = fx.to_real_array(mfcc_raw, fe.LOG_FORMAT)
    with tr.span("glue"):
        per_frame = tuple(fe.MfccFrame(mfcc[i].copy(), i) for i in range(mfcc.shape[0]))
        return fe.PipelineResult(per_frame, mfcc, log_mel, power, cfg)


def same_bits(composed, result) -> bool:
    return all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in ((getattr(composed, n), getattr(result, n)) for n in wl.OUTPUTS))


class Frontend:
    """Stage timings for one input shape ("chosen", "wide" or "chunk")."""

    def __init__(self, shape: str, buffers: list, refs: list) -> None:
        self.shape = shape
        self.buffers = buffers  # (samples, input_ok) pairs
        self.refs = refs
        config = wl.CHOSEN if shape == "chunk" else wl.CONFIGS[shape]
        self.cfg = {m: kwsflow.PipelineConfig(mode=m, **config) for m in wl.MODES}
        self.samples: dict = {}  # metric -> per-pass values

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def run_pass(self, tr: Tracer, failures: list[str]) -> tuple[int, int, float, float]:
        """One pass over both modes: (calls, frames, traced s, untraced s)."""
        calls = frames = 0
        traced_s = untraced_s = 0.0
        for mode in wl.MODES:
            cfg = self.cfg[mode]
            ops, plain = set(), []
            for (x, input_ok), ref in zip(self.buffers, self.refs):
                buf = kwsflow.SignalBuffer(x.copy(), cfg.sample_rate)
                t0 = time.perf_counter()
                result = kwsflow.mfcc_pipeline(buf, cfg)
                plain.append(time.perf_counter() - t0)
                op = tr.new_op()
                ops.add(op)
                with tr.span("frontend.call"):
                    composed = composed_pipeline(tr, buf, cfg)
                why = None if input_ok else "input differs from the recorded pool entry"
                why = why or wl.check_pipeline(result, ref[mode], mode)
                if not why and not same_bits(composed, result):
                    why = "stage composition differs from mfcc_pipeline"
                if why:
                    failures.append(f"frontend {self.shape}/{mode}: {why}")
                calls += 1
                frames += result.mfcc.shape[0]
            tot = tr.totals(ops)
            n = len(plain)
            stages = FIXED_STAGES if mode == "fixed" else FLOAT_STAGES
            for st in stages:
                self.add(f"{mode}.{st}_ms", tot[st][1] / n * 1e3)
            stage_sum = sum(tot[st][1] for st in stages) / n
            self.add(f"{mode}.glue_ms", (sum(plain) / n - stage_sum) * 1e3)
            for st in stages:
                self.add(f"share.{mode}.{st}", tot[st][1] / sum(plain))
            traced_s += tot["frontend.call"][1]
            untraced_s += sum(plain)
        if self.shape != "chunk":
            cfg = self.cfg["fixed"]
            t0 = time.perf_counter()
            fe.window_coefficients(cfg.fft_size, cfg.window_policy, cfg.bit_width)
            self.add("setup.window_taps_ms", (time.perf_counter() - t0) * 1e3)
            k = np.arange(cfg.n_mfcc)[:, np.newaxis]
            m = np.arange(cfg.n_mel)[np.newaxis, :]
            mat = np.cos(np.pi * k * (2 * m + 1) / (2 * cfg.n_mel))  # DCT-II basis
            t0 = time.perf_counter()
            for c in mat.ravel():
                fx.approx_csd(float(c), 2, cfg.bit_width - 1)
            self.add("setup.dct_csd_ms", (time.perf_counter() - t0) * 1e3)
        return calls, frames, traced_s, untraced_s


# ---------------------------------------------------------------------------
# dse: the six decisions chained as run_dse chains them
# ---------------------------------------------------------------------------

@contextmanager
def wrapped_dse_names(tr: Tracer, counts: dict):
    """Wrap the mfcc_pipeline and top_peak_bins names kwsflow.dse calls."""
    pipeline, peaks = kdse.mfcc_pipeline, kdse.top_peak_bins

    def traced_pipeline(s, cfg):
        with tr.span("dse.pipeline"):
            res = pipeline(s, cfg)
        counts["frames"] += res.mfcc.shape[0]
        return res

    def traced_peaks(*args, **kwargs):
        return tr.call("dse.peak_scan", peaks, *args, **kwargs)

    kdse.mfcc_pipeline, kdse.top_peak_bins = traced_pipeline, traced_peaks
    try:
        yield
    finally:
        kdse.mfcc_pipeline, kdse.top_peak_bins = pipeline, peaks


def dse_chain(tr: Tracer, counts: dict) -> dict:
    p = kdse.DesignPoint()
    with tr.span("dse.chain"), wrapped_dse_names(tr, counts):
        native = tr.call("corpus.render", kwsflow.corpus_signals, 44100)
        rate = tr.call("dse.bandwidth", kdse.select_bandwidth, native)
        p = replace(p, sample_rate=rate)
        working = tr.call("corpus.render", kwsflow.corpus_signals, rate)
        p = replace(p, bit_width=tr.call("dse.bitwidth", kdse.select_bitwidth, working, p))
        p = replace(p, preemphasis_k=tr.call("dse.alpha", kdse.select_alpha, working, p))
        p = replace(p, window_policy=tr.call("dse.window", kdse.select_window_policy, p))
        p = replace(p, fft_size=tr.call("dse.fft_size", kdse.select_fft_size, working, p))
        p = replace(p, mel_shape=tr.call("dse.mel_shape", kdse.select_mel_shape, working, p))
    return p.as_dict()


def dse_pass(tr: Tracer, refs: dict, failures: list[str], out: dict) -> tuple[float, float]:
    t0 = time.perf_counter()
    report = kwsflow.run_dse()
    untraced = time.perf_counter() - t0
    why = wl.same_report(json.loads(report.to_json()), refs["dse_bundled"])
    op = tr.new_op()
    counts = {"frames": 0}
    chosen = dse_chain(tr, counts)
    if not why and chosen != refs["dse_bundled"]["chosen_point"]:
        why = f"traced decision chain picks {chosen}"
    if why:
        failures.append(f"dse: {why}")
    tot = tr.totals({op})
    chain = tot["dse.chain"][1]
    for d in DECISIONS:
        out.setdefault(f"dse.{d}_ms", []).append(tot[f"dse.{d}"][1] * 1e3)
        out.setdefault(f"share.dse.{d}", []).append(tot[f"dse.{d}"][1] / chain)
    for name in ("pipeline", "peak_scan"):
        calls, total, _ = tot[f"dse.{name}"]
        out.setdefault(f"dse.{name}_ms", []).append(total / calls * 1e3)
        out.setdefault(f"dse.{name}_calls", []).append(calls)
        out.setdefault(f"share.dse.{name}", []).append(total / chain)
    out.setdefault("dse.pipeline_frames", []).append(counts["frames"])
    out.setdefault("corpus.render_ms", []).append(tot["corpus.render"][1] * 1e3)
    return chain, untraced


# ---------------------------------------------------------------------------
# flow: run_stage with timed reasoner, adapter and checkpoint hooks
# ---------------------------------------------------------------------------

class TimedReasoner:
    def __init__(self, tr: Tracer, inner) -> None:
        self.tr, self.inner = tr, inner

    def propose(self, context):
        return self.tr.call("flow.propose", self.inner.propose, context)

    def reflect(self, context, report):
        return self.tr.call("flow.reflect", self.inner.reflect, context, report)


class _HalfWay(Exception):
    pass


def traced_flow(tr: Tracer, v: dict) -> kflow.FlowState:
    """run_flow's stage loop, stopped half way and resumed from the checkpoint."""
    config, ck = v["config"], v["checkpoint"]
    ck.unlink(missing_ok=True)
    workdir = Path(config["workdir"])
    stop = [v["stop_after"]]

    def on_record(state) -> None:
        tr.call("flow.checkpoint_write", kflow.save_checkpoint, state, config, ck)
        if stop and len(state.history) >= stop[0]:
            stop.clear()
            raise _HalfWay

    def stages(state) -> kflow.FlowState:
        for stage, scfg in config["stages"].items():
            if state.statuses[stage] in ("passed", "skipped"):
                continue
            state.current_stage = stage
            reasoner = TimedReasoner(tr, kflow.ScriptedReasoner.from_file(config["reasoner"]["script"]))
            mock = MockAdapter.from_file(scfg["scenario"])
            mock.calls = sum(1 for r in state.history if r.stage == stage)

            def adapter(proposal, wd, mock=mock):
                return tr.call("toolchain.mock", mock)

            with tr.span("flow.stage"):
                kflow.run_stage(state, reasoner, adapter, scfg["budget"], stage, workdir,
                                on_record=on_record)
            if state.statuses[stage] == "failed":
                break
        return state

    try:
        stages(kflow.FlowState())
    except _HalfWay:
        pass
    state = tr.call("flow.checkpoint_read", kflow.load_checkpoint, ck, config)
    return stages(state)


def flow_pass(tr: Tracer, v: dict, failures: list[str], out: dict) -> tuple[float, float]:
    ck = v["checkpoint"]
    ck.unlink(missing_ok=True)
    t0 = time.perf_counter()
    kwsflow.run_flow(v["config"], checkpoint_path=ck, stop_after=v["stop_after"])
    result = kwsflow.resume_flow(v["config"], ck)
    untraced = time.perf_counter() - t0
    why = None if v["input_ok"] else "input differs from the recorded pool entry"
    if not why and wl.text_digest(result.to_json()) != v["digest"]:
        why = "resumed FlowResult differs from the recorded digest"
    op = tr.new_op()
    t0 = time.perf_counter()
    state = traced_flow(tr, v)
    traced = time.perf_counter() - t0
    want = json.loads(result.to_json())
    got = [r.as_dict(include_wall_time=False) for r in state.history]
    if not why and (got != want["history"] or state.statuses != want["statuses"]):
        why = "traced history differs from the untraced FlowResult"
    if why:
        failures.append(f"flow variant {v['index']}: {why}")
    tot = tr.totals({op})
    records = len(state.history)
    children = sum(tot[n][1] for n in ("flow.propose", "flow.reflect", "toolchain.mock",
                                       "flow.checkpoint_write"))
    for name, key in (("flow.checkpoint_write_ms", "flow.checkpoint_write"),
                      ("flow.checkpoint_read_ms", "flow.checkpoint_read"),
                      ("flow.propose_ms", "flow.propose"),
                      ("flow.reflect_ms", "flow.reflect"),
                      ("toolchain.mock_ms", "toolchain.mock")):
        out.setdefault(name, []).append(tot[key][1] / tot[key][0] * 1e3)
    out.setdefault("flow.stage_self_ms", []).append(
        (tot["flow.stage"][1] - children) / records * 1e3)
    out.setdefault("flow.records", []).append(records)
    out.setdefault("flow.checkpoint_bytes", []).append(ck.stat().st_size)
    return traced, untraced


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def suite_inputs(seed: int, refs: dict, scratch: Path) -> dict:
    def frontend(shape: str, xs: list, shape_refs: list) -> Frontend:
        checked = [(x, wl.sample_digest(x) == r["input"]) for x, r in zip(xs, shape_refs)]
        return Frontend(shape, checked, shape_refs)

    i = wl.draw("stream_long", seed)[0]
    frontends = [frontend(shape, [wl.stream_entry(shape, i)], [refs["stream_long"][shape][i]])
                 for shape in ("chosen", "wide")]
    ids = wl.draw("clips_short", seed)[:CHUNKS_PER_PASS]
    frontends.append(frontend("chunk", [wl.clip_entry(i) for i in ids],
                              [refs["clips_short"][i] for i in ids]))
    flow = wl.flow_inputs(seed, refs, scratch / "traced")[0]
    return {"frontends": frontends, "flow": flow}


def run(workload: str, seed: int, seconds: float, refs: dict, scratch: Path, root: Path) -> dict:
    suite = suite_inputs(seed, refs, scratch)
    failures: list[str] = []
    cal = Calibration()
    tr = Tracer()
    layer: dict = {}
    overhead: dict = {}
    attempted = 0
    t_end = None
    passes = 0
    while t_end is None or time.perf_counter() < t_end:
        warm = t_end is None  # the first pass is untimed warm-up
        pass_fail: list[str] = []
        totals = {"calls": 0, "frames": 0}
        over: dict = {}
        for f in suite["frontends"]:
            cal.batch(5)
            calls, frames, traced_s, plain_s = f.run_pass(tr, pass_fail)
            totals["calls"] += calls
            totals["frames"] += frames
            key = "clips_short" if f.shape == "chunk" else "stream_long"
            t, u = over.get(key, (0.0, 0.0))
            over[key] = (t + traced_s, u + plain_s)
        cal.batch(5)
        over["dse_bundled"] = dse_pass(tr, refs, pass_fail, layer)
        cal.batch(5)
        over["flow_checkpointed"] = flow_pass(tr, suite["flow"], pass_fail, layer)
        attempted += totals["calls"] + 2
        failures.extend(pass_fail)
        if warm:
            # forget the warm-up pass, except that its checks counted
            layer.clear()
            for f in suite["frontends"]:
                f.samples.clear()
            t_end = time.perf_counter() + seconds
            continue
        passes += 1
        layer.setdefault("frontend.calls", []).append(totals["calls"])
        layer.setdefault("frontend.frames", []).append(totals["frames"])
        for key, (t, u) in over.items():
            overhead.setdefault(key, []).append(100.0 * (t - u) / u)
    named = dict(layer)
    for f in suite["frontends"]:
        for name, vals in f.samples.items():
            share = name.startswith("share.")
            named[f"share.frontend.{f.shape}.{name[6:]}" if share
                  else f"frontend.{f.shape}.{name}"] = vals
    speed = cal.factor()
    metrics = {n: statistics.median(v) * (speed if n.endswith("_ms") else 1.0)
               for n, v in named.items() if not n.startswith("share.")}
    shares = {n[6:]: statistics.median(v) for n, v in named.items() if n.startswith("share.")}
    for key, vals in overhead.items():
        metrics[f"trace.{key}.overhead_pct"] = statistics.median(vals)
    spans_path = write_spans(tr, workload, seed, root)
    return {"attempted": attempted, "failures": failures, "metrics": metrics,
            "detail": {"passes": passes, "shares": shares, "spans": spans_path,
                       "host_speed_factor": speed}}


def write_spans(tr: Tracer, workload: str, seed: int, root: Path) -> str:
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"spans_{workload}_{seed}.json"
    t0 = tr.spans[0][1] if tr.spans else 0.0
    path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [[n, round(a - t0, 9), round(b - t0, 9), p, o] for n, a, b, p, o in tr.spans],
    }))
    return str(path.relative_to(root))
