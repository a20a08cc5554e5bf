"""Inputs and output checks of the four benchmark workloads.

Every input comes from a pool of entries whose reference outputs are
recorded in ``refs.json`` (see ``record_refs.py``).  Entry ``i`` of a
pool is generated from ``i`` alone, with numpy only, so the program
under test receives nothing but the generated buffers and files.  The
run seed chooses which pool entries a run uses and in which order;
different seeds therefore run different inputs, and every output of
every seed can still be checked against a recorded reference.

Checks:
  fixed-mode power/log_mel/mfcc   SHA-256 of the float64 bytes, exact
  float-mode power/log_mel/mfcc   relative distance <= 1e-9, tested on
                                  the Frobenius norm and two +-1
                                  projections of the recorded output
  run_dse()                       chosen point, selections and
                                  feasible flags exact; numbers 1e-9
  flow                            resumed FlowResult.to_json() SHA-256
                                  equal to the uninterrupted run's
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from kwsflow import PipelineConfig
from kwsflow.toolchain import FIFO_RTL

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

# the point run_dse() picks on the bundled corpus
CHOSEN = dict(sample_rate=8000, bit_width=7, preemphasis_k=5, fft_size=32,
              window_policy="single_shift", mel_shape="rectangular",
              n_mel=8, n_mfcc=8)
# deeper FFT, triangular mel, wider words
WIDE = dict(sample_rate=16000, bit_width=12, preemphasis_k=5, fft_size=256,
            window_policy="csd2", mel_shape="triangular", n_mel=20, n_mfcc=13)
CONFIGS = {"chosen": CHOSEN, "wide": WIDE}
MODES = ("fixed", "float")
OUTPUTS = ("power", "log_mel", "mfcc")

STREAM_SECONDS = 10.0
CHUNK_SAMPLES = 2000  # 0.25 s at 8 kHz, 125 frames at FFT 32
FLOW_ITERS = 100  # per stage; fixed, since checkpoint cost grows with the square

# pool sizes, and how many entries one run draws from each
POOL = {"stream_long": 32, "clips_short": 128, "flow_checkpointed": 16}
DRAW = {"stream_long": 8, "clips_short": 48, "flow_checkpointed": 8}
# keeps the pools of different workloads independent
SALT = {"stream_long": 11, "clips_short": 12, "flow_checkpointed": 13}

REL_TOL = 1e-9
SPEECH_HZ = (300.0, 800.0, 1800.0, 3400.0)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def speech_samples(rng: np.random.Generator, sample_rate: int, n: int) -> np.ndarray:
    """Speech-band tones with jittered pitch plus low-pass-shaped noise."""
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for f in SPEECH_HZ:
        x += rng.uniform(0.2, 1.0) * np.sin(
            2 * np.pi * f * rng.uniform(0.9, 1.1) * t + rng.uniform(0, 2 * np.pi))
    # 64-tap truncation of the one-pole smoother 1 / (1 - 0.75 z^-1)
    kernel = 0.25 * 0.75 ** np.arange(64)
    noise = np.convolve(rng.standard_normal(n + 63), kernel, mode="valid")
    x += rng.uniform(0.05, 0.3) * np.max(np.abs(x)) * noise / np.max(np.abs(noise))
    x *= rng.uniform(0.3, 0.9) / np.max(np.abs(x))
    return np.clip(x, -1.0, 1.0)


def stream_entry(config: str, i: int) -> np.ndarray:
    sr = CONFIGS[config]["sample_rate"]
    rng = np.random.default_rng([SALT["stream_long"], sr, i])
    return speech_samples(rng, sr, int(STREAM_SECONDS * sr))


def clip_entry(i: int) -> np.ndarray:
    rng = np.random.default_rng([SALT["clips_short"], i])
    return speech_samples(rng, CHOSEN["sample_rate"], CHUNK_SAMPLES)


def flow_entry(i: int) -> tuple[dict, dict]:
    """(script, scenarios) of flow variant i.

    Each stage fails on every iteration but the last.  Every proposal
    writes a revision-tagged copy of the FIFO fixture.  Variants differ in
    content (tags, statuses, failure messages), not in size.
    """
    rng = np.random.default_rng([SALT["flow_checkpointed"], i])
    script: dict = {}
    scenarios: dict = {}
    for stage in ("rtl", "synthesis"):
        script[stage] = [
            {"writes": {"fifo.v": f"// {stage} revision {j} of variant {i}\n" + FIFO_RTL},
             "params": {"revision": j}, "rationale": f"fix {stage} failure {j}"}
            for j in range(FLOW_ITERS)]
        fails = [
            {"status": str(rng.choice(["fail", "compile_error", "timeout"])),
             "failures": [f"{stage} check {j}: mismatch at cycle {int(rng.integers(1, 4096))}"],
             "raw_capture": f"run {j}\n"}
            for j in range(FLOW_ITERS - 1)]
        last = {"status": "pass", "raw_capture": "ok\n"}
        if stage == "synthesis":
            last["cell_count"] = int(rng.integers(200, 400))
        scenarios[stage] = fails + [last]
    return script, scenarios


def draw(workload: str, seed: int) -> list[int]:
    """Pool entries a run of this seed uses, in the order it uses them."""
    key = [seed, SALT[workload]] if seed >= 0 else [-seed, SALT[workload], 1]
    rng = np.random.default_rng(key)
    return [int(i) for i in rng.choice(POOL[workload], DRAW[workload], replace=False)]


def sample_digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype=np.float64).tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# output records and checks
# ---------------------------------------------------------------------------

_PROJ: dict = {}


def _projections(shape: tuple) -> list[np.ndarray]:
    if shape not in _PROJ:
        rng = np.random.default_rng(list(shape))
        _PROJ[shape] = [rng.choice((-1.0, 1.0), size=shape) for _ in range(2)]
    return _PROJ[shape]


def array_record(a: np.ndarray, mode: str) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if mode == "fixed":
        return {"shape": list(a.shape), "sha256": hashlib.sha256(a.tobytes()).hexdigest()}
    return {"shape": list(a.shape), "norm": float(np.linalg.norm(a)),
            "proj": [float(np.sum(a * r)) for r in _projections(a.shape)]}


def pipeline_record(result, mode: str) -> dict:
    return {name: array_record(getattr(result, name), mode) for name in OUTPUTS}


def check_array(a: np.ndarray, ref: dict, mode: str) -> str | None:
    """None when a matches the recorded reference, else the reason."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if list(a.shape) != ref["shape"]:
        return f"shape {list(a.shape)} != {ref['shape']}"
    if mode == "fixed":
        if hashlib.sha256(a.tobytes()).hexdigest() != ref["sha256"]:
            return "fixed-mode bits differ"
        return None
    # ||a - b|| <= tol ||b|| implies each test below (|<a - b, r>| <=
    # ||a - b|| ||r||), so an output within tolerance always passes
    tol = REL_TOL * ref["norm"]
    if abs(float(np.linalg.norm(a)) - ref["norm"]) > tol:
        return "float-mode norm outside 1e-9 relative"
    for r, want in zip(_projections(a.shape), ref["proj"]):
        if abs(float(np.sum(a * r)) - want) > tol * math.sqrt(a.size):
            return "float-mode projection outside 1e-9 relative"
    return None


def check_pipeline(result, ref: dict, mode: str) -> str | None:
    for name in OUTPUTS:
        why = check_array(getattr(result, name), ref[name], mode)
        if why:
            return f"{name}: {why}"
    return None


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def same_report(got, want, path: str = "") -> str | None:
    """Recursive DSE report comparison: numbers 1e-9, the rest exact."""
    if isinstance(want, bool) or isinstance(got, bool) or isinstance(want, str) or want is None:
        return None if got == want and type(got) is type(want) else f"{path}: {got!r} != {want!r}"
    if isinstance(want, (int, float)):
        if not isinstance(got, (int, float)):
            return f"{path}: {got!r} != {want!r}"
        if path.endswith(".selection") or path.startswith(".chosen_point"):
            return None if got == want else f"{path}: {got!r} != {want!r}"
        return None if _close(float(got), float(want)) else f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for k in sorted(want):
            why = same_report(got[k], want[k], f"{path}.{k}")
            if why:
                return why
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            why = same_report(g, w, f"{path}[{i}]")
            if why:
                return why
        return None
    return f"{path}: unexpected type {type(want).__name__}"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def stream_inputs(seed: int, refs: dict) -> dict:
    out = {}
    for name, cfg in CONFIGS.items():
        entries = []
        for i in draw("stream_long", seed):
            x = stream_entry(name, i)
            entries.append((i, x, sample_digest(x) == refs["stream_long"][name][i]["input"]))
        out[name] = {"entries": entries,
                     "cfg": {m: PipelineConfig(mode=m, **cfg) for m in MODES}}
    return out


def clip_inputs(seed: int, refs: dict) -> dict:
    entries = []
    for i in draw("clips_short", seed):
        x = clip_entry(i)
        entries.append((i, x, sample_digest(x) == refs["clips_short"][i]["input"]))
    return {"entries": entries,
            "cfg": {m: PipelineConfig(mode=m, **CHOSEN) for m in MODES}}


def flow_variant(i: int, d: Path) -> dict:
    """Write variant i's script and scenarios under d: run_flow config, records, input digest."""
    script, scenarios = flow_entry(i)
    (d / "work").mkdir(parents=True, exist_ok=True)
    (d / "script.json").write_text(json.dumps(script))
    stages = {}
    for stage, reports in scenarios.items():
        (d / f"{stage}.json").write_text(json.dumps(reports))
        stages[stage] = {"adapter": "mock", "scenario": str(d / f"{stage}.json"),
                         "budget": len(reports)}
    return {"config": {"workdir": str(d / "work"), "stages": stages,
                       "reasoner": {"kind": "scripted", "script": str(d / "script.json")}},
            "records": sum(len(r) for r in scenarios.values()),
            "input": text_digest(json.dumps([script, scenarios], sort_keys=True))}


def flow_inputs(seed: int, refs: dict, scratch: Path) -> list[dict]:
    variants = []
    for i in draw("flow_checkpointed", seed):
        d = scratch / f"flow{i}"
        v = flow_variant(i, d)
        ref = refs["flow_checkpointed"][i]
        variants.append({
            "index": i, "config": v["config"], "checkpoint": d / "checkpoint.json",
            "stop_after": v["records"] // 2, "digest": ref["digest"],
            "input_ok": v["input"] == ref["input"],
        })
    return variants


def build_inputs(workload: str, seed: int, refs: dict, scratch: Path):
    if workload == "stream_long":
        return stream_inputs(seed, refs)
    if workload == "clips_short":
        return clip_inputs(seed, refs)
    if workload == "flow_checkpointed":
        return flow_inputs(seed, refs, scratch)
    return None  # dse_bundled runs on the corpus bundled with kwsflow


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
