"""Deterministic design-space exploration for the MFCC front end.

Each criterion has one measure (_retention, _peak_stability, _dc_fraction,
_leakage, _fft_loss, _mel_delta) scoring a design point on a corpus;
evaluate_point reports the same measures.  Each _decide_* hands its
measure to _walk, which tries the candidates cheapest first, picks the
first that meets the criterion (the minimal feasible choice by
construction) and logs what it measured.  run_dse chains the six
decisions in a fixed order under THRESHOLDS, threading each choice into
the working design point; stages interact greedily, not jointly.

_peak_stability and _dc_fraction read only power, so _power stops the
front end there.  Computed once per signal, not per candidate: the
periodogram every rate's retention reads, the float power and peak table
of the bit-width walk (unless the window is csd2, whose taps depend on the
width) and the power both mel shapes of _mel_delta read.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import corpus_digest, corpus_signals
from .errors import (
    DegenerateInput,
    InvalidFactor,
    NoFeasiblePoint,
    Rule,
    check_fields,
)
from .fixedpoint import to_real_array
from .frontend import (
    ENERGY_FLOOR,
    LOG_FORMAT,
    PIPELINE_RULES,
    MelShape,
    PipelineConfig,
    PreemphasisConfig,
    WindowPolicy,
    _log_mel,
    _power_stage,
    mfcc_pipeline,
    spectrogram_distance,
    window_coefficients,
)
from .signal import SignalBuffer, band_power_fractions, decimate, read_wav, spectral_leakage

RATE_CANDIDATES = (4000, 8000, 16000, 44100)
BIT_CANDIDATES = tuple(range(4, 17))
ALPHA_CANDIDATES = (3, 4, 5, 6)
# cheapest first, by adder-term count of the quantized window network
WINDOW_CANDIDATES: tuple[WindowPolicy, ...] = (
    "rectangular",
    "single_shift",
    "csd2",
    "exact",
)
FFT_CANDIDATES = (16, 32, 64, 128, 256)

REFERENCE_FFT = 256

# default criterion thresholds; run_dse's config may override any of them
THRESHOLDS = {
    "retention_min": 0.90,  # bandwidth: mean in-band power share
    "err_max": 0.10,  # bit width: worst relative peak-magnitude error
    "frac_max": 0.01,  # pre-emphasis: mean DC-bin power share
    "leak_max": 0.10,  # window: spectral leakage
    "loss_max": 0.25,  # FFT size: log-mel distance from the reference
    "delta_max": 0.05,  # mel shape: rectangular vs triangular distance
}
THRESHOLD_RULES = dict.fromkeys(THRESHOLDS, Rule(float))
# PipelineConfig's rules for DesignPoint's fields, narrowed to the DSE candidates
POINT_RULES = {k: r for k, r in PIPELINE_RULES.items() if k not in ("frame_hop", "mode")} | {
    "sample_rate": Rule(int, allowed=RATE_CANDIDATES), "bit_width": Rule(int, lo=4, hi=16)}


def dse_thresholds(config: dict | None = None) -> dict:
    """THRESHOLDS with config's overrides, each a finite number; ConfigInvalid otherwise."""
    config = {} if config is None else config
    return {**THRESHOLDS, **check_fields(config, THRESHOLD_RULES, "DSE thresholds")}


@dataclass(frozen=True)
class DesignPoint:
    """One configuration of the front end under exploration."""

    sample_rate: int = 8000
    bit_width: int = 7
    preemphasis_k: int = 5
    fft_size: int = 32
    window_policy: WindowPolicy = "exact"
    mel_shape: MelShape = "rectangular"
    n_mel: int = 8
    n_mfcc: int = 8

    def __post_init__(self) -> None:
        check_fields(vars(self), POINT_RULES, "design point")

    def pipeline_config(self, **overrides) -> PipelineConfig:
        return PipelineConfig(**{**asdict(self), "mode": "fixed", **overrides})

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DesignMetrics:
    power_proxy: float
    area_proxy: float
    power_retention: float
    dc_bin_fraction: float
    leakage: float
    spectro_error: float
    mel_shape_delta: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class DseReport:
    corpus_digest: str
    decisions: list[dict] = field(default_factory=list)
    chosen_point: DesignPoint | None = None
    cost: dict | None = None
    error: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def cost_model(p: DesignPoint) -> tuple[float, float]:
    """Power and area proxies, 1.0 each at the reference point."""
    butterfly = p.fft_size * math.log2(p.fft_size) / (32 * 5)
    width = p.bit_width / 7
    power = (p.sample_rate / 8000) * width * butterfly
    area = width * butterfly
    return power, area


def _mean_distance(corpus, cfg_a: PipelineConfig, cfg_b: PipelineConfig) -> float:
    """Corpus-average log-mel distance between two pipeline configs.

    Frame counts can differ when the FFT sizes differ; compare on the
    common leading frames (both configs must use the same hop).
    """
    vals = []
    for s in corpus:
        la = mfcc_pipeline(s, cfg_a).log_mel
        lb = mfcc_pipeline(s, cfg_b).log_mel
        n = min(la.shape[0], lb.shape[0])
        vals.append(spectrogram_distance(la[:n], lb[:n]))
    return float(np.mean(vals))


def top_peak_bins(power: np.ndarray, max_peaks: int = 3) -> np.ndarray:
    """Dominant peak bins of each frame of a (frames, bins) power matrix.

    A bin qualifies if it is a local maximum over bins 1..N/2 (DC is
    excluded; the last bin needs only its left neighbor) and its power
    is at least a quarter of the strongest peak's, i.e. its magnitude is
    within half of the maximum.  The top max_peaks by power are
    returned, largest first, ties in bin order, as a (frames, max_peaks)
    int table padded with -1.
    """
    peak = np.zeros(power.shape, dtype=bool)
    peak[:, 1:] = power[:, 1:] > power[:, :-1]
    peak[:, 1:-1] &= power[:, 1:-1] > power[:, 2:]
    key = np.where(peak, power, -np.inf)
    key[key < key.max(axis=1, keepdims=True, initial=-np.inf) / 4.0] = -np.inf
    order = np.argsort(-key, axis=1, kind="stable")[:, :max_peaks]  # ties in bin order
    table = np.full((power.shape[0], max_peaks), -1)
    table[:, :order.shape[1]] = np.where(np.take_along_axis(key, order, 1) > -np.inf, order, -1)
    return table


# ---------------------------------------------------------------------------
# measures: one function per criterion, shared by the decisions and
# evaluate_point
# ---------------------------------------------------------------------------

def _power(s: SignalBuffer, cfg: PipelineConfig) -> np.ndarray:
    """mfcc_pipeline(s, cfg).power, without the stages after the power spectrum."""
    power = _power_stage(s, cfg)
    return to_real_array(power, cfg.energy_format) if cfg.mode == "fixed" else power


def _retention(corpus, rates) -> list[float]:
    """Mean share of signal power below the Nyquist frequency of each rate.

    A rate at or above a signal's own keeps all of that signal's power.
    """
    fracs = [band_power_fractions(s, [min(rate, s.sample_rate) / 2 for rate in rates]) for s in corpus]
    return [float(np.mean([f[i] for f in fracs])) for i in range(len(rates))]


def _float_peaks(s: SignalBuffer, p: DesignPoint) -> tuple[np.ndarray, np.ndarray]:
    """s's float-mode power at p and its top_peak_bins table, sorted along each row."""
    pf = _power(s, p.pipeline_config(mode="float"))
    return pf, np.sort(top_peak_bins(pf), axis=1)


def _peak_stability(corpus, p: DesignPoint, float_peaks=None) -> tuple[bool, float]:
    """Peak-set stability and worst peak-magnitude error, fixed vs float.

    Frames whose peak sets differ clear sets_match and add no error.
    float_peaks, if given, holds each signal's _float_peaks at p.
    """
    if float_peaks is None:
        float_peaks = (_float_peaks(s, p) for s in corpus)
    sets_match = True
    worst = 0.0
    for s, (pf, ref) in zip(corpus, float_peaks):
        px = _power(s, p.pipeline_config(mode="fixed"))
        same = (ref == np.sort(top_peak_bins(px), axis=1)).all(axis=1)
        sets_match = sets_match and bool(same.all())
        rows, cols = np.nonzero(same[:, None] & (ref >= 0))
        bins = ref[rows, cols]
        mf = np.sqrt(pf[rows, bins])
        worst = float((np.abs(np.sqrt(px[rows, bins]) - mf) / mf).max(initial=worst))
    return sets_match, worst


def _dc_fraction(corpus, p: DesignPoint) -> tuple[float, float]:
    """Mean DC-bin share of post-filter frame power, and the total power."""
    fracs = []
    total = 0.0
    for s in corpus:
        pw = _power(s, p.pipeline_config(mode="float"))
        den = pw.sum(axis=1)
        total += float(den.sum())
        keep = den > 0
        fracs.extend((pw[keep, :2].sum(axis=1) / den[keep]).tolist())
    return (float(np.mean(fracs)) if fracs else 0.0), total


def _leakage(p: DesignPoint) -> float:
    return spectral_leakage(
        window_coefficients(p.fft_size, p.window_policy, p.bit_width).values)


def _fft_loss(corpus, p: DesignPoint) -> float:
    """Fixed-mode log-mel distance from the float reference-size FFT."""
    hop = REFERENCE_FFT // 2
    ref = p.pipeline_config(fft_size=REFERENCE_FFT, frame_hop=hop, mode="float")
    return _mean_distance(corpus, p.pipeline_config(frame_hop=hop), ref)


def _mel_delta(corpus, p: DesignPoint) -> float:
    """Log-mel distance of rectangular filters from triangular ones, on one power per signal."""
    rect, tri = (p.pipeline_config(mel_shape=shape) for shape in ("rectangular", "triangular"))
    vals = []
    for s in corpus:
        power = _power_stage(s, rect)
        la, lb = (to_real_array(_log_mel(power, cfg), LOG_FORMAT) for cfg in (rect, tri))
        vals.append(spectrogram_distance(la, lb))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# decisions: each _decide_* walks its candidates, returning (choice, log entry)
# ---------------------------------------------------------------------------

def _walk(criterion: str, parameter: str, threshold: float, candidates, judge,
          failure: str, exhaustive: bool = False):
    """First candidate that judge finds feasible, plus the decision log entry.

    judge(value) returns (measured fields, feasible).  The walk stops at
    the first feasible candidate unless exhaustive, in which case every
    candidate is measured and logged.
    """
    logged = []
    choice = None
    for value in candidates:
        fields, feasible = judge(value)
        logged.append({"value": value, **fields, "feasible": feasible})
        if feasible and choice is None:
            choice = value
            if not exhaustive:
                break
    if choice is None:
        raise NoFeasiblePoint(failure)
    return choice, {"criterion": criterion, "parameter": parameter, "threshold": threshold,
                    "candidates": logged, "selection": choice}


def _decide_bandwidth(corpus, retention_min: float):
    retention = dict(zip(RATE_CANDIDATES, _retention(corpus, RATE_CANDIDATES)))

    def judge(rate):
        return {"retention": retention[rate]}, retention[rate] >= retention_min

    return _walk("bandwidth", "sample_rate", retention_min, RATE_CANDIDATES, judge,
                 "no candidate rate retains enough band power", exhaustive=True)


def select_bandwidth(corpus, retention_min: float = THRESHOLDS["retention_min"]) -> int:
    return _decide_bandwidth(corpus, retention_min)[0]


def _decide_bitwidth(corpus, p: DesignPoint, err_max: float = THRESHOLDS["err_max"]):
    # float mode reads bit_width only through csd2 window taps, so under any
    # other window one float power and peak table per signal serve every width
    float_peaks = None if p.window_policy == "csd2" else [_float_peaks(s, p) for s in corpus]

    def judge(b):
        ok_sets, worst = _peak_stability(corpus, replace(p, bit_width=b), float_peaks)
        return ({"peak_sets_match": ok_sets, "worst_peak_error": worst},
                ok_sets and worst <= err_max)

    return _walk("bitwidth", "bit_width", err_max, BIT_CANDIDATES, judge,
                 "no bit width preserves the spectral peaks")


def select_bitwidth(corpus, p: DesignPoint) -> int:
    return _decide_bitwidth(corpus, p)[0]


def _decide_alpha(corpus, p: DesignPoint, frac_max: float = THRESHOLDS["frac_max"]):
    def judge(k):
        frac, total = _dc_fraction(corpus, replace(p, preemphasis_k=k))
        if total < ENERGY_FLOOR:
            raise DegenerateInput(f"post-filter corpus energy below floor at k={k}")
        return {"dc_bin_fraction": frac}, frac <= frac_max

    choice, entry = _walk("dc_suppression", "preemphasis_k", frac_max, ALPHA_CANDIDATES,
                          judge, "no filter strength suppresses the DC bins")
    omega = 2 * math.pi * 1000 / p.sample_rate
    alpha = PreemphasisConfig(choice).alpha
    gain = abs(1 - alpha * complex(math.cos(omega), -math.sin(omega)))
    entry["passband_gain_1khz_db"] = 20 * math.log10(gain)
    return choice, entry


def select_alpha(corpus, p: DesignPoint) -> int:
    return _decide_alpha(corpus, p)[0]


def _adder_terms(policy: WindowPolicy, n: int, bit_width: int) -> int:
    spec = window_coefficients(n, policy, bit_width)
    if policy == "exact":
        # full multiplier per tap; strictly costlier than any shift-add
        return n * bit_width
    return sum(len(a.terms) for a in spec.approxs if a is not None)


def _decide_window(_corpus, p: DesignPoint, leak_max: float = THRESHOLDS["leak_max"],
                   policies: tuple[WindowPolicy, ...] = WINDOW_CANDIDATES):
    """Leakage depends on the point only; the corpus is not read."""
    def judge(pol):
        leak = _leakage(replace(p, window_policy=pol))
        return {"leakage": leak}, leak <= leak_max

    order = sorted(policies, key=lambda pol: _adder_terms(pol, p.fft_size, p.bit_width))
    return _walk("window_leakage", "window_policy", leak_max, order, judge,
                 "no window policy meets the leakage bound", exhaustive=True)


def select_window_policy(
    p: DesignPoint,
    policies: tuple[WindowPolicy, ...] = WINDOW_CANDIDATES,
) -> WindowPolicy:
    return _decide_window(None, p, policies=policies)[0]


def _decide_fft_size(corpus, p: DesignPoint, loss_max: float = THRESHOLDS["loss_max"]):
    def judge(n):
        loss = _fft_loss(corpus, replace(p, fft_size=n))
        return {"loss": loss}, loss <= loss_max

    return _walk("fft_loss", "fft_size", loss_max, FFT_CANDIDATES, judge,
                 "even the reference size exceeds the loss bound")


def select_fft_size(corpus, p: DesignPoint, loss_max: float = THRESHOLDS["loss_max"]) -> int:
    return _decide_fft_size(corpus, p, loss_max)[0]


def _decide_mel_shape(corpus, p: DesignPoint, delta_max: float = THRESHOLDS["delta_max"]):
    def judge(shape):
        if shape == "triangular":  # the reference: zero delta by definition
            return {"delta": 0.0}, True
        delta = _mel_delta(corpus, p)
        return {"delta": delta}, delta <= delta_max

    return _walk("mel_shape_delta", "mel_shape", delta_max, ("rectangular", "triangular"),
                 judge, "no mel shape meets the delta bound", exhaustive=True)


def select_mel_shape(corpus, p: DesignPoint,
                     delta_max: float = THRESHOLDS["delta_max"]) -> MelShape:
    return _decide_mel_shape(corpus, p, delta_max)[0]


def evaluate_point(p: DesignPoint, corpus) -> DesignMetrics:
    """All metric fields of one design point against the bundled criteria."""
    if not corpus:
        raise DegenerateInput("corpus is empty")
    power, area = cost_model(p)
    return DesignMetrics(
        power_proxy=power, area_proxy=area,
        power_retention=_retention(corpus, (p.sample_rate,))[0],
        dc_bin_fraction=_dc_fraction(corpus, p)[0], leakage=_leakage(p),
        spectro_error=_fft_loss(corpus, p), mel_shape_delta=_mel_delta(corpus, p))


# ---------------------------------------------------------------------------
# the corpus and the full exploration run
# ---------------------------------------------------------------------------

def _corpus(corpus_dir: str | Path | None) -> tuple[str, list[SignalBuffer], Callable[[int], list[SignalBuffer]]]:
    """(digest, buffers at their native rate, at_rate) of the bundled corpus or a WAV directory.

    at_rate(rate) renders the bundled signals at rate, or decimates each WAV
    to it, raising InvalidFactor unless its rate is a multiple of rate.
    """
    if corpus_dir is None:
        return corpus_digest(), corpus_signals(44100), corpus_signals
    path = Path(corpus_dir)
    if not path.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {corpus_dir}")
    paths = sorted(path.glob("*.wav"))
    if not paths:
        raise FileNotFoundError(f"no .wav files under {path}")
    buffers = [read_wav(f) for f in paths]
    h = hashlib.sha256()
    for f in paths:
        h.update(f.name.encode())
        h.update(f.read_bytes())

    def at_rate(rate: int) -> list[SignalBuffer]:
        for b in buffers:
            if b.sample_rate % rate:
                raise InvalidFactor(
                    f"cannot resample {b.sample_rate} Hz to {rate} Hz by an integer factor")
        return [decimate(b, b.sample_rate // rate) for b in buffers]  # factor 1 returns b

    return h.hexdigest(), buffers, at_rate


class DseStageError(Exception):
    """A selection stage failed; .report carries the partial decision log."""

    def __init__(self, cause: Exception, report: DseReport) -> None:
        super().__init__(str(cause))
        self.cause = cause
        self.report = report


# the decisions after bandwidth, in order, with their threshold names
_CHAIN = (
    (_decide_bitwidth, "err_max"),
    (_decide_alpha, "frac_max"),
    (_decide_window, "leak_max"),
    (_decide_fft_size, "loss_max"),
    (_decide_mel_shape, "delta_max"),
)


def run_dse(corpus_dir: str | Path | None = None, config: dict | None = None) -> DseReport:
    """Run all six selection stages in order and report the chosen point.

    corpus_dir of None uses the bundled corpus; otherwise the directory
    must hold mono 16-bit WAV files.  config may override the criterion
    thresholds in THRESHOLDS with finite numbers; anything else raises ConfigInvalid.
    """
    cfg = dse_thresholds(config)
    digest, native, at_rate = _corpus(corpus_dir)
    report = DseReport(corpus_digest=digest)
    p = DesignPoint()
    try:
        rate, entry = _decide_bandwidth(native, cfg["retention_min"])
        del native  # frees the bundled 44.1 kHz renders (1.6 MB) before the pipeline-heavy decisions
        report.decisions.append(entry)
        p = replace(p, sample_rate=rate)
        working = at_rate(rate)
        for decide, key in _CHAIN:
            value, entry = decide(working, p, cfg[key])
            report.decisions.append(entry)
            p = replace(p, **{entry["parameter"]: value})
    except Exception as exc:
        report.error = f"{type(exc).__name__}: {exc}"
        raise DseStageError(exc, report) from exc

    power, area = cost_model(p)
    report.chosen_point = p
    report.cost = {"power_proxy": power, "area_proxy": area}
    return report
