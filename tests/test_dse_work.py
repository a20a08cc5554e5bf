"""The DSE's once-per-signal work against the per-candidate calls it replaced.

Bandwidth reads every candidate rate from one periodogram per signal, the
power-only measures stop the front end after the power spectrum, and the
bit-width walk takes its float reference once per signal unless the window
is csd2.  Each is checked here, value for value, against an oracle that
recomputes per candidate, and the transform counts of one bundled run_dse()
are pinned so the saving cannot silently come undone.
"""

from dataclasses import replace

import numpy as np
import pytest

import kwsflow.frontend as fe
from kwsflow.corpus import corpus_signals
from kwsflow.dse import (
    BIT_CANDIDATES,
    RATE_CANDIDATES,
    DesignPoint,
    DseStageError,
    _decide_bandwidth,
    _decide_bitwidth,
    _power,
    _retention,
    run_dse,
    top_peak_bins,
)
from kwsflow.errors import DimensionMismatch, EmptySignal
from kwsflow.frontend import PipelineConfig, mfcc_pipeline
from kwsflow.signal import SignalBuffer, band_power_fractions, write_wav


# ------------------------------------------------------------------ oracles


def band_power_fraction_oracle(s, cutoff_hz):
    """One full periodogram per cutoff (the former per-candidate call)."""
    spectrum = np.fft.fft(s.samples)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    freqs = np.abs(np.fft.fftfreq(len(s), d=1.0 / s.sample_rate))
    total = power.sum()
    return 1.0 if total == 0 else float(power[freqs <= cutoff_hz].sum() / total)


def bitwidth_entry_oracle(corpus, p, err_max=0.10):
    """_decide_bitwidth's log entry with both modes' mfcc_pipeline run per width."""
    logged = []
    for b in BIT_CANDIDATES:
        q = replace(p, bit_width=b)
        sets_match, worst = True, 0.0
        for s in corpus:
            pf = mfcc_pipeline(s, q.pipeline_config(mode="float")).power
            px = mfcc_pipeline(s, q.pipeline_config(mode="fixed")).power
            ref = top_peak_bins(pf)
            same = (np.sort(ref, axis=1) == np.sort(top_peak_bins(px), axis=1)).all(axis=1)
            sets_match = sets_match and bool(same.all())
            rows, cols = np.nonzero(same[:, None] & (ref >= 0))
            bins = ref[rows, cols]
            mf = np.sqrt(pf[rows, bins])
            worst = float((np.abs(np.sqrt(px[rows, bins]) - mf) / mf).max(initial=worst))
        feasible = sets_match and worst <= err_max
        logged.append({"value": b, "peak_sets_match": sets_match, "worst_peak_error": worst,
                       "feasible": feasible})
        if feasible:
            return {"criterion": "bitwidth", "parameter": "bit_width", "threshold": err_max,
                    "candidates": logged, "selection": b}
    raise AssertionError("no feasible width")


# ----------------------------------------------------------------- bandwidth

CORPORA = {
    "bundled_44k": lambda: corpus_signals(44100),
    "bundled_16k": lambda: corpus_signals(16000),
    "all_zero": lambda: [SignalBuffer(np.zeros(1000), 8000)],
}


@pytest.mark.parametrize("name", CORPORA)
def test_batched_fractions_equal_the_per_call_oracle(name):
    corpus = CORPORA[name]()
    for s in corpus:
        cutoffs = [min(rate, s.sample_rate) / 2 for rate in RATE_CANDIDATES]
        got = band_power_fractions(s, cutoffs)
        want = [band_power_fraction_oracle(s, c) for c in cutoffs]
        assert got == want
        assert [band_power_fractions(s, [c])[0] for c in cutoffs] == want
        if name == "all_zero":
            assert got == [1.0] * len(RATE_CANDIDATES)
    want = [float(np.mean([band_power_fraction_oracle(s, min(rate, s.sample_rate) / 2)
                           for s in corpus])) for rate in RATE_CANDIDATES]
    assert _retention(corpus, RATE_CANDIDATES) == want
    entry = _decide_bandwidth(corpus, 0.0)[1]
    assert [c["retention"] for c in entry["candidates"]] == want


def test_corpus_with_an_empty_buffer_fails_with_empty_signal(tmp_path):
    # checked before the transform: np.fft.fft of an empty array raises ValueError
    for i, s in enumerate(corpus_signals(8000)):
        write_wav(tmp_path / f"s{i}.wav", s)
    write_wav(tmp_path / "s9.wav", SignalBuffer(np.zeros(0), 8000))
    with pytest.raises(DseStageError) as exc:
        run_dse(corpus_dir=tmp_path)
    assert isinstance(exc.value.cause, EmptySignal)
    assert exc.value.report.decisions == []


# --------------------------------------------------------------- power prefix

CHOSEN = PipelineConfig(sample_rate=8000, bit_width=7, fft_size=32, window_policy="single_shift")
WIDE = PipelineConfig(sample_rate=16000, bit_width=12, fft_size=256, window_policy="csd2",
                      mel_shape="triangular", n_mel=20, n_mfcc=13)
SIXTEEN_BIT = PipelineConfig(sample_rate=16000, bit_width=16, fft_size=64, n_mel=16, n_mfcc=12)


@pytest.mark.parametrize("mode", ["fixed", "float"])
@pytest.mark.parametrize("cfg", [CHOSEN, WIDE, SIXTEEN_BIT], ids=["chosen", "wide", "16bit"])
def test_power_prefix_matches_the_pipeline_byte_for_byte(cfg, mode):
    cfg = replace(cfg, mode=mode)
    for s in corpus_signals(cfg.sample_rate):
        got, want = _power(s, cfg), mfcc_pipeline(s, cfg).power
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


@pytest.mark.parametrize("mode", ["fixed", "float"])
def test_power_prefix_rejects_a_rate_mismatch(mode):
    s = corpus_signals(16000)[0]
    with pytest.raises(DimensionMismatch):
        _power(s, replace(CHOSEN, mode=mode))


# ------------------------------------------------------- float reference once


@pytest.mark.parametrize("policy", ["csd2", "single_shift"])
def test_bitwidth_walk_equals_per_width_oracle(policy):
    # csd2 taps depend on the width, so its walk must keep one float call per width
    corpus = corpus_signals(8000)
    p = DesignPoint(sample_rate=8000, window_policy=policy)
    assert _decide_bitwidth(corpus, p)[1] == bitwidth_entry_oracle(corpus, p)


# ---------------------------------------------------------------- work counts


def test_bundled_run_dse_transform_counts(monkeypatch):
    # 3 periodograms and 8 leakage transforms; 12 full front-end runs and 27
    # power-only ones: the bit-width walk's 12 fixed and 3 float, alpha's 9,
    # and the mel-shape delta's 3, which both shapes read.  The front end's
    # runs are counted at the level loop, which every one of them calls
    counts = {"fft": 0, "_fft_levels": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "fft", counting("fft", np.fft.fft))
    monkeypatch.setattr(fe, "_fft_levels", counting("_fft_levels", fe._fft_levels))
    run_dse()
    assert counts == {"fft": 11, "_fft_levels": 39}
