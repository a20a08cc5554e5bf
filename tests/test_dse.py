"""Design-space exploration: stage selectors, cost model, the full run."""

import hashlib
import json

import numpy as np
import pytest

from kwsflow.corpus import corpus_signals
from kwsflow.dse import (
    DesignPoint,
    DseStageError,
    cost_model,
    evaluate_point,
    run_dse,
    select_alpha,
    select_bandwidth,
    select_bitwidth,
    select_fft_size,
    select_mel_shape,
    select_window_policy,
    top_peak_bins,
)
from kwsflow.errors import ConfigInvalid, DegenerateInput, InvalidFactor, NoFeasiblePoint
from kwsflow.signal import SignalBuffer, write_wav


class ToneCorpus:
    """Analytic multitone corpus rendered at any requested rate."""

    digest = "test-corpus"

    def __init__(self, tone_sets, dc=0.0, seconds=0.5):
        self.tone_sets = tone_sets
        self.dc = dc
        self.seconds = seconds

    def at_rate(self, rate):
        out = []
        n = int(self.seconds * rate)
        t = np.arange(n) / rate
        for tones in self.tone_sets:
            x = np.full(n, self.dc)
            for f, a in tones:
                x = x + a * np.sin(2 * np.pi * f * t)
            out.append(SignalBuffer(x, rate))
        return out

    def native(self):
        return self.at_rate(44100)


# ----------------------------------------------------------------- selectors


def test_bandwidth_low_tone_allows_4khz():
    corpus = ToneCorpus([[(500, 0.5)]])
    assert select_bandwidth(corpus.native()) == 4000


def test_bandwidth_bundled_needs_8khz():
    assert select_bandwidth(corpus_signals(44100)) == 8000


def test_bandwidth_high_tone_forces_native_rate():
    corpus = ToneCorpus([[(18000, 0.5)]], seconds=0.2)
    assert select_bandwidth(corpus.native()) == 44100


def test_bitwidth_bundled_is_7():
    assert select_bitwidth(corpus_signals(8000), DesignPoint()) == 7


def test_bitwidth_single_strong_tone_is_cheap():
    corpus = ToneCorpus([[(750, 0.9)]])
    assert select_bitwidth(corpus.at_rate(8000), DesignPoint()) <= 6


def test_alpha_zero_mean_tone_picks_smallest_k():
    corpus = ToneCorpus([[(1000, 0.5)]])
    assert select_alpha(corpus.at_rate(8000), DesignPoint()) == 3


def test_alpha_bundled_is_5():
    assert select_alpha(corpus_signals(8000), DesignPoint()) == 5


def test_alpha_silence_is_degenerate():
    corpus = ToneCorpus([[]], dc=0.0)
    with pytest.raises(DegenerateInput):
        select_alpha(corpus.at_rate(8000), DesignPoint())


def test_window_policy_prefers_cheapest_feasible():
    assert select_window_policy(DesignPoint()) == "single_shift"


def test_window_policy_rectangular_alone_infeasible():
    with pytest.raises(NoFeasiblePoint):
        select_window_policy(DesignPoint(), policies=("rectangular",))


def test_window_policy_exact_alone_feasible():
    assert select_window_policy(DesignPoint(), policies=("exact",)) == "exact"


def test_fft_size_thresholds():
    corpus = corpus_signals(8000)
    p = DesignPoint()
    assert select_fft_size(corpus, p) == 32
    assert select_fft_size(corpus, p, loss_max=10.0) == 16
    with pytest.raises(NoFeasiblePoint):
        select_fft_size(corpus, p, loss_max=0.0)


def test_mel_shape_thresholds():
    corpus = corpus_signals(8000)
    p = DesignPoint(window_policy="single_shift")
    assert select_mel_shape(corpus, p) == "rectangular"
    assert select_mel_shape(corpus, p, delta_max=0.0) == "triangular"


# ------------------------------------------------------------ scalar helpers


def test_top_peak_bins():
    row = np.zeros(17)
    row[3] = 10.0
    row[8] = 6.0
    row[12] = 1.0  # below a quarter of the max
    assert top_peak_bins(row[np.newaxis])[0].tolist() == [3, 8, -1]


def test_top_peak_bins_limits_to_three():
    row = np.zeros(17)
    for b, v in ((2, 9.0), (5, 8.0), (9, 7.0), (13, 6.0)):
        row[b] = v
    assert top_peak_bins(row[np.newaxis])[0].tolist() == [2, 5, 9]


def test_cost_model_reference_point_is_unity():
    assert cost_model(DesignPoint()) == (1.0, 1.0)


def test_cost_model_ratios():
    power, area = cost_model(DesignPoint(sample_rate=44100))
    assert abs(power - 5.5125) < 1e-9
    assert area == 1.0
    power, area = cost_model(DesignPoint(bit_width=14))
    assert power == 2.0 and area == 2.0
    power, area = cost_model(DesignPoint(fft_size=64))
    assert abs(power - 2.4) < 1e-9 and abs(area - 2.4) < 1e-9


def test_cost_model_monotone_in_each_knob():
    base = cost_model(DesignPoint())
    assert cost_model(DesignPoint(sample_rate=16000))[0] > base[0]
    assert cost_model(DesignPoint(bit_width=8))[0] > base[0]
    assert cost_model(DesignPoint(fft_size=64))[1] > base[1]


def test_design_point_validation():
    with pytest.raises(Exception):
        DesignPoint(sample_rate=11025)
    with pytest.raises(Exception):
        DesignPoint(bit_width=3)
    with pytest.raises(Exception):
        DesignPoint(fft_size=48)


# ------------------------------------------------------------------ full run


def test_evaluate_point_error_shrinks_with_bits():
    corpus = corpus_signals(8000)
    lo = evaluate_point(DesignPoint(bit_width=5), corpus)
    hi = evaluate_point(DesignPoint(bit_width=9), corpus)
    assert hi.spectro_error < lo.spectro_error


def test_run_dse_bundled_chosen_point():
    report = run_dse()
    p = report.chosen_point
    assert p.sample_rate == 8000
    assert p.bit_width == 7
    assert p.preemphasis_k == 5
    assert p.fft_size == 32
    assert p.window_policy == "single_shift"
    assert p.mel_shape == "rectangular"
    assert report.cost == {"power_proxy": 1.0, "area_proxy": 1.0}
    assert len(report.decisions) == 6


def test_run_dse_deterministic():
    a = run_dse().to_json()
    b = run_dse().to_json()
    assert a == b
    json.loads(a)  # well-formed


def test_run_dse_missing_directory():
    with pytest.raises(FileNotFoundError):
        run_dse(corpus_dir="/nonexistent/corpus/dir")


def _write_corpus(path, sample_rate):
    for i, s in enumerate(corpus_signals(sample_rate)):
        write_wav(path / f"s{i}.wav", s)


def test_run_dse_wav_directory_report_bytes(tmp_path):
    # the bundled signals as 48 kHz WAVs: decimated by 6 after the bandwidth
    # decision; the digest covers file names and bytes as well as every decision
    _write_corpus(tmp_path, 48000)
    report = run_dse(corpus_dir=tmp_path)
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "67ff6835fe77ece8e0effe015c34d6d998097e4d8871969c835579057f720169"


def test_run_dse_wav_directory_needs_an_integer_decimation_factor(tmp_path):
    _write_corpus(tmp_path, 44100)  # 44100 is not a multiple of the chosen 8000
    with pytest.raises(DseStageError) as exc:
        run_dse(corpus_dir=tmp_path)
    assert isinstance(exc.value.cause, InvalidFactor)
    assert [d["parameter"] for d in exc.value.report.decisions] == ["sample_rate"]


@pytest.mark.parametrize("rate, whole", [(8000, [8000, 16000, 44100]), (16000, [16000, 44100])])
def test_run_dse_wav_directory_below_the_top_candidate_rate(tmp_path, rate, whole):
    # the bandwidth walk is exhaustive: candidates at or above the corpus's
    # own rate keep all of its power instead of asking for a cutoff past Nyquist
    _write_corpus(tmp_path, rate)
    report = run_dse(corpus_dir=tmp_path)
    assert report.chosen_point.sample_rate == 8000
    assert len(report.decisions) == 6
    assert [c["value"] for c in report.decisions[0]["candidates"] if c["retention"] == 1.0] == whole


def test_run_dse_empty_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        run_dse(corpus_dir=tmp_path)


def test_run_dse_stage_failure_carries_partial_report():
    with pytest.raises(DseStageError) as exc:
        run_dse(config={"err_max": 0.0})
    report = exc.value.report
    assert report.chosen_point is None
    assert len(report.decisions) >= 1
    assert report.decisions[0]["parameter"] == "sample_rate"


def test_run_dse_rejects_unknown_threshold_before_any_stage():
    # a stage failure would surface as DseStageError, not ConfigInvalid
    with pytest.raises(ConfigInvalid, match="err_mx"):
        run_dse(config={"err_mx": 0.2, "loss_max": 0.3})


@pytest.mark.parametrize("value", ["x", True, None, [0.1]])
def test_run_dse_rejects_non_numeric_threshold_before_any_stage(value):
    with pytest.raises(ConfigInvalid, match="err_max"):
        run_dse(config={"err_max": value, "loss_max": 0.3})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_run_dse_rejects_non_finite_threshold_before_any_stage(value):
    with pytest.raises(ConfigInvalid, match="err_max"):
        run_dse(config={"err_max": value})


@pytest.mark.parametrize("bad", [
    {"bit_width": 7.5}, {"bit_width": 17}, {"fft_size": 32.0}, {"sample_rate": 8000.0},
    {"n_mel": True}, {"window_policy": "hann"},
])
def test_design_point_shares_the_pipeline_rules(bad):
    with pytest.raises(ConfigInvalid, match=next(iter(bad))):
        DesignPoint(**bad)
