"""Signal generation, WAV I/O, band power, decimation, window leakage."""

import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

import kwsflow
from kwsflow.errors import (
    DegenerateWindow,
    EmptySignal,
    InvalidFactor,
    InvalidParams,
    UnsupportedFormat,
)
from kwsflow.frontend import window_coefficients
from kwsflow.signal import (
    SignalBuffer,
    _one_pole,
    band_power_fractions,
    decimate,
    gen_signal,
    read_wav,
    spectral_leakage,
    write_wav,
)


def _sine(freq, sr=8000, n=8000, amp=0.5):
    return gen_signal("sine", {"freq": freq, "amp": amp}, sample_rate=sr, n=n)


def test_gen_signal_deterministic():
    a = gen_signal("noise", {"amp": 0.3}, seed=7, n=1024)
    b = gen_signal("noise", {"amp": 0.3}, seed=7, n=1024)
    assert np.array_equal(a.samples, b.samples)
    c = gen_signal("noise", {"amp": 0.3}, seed=8, n=1024)
    assert not np.array_equal(a.samples, c.samples)


def test_gen_signal_sine_shape_and_peak():
    s = _sine(1000, amp=0.5)
    assert s.samples.shape == (8000,)
    assert s.sample_rate == 8000
    assert abs(np.max(np.abs(s.samples)) - 0.5) < 1e-3


def test_gen_signal_rejects_unknown_kind_and_bad_params():
    with pytest.raises(InvalidParams):
        gen_signal("chirp")
    with pytest.raises(InvalidParams):
        gen_signal("sine", {"freq": 1000.0, "amp": 1.5})
    with pytest.raises(InvalidParams):
        gen_signal("multitone", {"freqs": [100, 200], "amps": [0.1]})


def test_gen_signal_speechlike_mostly_below_4khz():
    s = gen_signal("speechlike", sample_rate=16000, n=16000, seed=3)
    assert band_power_fractions(s, [4000.0])[0] >= 0.90


@pytest.mark.parametrize("n", [1, 7, 400, 8000])
def test_speechlike_noise_shaping_matches_scipy_bit_for_bit(n):
    scipy_signal = pytest.importorskip("scipy.signal")
    for seed in range(5):
        v = np.random.default_rng(seed).standard_normal(n)
        ref = scipy_signal.lfilter([0.25], [1.0, -0.75], v)
        assert _one_pole(v).tobytes() == ref.tobytes()


def test_wav_round_trip_bit_exact(tmp_path):
    s = gen_signal("multitone", {"freqs": [500, 1250], "amps": [0.4, 0.2]}, n=4000)
    p = tmp_path / "x.wav"
    write_wav(p, s)
    back = read_wav(p)
    assert back.sample_rate == s.sample_rate
    # write quantizes to int16; a second round trip is exact
    write_wav(tmp_path / "y.wav", back)
    again = read_wav(tmp_path / "y.wav")
    assert np.array_equal(back.samples, again.samples)
    assert np.max(np.abs(back.samples - s.samples)) <= 1.0 / 32768 + 1e-12


def test_read_wav_rejects_stereo(tmp_path):
    p = tmp_path / "st.wav"
    with wave.open(str(p), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(b"\x00\x00" * 2 * 100)
    with pytest.raises(UnsupportedFormat):
        read_wav(p)


def test_read_wav_rejects_8bit(tmp_path):
    p = tmp_path / "b8.wav"
    with wave.open(str(p), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(8000)
        w.writeframes(b"\x80" * 100)
    with pytest.raises(UnsupportedFormat):
        read_wav(p)


def test_band_power_fraction_examples():
    assert band_power_fractions(_sine(1000), [2000.0])[0] > 0.99
    hi = _sine(5000, sr=16000, n=16000)
    assert band_power_fractions(hi, [4000.0])[0] < 0.01
    two = gen_signal(
        "multitone", {"freqs": [1000, 3000], "amps": [0.3, 0.3]}, n=8000
    )
    assert abs(band_power_fractions(two, [2000.0])[0] - 0.5) < 0.01


def test_band_power_fraction_monotone_and_bounded():
    s = gen_signal("speechlike", sample_rate=16000, n=8000, seed=5)
    cuts = [500.0, 1000.0, 2000.0, 4000.0, 8000.0]
    fracs = [band_power_fractions(s, [c])[0] for c in cuts]
    assert all(0.0 <= f <= 1.0 + 1e-12 for f in fracs)
    assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] > 0.999


def test_band_power_fraction_empty():
    with pytest.raises(EmptySignal):
        band_power_fractions(SignalBuffer(np.array([]), 8000), [1000.0])


def test_decimate_factor_one_is_identity():
    s = _sine(1000)
    out = decimate(s, 1)
    assert out.sample_rate == 8000
    assert np.array_equal(out.samples, s.samples)


def test_decimate_passband_amplitude_preserved():
    s = _sine(1000, sr=16000, n=16000, amp=0.5)
    out = decimate(s, 2)
    assert out.sample_rate == 8000
    core = out.samples[500:-500]
    assert abs(np.max(np.abs(core)) - 0.5) / 0.5 < 0.05


def test_decimate_stopband_attenuated():
    s = _sine(7000, sr=16000, n=16000, amp=0.5)
    out = decimate(s, 2)
    core = out.samples[500:-500]
    residual = np.sqrt(np.mean(core**2)) / (0.5 / np.sqrt(2))
    assert 20 * np.log10(residual + 1e-30) <= -40.0


@pytest.mark.parametrize("sr, factor", [(16000, 2), (16000, 4), (44100, 3), (48000, 6)])
def test_decimate_matches_scipy_bit_for_bit(sr, factor):
    scipy_signal = pytest.importorskip("scipy.signal")
    s = gen_signal("speechlike", sample_rate=sr, n=sr // 2, seed=factor)
    taps = scipy_signal.firwin(32 * factor + 1, 0.45 * (sr // factor / 2), fs=sr, window="hamming")
    ref = np.clip(scipy_signal.lfilter(taps, [1.0], s.samples)[::factor], -1.0, 1.0)
    out = decimate(s, factor)
    assert out.sample_rate == sr // factor
    assert out.samples.tobytes() == ref.tobytes()


def test_decimate_takes_a_numpy_integer_factor():
    s = _sine(1000, sr=16000, n=4000)
    out = decimate(s, np.int64(2))
    assert type(out.sample_rate) is int and out.sample_rate == 8000
    assert out.samples.tobytes() == decimate(s, 2).samples.tobytes()


def test_decimate_rejects_bad_factor():
    s = _sine(1000)
    with pytest.raises(InvalidFactor):
        decimate(s, 0)
    with pytest.raises(InvalidFactor):
        decimate(s, -2)
    with pytest.raises(InvalidFactor):
        decimate(s, True)
    with pytest.raises(InvalidFactor):
        decimate(s, 2.0)


def test_signal_buffer_rejects_two_dimensional_samples():
    # unchecked, mfcc_pipeline read the 2 rows as 2 samples: SignalTooShort
    with pytest.raises(InvalidParams, match="1-D"):
        SignalBuffer(np.zeros((2, 40)), 8000)


def test_signal_buffer_rejects_a_bool_rate():
    # unchecked, True read as 1 Hz
    with pytest.raises(InvalidParams, match="sample_rate"):
        SignalBuffer(np.zeros(40), True)


def test_signal_buffer_rejects_a_float_rate():
    # unchecked, write_wav rounded 8000.5 into the file header
    with pytest.raises(InvalidParams, match="sample_rate"):
        SignalBuffer(np.zeros(40), 8000.5)


def test_spectral_leakage_examples():
    rect = np.ones(32)
    hann = window_coefficients(32, "exact").values
    assert spectral_leakage(rect) > 0.10
    assert spectral_leakage(hann) <= 0.10


def test_spectral_leakage_scale_invariant():
    hann = window_coefficients(32, "exact").values
    assert abs(spectral_leakage(hann) - spectral_leakage(3.7 * hann)) < 1e-12


def test_spectral_leakage_degenerate():
    with pytest.raises(DegenerateWindow):
        spectral_leakage(np.zeros(32))


def modules_after_import(prefixes: tuple[str, ...]) -> str:
    """The modules starting with a prefix that `import kwsflow, kwsflow.cli` loads,
    in a fresh interpreter, so modules other tests imported do not count."""
    src = str(Path(kwsflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, kwsflow, kwsflow.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.strip()


def test_import_loads_no_scipy():
    assert modules_after_import(("scipy",)) == "[]"


def test_import_loads_no_http_stack():
    # only a remote reasoner needs it, and it cost `import kwsflow` 1.7 MB of RSS
    assert modules_after_import(("urllib.request", "http.client")) == "[]"
