"""Audio buffers, WAV I/O, deterministic test signals, spectral measures.

Everything here is a pure function over immutable buffers.  The
generators replace recorded audio with reproducible synthetic signals;
the spectral measures back the design-space selection criteria.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateWindow,
    EmptySignal,
    InvalidFactor,
    InvalidParams,
    Rule,
    UnsupportedFormat,
)

SPEECH_TONES_HZ = (300.0, 800.0, 1800.0, 3400.0)
POSITIVE_INT = Rule(int, lo=1)  # a sample rate, a decimation factor


@dataclass(frozen=True)
class SignalBuffer:
    """Mono audio: a 1-D array of float samples in [-1, 1] at a fixed integer sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        if np.ndim(self.samples) != 1:
            raise InvalidParams(f"samples must be 1-D, got shape {np.shape(self.samples)}")
        if not POSITIVE_INT.admits(self.sample_rate):
            raise InvalidParams(f"sample_rate must be {POSITIVE_INT}, got {self.sample_rate!r}")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidParams("samples must be finite")

    def __len__(self) -> int:
        return len(self.samples)


def read_wav(path: str | Path) -> SignalBuffer:
    """Read a 16-bit PCM mono WAV file, normalizing raw/32768 to [-1, 1); any other
    file, a cut or empty one included, raises UnsupportedFormat naming it."""
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1:
                raise UnsupportedFormat(f"{path}: expected mono, got {wf.getnchannels()} channels")
            if wf.getsampwidth() != 2:
                raise UnsupportedFormat(f"{path}: expected 16-bit PCM, got {wf.getsampwidth() * 8}-bit")
            if wf.getcomptype() != "NONE":
                raise UnsupportedFormat(f"{path}: expected uncompressed PCM, got {wf.getcomptype()}")
            sr, nframes = wf.getframerate(), wf.getnframes()
            data = wf.readframes(nframes)
    except (wave.Error, EOFError, RuntimeError) as exc:  # a bad header, or a chunk cut short (no message)
        raise UnsupportedFormat(f"{path}: not a whole WAV file ({str(exc) or 'a header or chunk is cut short'})") from exc
    if len(data) < 2 * nframes:  # a cut data chunk, a partial last frame, or an unknown-length header
        raise UnsupportedFormat(f"{path}: the data chunk holds {len(data) // 2} of the {nframes} frames its header declares")
    raw = np.frombuffer(data, dtype="<i2")
    return SignalBuffer(raw.astype(np.float64) / 32768.0, sr)


def write_wav(path: str | Path, buf: SignalBuffer) -> None:
    """Write a buffer as 16-bit PCM mono WAV; exact inverse of read_wav."""
    raw = np.clip(np.rint(buf.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(buf.sample_rate)
        wf.writeframes(raw.tobytes())


def gen_signal(
    kind: str,
    params: dict | None = None,
    seed: int = 0,
    sample_rate: int = 8000,
    n: int = 8000,
) -> SignalBuffer:
    """Deterministic test signal generator.

    Kinds:
      sine       params: freq, amp, phase
      multitone  params: freqs, amps
      noise      params: amp
      speechlike tones at 300/800/1800/3400 Hz plus low-pass-shaped
                 noise, scaled so at least 90% of the power sits below
                 4 kHz; params: amp, dc_offset, noise_level
    """
    if sample_rate <= 0 or n <= 0:
        raise InvalidParams(f"sample_rate and n must be > 0, got {sample_rate}, {n}")
    p = dict(params or {})
    t = np.arange(n) / sample_rate

    if kind == "sine":
        freq = float(p.get("freq", 1000.0))
        amp = float(p.get("amp", 0.5))
        phase = float(p.get("phase", 0.0))
        if not 0 <= amp <= 1:
            raise InvalidParams(f"amp must be in [0, 1], got {amp}")
        x = amp * np.sin(2 * np.pi * freq * t + phase)
    elif kind == "multitone":
        freqs = [float(f) for f in p.get("freqs", SPEECH_TONES_HZ)]
        amps = [float(a) for a in p.get("amps", [1.0] * len(freqs))]
        if len(freqs) != len(amps) or not freqs:
            raise InvalidParams("freqs and amps must be nonempty and equal length")
        x = np.zeros(n)
        for f, a in zip(freqs, amps):
            x += a * np.sin(2 * np.pi * f * t)
        peak = np.max(np.abs(x))
        if peak > 1.0:
            x /= peak
    elif kind == "noise":
        amp = float(p.get("amp", 0.5))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        x *= amp / max(np.max(np.abs(x)), 1e-30)
    elif kind == "speechlike":
        x = _speechlike(p, seed, sample_rate, n)
    else:
        raise InvalidParams(f"unknown signal kind: {kind!r}")
    return SignalBuffer(np.clip(x, -1.0, 1.0), sample_rate)


def _speechlike(p: dict, seed: int, sample_rate: int, n: int) -> np.ndarray:
    amp = float(p.get("amp", 0.6))
    dc_offset = float(p.get("dc_offset", 0.0))
    noise_level = float(p.get("noise_level", 0.15))
    tone_amps = p.get("tone_amps", (1.0, 0.8, 0.5, 0.35))
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for f, a in zip(SPEECH_TONES_HZ, tone_amps):
        if f < sample_rate / 2:
            x += float(a) * np.sin(2 * np.pi * f * t)
    if noise_level > 0:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(n)
        # one-pole smoothing keeps most noise power in the speech band
        noise = _one_pole(noise)
        noise /= max(np.max(np.abs(noise)), 1e-30)
        x += noise_level * np.max(np.abs(x)) * noise
    x *= amp / max(np.max(np.abs(x)), 1e-30)
    return x + dc_offset


def _one_pole(v: np.ndarray) -> np.ndarray:
    """y[i] = 0.25 v[i] + 0.75 y[i-1], rounded as lfilter([0.25], [1, -0.75]) rounds it."""
    acc = 0.0
    return np.array([acc := 0.25 * x + 0.75 * acc for x in v.tolist()])


def band_power_fractions(s: SignalBuffer, cutoffs_hz) -> list[float]:
    """Fraction of periodogram power at frequencies <= each cutoff (DC included), all from one
    periodogram, whose re^2 + im^2 rounds each operation, so no bit depends on numpy's SIMD dispatch."""
    if len(s) == 0:
        raise EmptySignal("cannot measure an empty signal")
    for cutoff_hz in cutoffs_hz:
        if not 0 < cutoff_hz <= s.sample_rate / 2:
            raise InvalidParams(f"cutoff must be in (0, sr/2], got {cutoff_hz}")
    spectrum = np.fft.fft(s.samples)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    freqs = np.abs(np.fft.fftfreq(len(s), d=1.0 / s.sample_rate))
    total = power.sum()
    if total == 0:
        return [1.0] * len(cutoffs_hz)
    return [float(power[freqs <= cutoff_hz].sum() / total) for cutoff_hz in cutoffs_hz]


def decimate(s: SignalBuffer, factor: int) -> SignalBuffer:
    """Anti-alias low-pass then keep every factor-th sample.

    Windowed-sinc FIR, cutoff at 0.45 of the new Nyquist; the Hamming
    window's 53 dB stopband clears the 40 dB floor.  The taps are scipy's
    firwin(window="hamming") bit for bit; its 1 - 0.54 is not the float 0.46.
    """
    if not POSITIVE_INT.admits(factor):
        raise InvalidFactor(f"factor must be {POSITIVE_INT}, got {factor!r}")
    factor = int(factor)
    if factor == 1:
        return s
    new_sr = s.sample_rate // factor
    if new_sr * factor != s.sample_rate:
        raise InvalidFactor(f"factor {factor} does not divide sample rate {s.sample_rate}")
    c = 0.45 * (new_sr / 2) / (0.5 * s.sample_rate)  # cutoff over the old Nyquist
    numtaps = 32 * factor + 1
    m = np.arange(numtaps) - 0.5 * (numtaps - 1)
    taps = c * np.sinc(c * m) * (0.54 + (1 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, numtaps)))
    taps /= taps.sum()
    filtered = np.convolve(taps, s.samples)[:len(s)]
    return SignalBuffer(np.clip(filtered[::factor], -1.0, 1.0), new_sr)


def spectral_leakage(window: np.ndarray) -> float:
    """Worst-case out-of-lobe energy fraction for on-bin and half-bin tones.

    Test tones sit at bin N/4 and N/4 + 0.5.  For each, energy in DFT
    bins within one bin of the tone frequency (and of its image) counts
    as captured; the metric is the worst leaked fraction of the two.
    """
    w = np.asarray(window, dtype=np.float64)
    n = len(w)
    if n < 8:
        raise InvalidParams(f"window length must be >= 8, got {n}")
    if not np.any(w):
        raise DegenerateWindow("window is all zeros")
    k = np.arange(n)
    worst = 0.0
    for f0 in (n / 4, n / 4 + 0.5):
        tone = np.cos(2 * np.pi * f0 * k / n)
        power = np.abs(np.fft.fft(w * tone)) ** 2
        def circ_dist(target: float) -> np.ndarray:
            d = np.abs(k - target) % n
            return np.minimum(d, n - d)
        captured = (circ_dist(f0) <= 1.0) | (circ_dist(n - f0) <= 1.0)
        leaked = 1.0 - power[captured].sum() / power.sum()
        worst = max(worst, float(leaked))
    return worst
