"""Bundled evaluation corpus for the design-space search.

Three deterministic speech-band multitone signals.  They stand in for
recorded audio so that every selection criterion is reproducible:
amplitudes and phases are calibrated such that each design decision has
a clear pass/fail boundary (the next-cheaper candidate fails, the chosen
one passes) while no rendering clips before or after pre-emphasis.

Signals are stored as analytic descriptions (tone table + DC offset)
and rendered on demand at any sample rate, so the "same" corpus can be
examined at 44.1 kHz for the bandwidth decision and at 8 kHz for the
rest of the pipeline without a resampling step in between.
"""

from __future__ import annotations

import numpy as np

from .signal import SignalBuffer
from .toolchain import _canonical_digest

CORPUS_VERSION = 1

# Tone tables: (freq_hz, amplitude) pairs with per-tone phases, a DC
# offset, and the length in samples at the 8 kHz reference rate.  All
# frequencies sit on 250 Hz bin centers of the 32-point transform.
_SIGNALS = (
    {
        "name": "voiced_a",
        "tones": [(1000, 0.592), (1750, 0.357), (2500, 0.273),
                  (1250, 0.184), (2750, 0.097)],
        "phases": [0.1397, 3.9490, 4.5061, 2.0214, 3.3540],
        "dc": 0.0,
        "n8k": 4000,
    },
    {
        "name": "voiced_b",
        "tones": [(1250, 0.495), (2000, 0.330), (3000, 0.253),
                  (1000, 0.220), (2250, 0.120), (2500, 0.100),
                  (3250, 0.060)],
        "phases": [1.2320, 3.8885, 5.3480, 6.0267, 0.0904, 5.7913, 3.8173],
        "dc": 0.0,
        "n8k": 4000,
    },
    {
        "name": "hum_dc",
        "tones": [(1250, 0.430), (1750, 0.070)],
        "phases": [4.9807, 5.7141],
        "dc": 0.48,
        "n8k": 28000,
    },
)


def _render(spec: dict, sample_rate: int) -> SignalBuffer:
    n = int(round(spec["n8k"] * sample_rate / 8000))
    t = np.arange(n) / sample_rate
    x = np.full(n, float(spec["dc"]))
    for (freq, amp), phase in zip(spec["tones"], spec["phases"]):
        x += amp * np.sin(2 * np.pi * freq * t + phase)
    return SignalBuffer(x, sample_rate)


def corpus_signals(sample_rate: int = 8000) -> list[SignalBuffer]:
    """Render every corpus signal at the requested rate."""
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    return [_render(s, sample_rate) for s in _SIGNALS]


def corpus_digest() -> str:
    """SHA-256 over the canonical JSON form of the signal table."""
    return _canonical_digest({"version": CORPUS_VERSION, "signals": _SIGNALS})
