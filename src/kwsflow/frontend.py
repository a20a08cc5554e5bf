"""Keyword-spotting MFCC front end, bit-accurate and floating-point.

The pipeline is pre-emphasis -> framing/windowing -> FFT -> power
spectrum -> mel filterbank -> log -> DCT.  In "fixed" mode every stage
runs on raw integers against the configured Q-format, using shift-add
constant multiplies and saturating accumulation the way a synthesized
datapath would.  In "float" mode the same stages run in double
precision and serve as the oracle.

The FFT follows a radix-2^2 decimation-in-frequency dataflow: pairs of
butterfly stages with trivial -j rotations between them and twiddle
multiplies after each pair, plus a trailing plain radix-2 stage when
log2(N) is odd.  Both modes run one level loop on separate re and im
planes; fixed mode halves every stage output, for a known total gain of
1/N.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, get_args

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    InvalidSize,
    NegativeInput,
    Rule,
    SignalTooShort,
    TooManyFilters,
    UnsupportedFormat,
    ZeroReference,
    check_fields,
)
from .fixedpoint import (
    QFormat,
    ShiftAddApprox,
    approx_csd,
    mul_raw_array,
    quantize_array,
    rshift_round_even_array,
    saturate_array,
    shift_add_planes,
    shift_add_raw_array,
)
from .signal import SignalBuffer

ALLOWED_FFT_SIZES = (16, 32, 64, 128, 256)
WindowPolicy = Literal["exact", "csd2", "single_shift", "rectangular"]
MelShape = Literal["rectangular", "triangular"]
Mode = Literal["fixed", "float"]

PIPELINE_RULES = {  # PipelineConfig's fields
    "sample_rate": Rule(int, lo=1),
    "bit_width": Rule(int, lo=2, hi=16),
    "preemphasis_k": Rule(int, lo=1),
    "fft_size": Rule(int, allowed=ALLOWED_FFT_SIZES),
    "frame_hop": Rule(int, lo=0),  # 0 means fft_size // 2
    "window_policy": Rule(str, allowed=get_args(WindowPolicy)),
    "mel_shape": Rule(str, allowed=get_args(MelShape)),
    "n_mel": Rule(int, lo=1),
    "n_mfcc": Rule(int, lo=1),
    "mode": Rule(str, allowed=get_args(Mode)),
}

MEL_SCALE = 2595.0
MEL_BREAK_HZ = 700.0

# Q-format of fixed-mode log outputs: 4 fraction bits per the
# MSB-plus-interpolated-fraction scheme, enough integer range for any
# energy format used here.
LOG_FORMAT = QFormat(12, 4)
# Q-format of dct_ii's serial accumulator: LOG_FORMAT with 4 more integer bits.
DCT_ACC_FORMAT = QFormat(16, 4)
# Energy floor of the log stage, and the DSE's silence threshold.  A fixed
# constant rather than one LSB of the current energy format: the floor
# belongs to the comparison metric, so it must not move when candidate bit
# widths change.  2^-12 is one LSB of the 7-bit reference energy format.
ENERGY_FLOOR = 2.0 ** -12
# Words (frames x N) per block of window, FFT and power, which work row by
# row, so the block size moves no bit.  A block bounds the FFT's temporaries
# as the SDF pipeline's N - 1 delay words bound the hardware's; smaller
# blocks are slower, since each FFT call pays a per-level overhead.
BLOCK_WORDS = 1 << 16
_LOG_LUT = np.array([math.log2(1 + i / 16) for i in range(17)])


@dataclass(frozen=True)
class PreemphasisConfig:
    """High-pass coefficient alpha = 1 - 2^-k."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"shift count k must be >= 1, got {self.k}")

    @property
    def alpha(self) -> float:
        return 1.0 - 2.0 ** -self.k


@dataclass(frozen=True)
class PipelineConfig:
    sample_rate: int = 8000
    bit_width: int = 7
    preemphasis_k: int = 5
    fft_size: int = 32
    frame_hop: int = 0  # 0 means fft_size // 2
    window_policy: WindowPolicy = "exact"
    mel_shape: MelShape = "rectangular"
    n_mel: int = 8
    n_mfcc: int = 8
    mode: Mode = "float"

    def __post_init__(self) -> None:
        check_fields(vars(self), PIPELINE_RULES, "pipeline config")
        if self.frame_hop == 0:
            object.__setattr__(self, "frame_hop", self.fft_size // 2)
        if self.n_mel > self.fft_size // 2:
            raise TooManyFilters(f"n_mel {self.n_mel} > N/2 = {self.fft_size // 2}")
        if self.n_mfcc > self.n_mel:
            raise ConfigInvalid(f"need n_mfcc <= n_mel, got n_mfcc {self.n_mfcc}, n_mel {self.n_mel}")

    @property
    def sample_format(self) -> QFormat:
        return QFormat(self.bit_width, self.bit_width - 1)

    @property
    def energy_format(self) -> QFormat:
        # squaring doubles the word; a little headroom absorbs the
        # filterbank accumulation before saturation kicks in
        frac = 2 * (self.bit_width - 1)
        return QFormat(min(32, frac + 2 + 5), frac)


@dataclass(frozen=True)
class MelFilterbank:
    weights: np.ndarray  # (n_mel, N/2 + 1)
    edges_hz: np.ndarray  # n_mel + 2 boundary frequencies


@dataclass(frozen=True)
class MfccFrame:
    coefficients: np.ndarray
    index: int


class _Frames(Sequence):
    """Read-only sequence of MfccFrame(rows[i], i), each built when read."""

    def __init__(self, rows: np.ndarray) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return MfccFrame(self._rows[i], range(len(self))[i])


@dataclass(frozen=True)
class PipelineResult:
    """Per-frame MFCCs plus the intermediate matrices oracles compare on.

    frames hold row views of one private copy of mfcc, so writing into a
    frame leaves mfcc unchanged.
    """

    frames: Sequence[MfccFrame]
    mfcc: np.ndarray  # (n_frames, n_mfcc), real values
    log_mel: np.ndarray  # (n_frames, n_mel), real values
    power: np.ndarray  # (n_frames, N/2 + 1), real values
    config: PipelineConfig


def preemphasis(samples: np.ndarray, cfg: PreemphasisConfig, fmt: QFormat | None = None) -> np.ndarray:
    """First-order high-pass y[n] = x[n] - alpha * x[n-1], x[-1] = 0.

    With a format given, runs bit-accurately: alpha * x is realized as
    x - (x >> k) on raw integers; it and the subtraction saturate.
    """
    x = np.asarray(samples, dtype=np.float64 if fmt is None else np.int64)
    y = np.empty_like(x)
    y[:1] = 0  # alpha * x[-1]
    if fmt is None:
        np.multiply(x[:-1], cfg.alpha, out=y[1:])
        return np.subtract(x, y, out=y)
    np.subtract(x[:-1], np.right_shift(x[:-1], cfg.k, out=y[1:]), out=y[1:])
    np.subtract(x, saturate_array(y, fmt, out=y), out=y)
    return saturate_array(y, fmt, out=y)


@dataclass(frozen=True)
class WindowSpec:
    """Window coefficients plus their shift-add realizations (if any)."""

    values: np.ndarray  # effective real coefficient of each tap
    approxs: tuple[ShiftAddApprox | None, ...]  # None only for "exact"


def window_coefficients(n: int, policy: WindowPolicy, bit_width: int = 7) -> WindowSpec:
    """Hanning taps under the requested quantization policy.

    exact        w[i] = 0.5 * (1 - cos(2 pi i / (n-1)))
    single_shift each nonzero tap snapped to the nearest power of two
                 in the log domain (zero endpoints stay zero)
    csd2         two-term CSD approximation per tap
    rectangular  all ones
    """
    if n < 8:
        raise ValueError(f"window length must be >= 8, got {n}")
    if policy == "rectangular":
        one = ShiftAddApprox(((1, 0),))
        return WindowSpec(np.ones(n), (one,) * n)
    w = 0.5 * (1.0 - np.cos(2 * np.pi * np.arange(n) / (n - 1)))
    if policy == "exact":
        return WindowSpec(w, (None,) * n)
    approxs: list[ShiftAddApprox] = []
    for wi in w:
        if wi <= 0.0:
            approxs.append(ShiftAddApprox(()))
        elif policy == "single_shift":
            k = max(0, round(-math.log2(wi)))
            approxs.append(ShiftAddApprox(((1, k),)))
        elif policy == "csd2":
            approxs.append(approx_csd(wi, 2, bit_width - 1))
        else:
            raise ValueError(f"unknown window policy: {policy!r}")
    return WindowSpec(np.array([a.value for a in approxs], dtype=float), tuple(approxs))


def _check_raw(words: np.ndarray, fmt: QFormat) -> None:
    """UnsupportedFormat unless words are raw integers in fmt, the range each fixed stage sizes its words to."""
    if not np.issubdtype(words.dtype, np.integer):
        raise UnsupportedFormat(f"fixed mode takes raw integer words, got {words.dtype}")
    if words.size and (words.min() < fmt.raw_min or words.max() > fmt.raw_max):
        raise UnsupportedFormat(f"fixed mode takes raw words in [{fmt.raw_min}, {fmt.raw_max}], got {words.min()}..{words.max()}")


def frame_and_window(samples: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Slice into full frames at the configured hop and apply the window.

    Returns (n_frames, N), the transpose of C-ordered (N, n_frames) words, the FFT's plane layout.
    Float mode multiplies by the effective coefficients; fixed mode takes raw integer samples in the sample
    format (else UnsupportedFormat) and applies the bank of per-tap shift-add networks (exact taps: a quantized
    int64 multiply) to all frames at once on int32 words, then saturates: a sum is within 2 x 2^15 = 2^16.
    """
    if cfg.mode == "fixed":
        _check_raw(np.asarray(samples), cfg.sample_format)
    return _window(samples, cfg)


def _window(samples: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """frame_and_window without its input check, for the block loop's own saturated words."""
    n = cfg.fft_size
    if len(samples) < n:
        raise SignalTooShort(f"need at least {n} samples, got {len(samples)}")
    frames = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(samples, n)[::cfg.frame_hop].T,
                                  np.int32 if cfg.mode == "fixed" else None)
    taps = _plan(cfg).taps
    if cfg.mode == "float":
        return (frames * taps).T
    if cfg.window_policy == "exact":
        return mul_raw_array(frames, taps, cfg.sample_format).T
    return shift_add_raw_array(frames, taps, cfg.sample_format).T


def _half(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """rshift_round_even_array(v, 1) in place, with scratch q: a tie (odd v) rounds to the even neighbour."""
    np.right_shift(v, 1, out=q)
    v &= q
    v &= 1
    v += q
    return v


@lru_cache(maxsize=None)
def _twiddle_rom(m: int, fmt: QFormat | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twiddle ROM of one size-m level, for its three rotated branches.

    Read-only (w, jw, trivial): the words w and jw = j w = (-w_im, w_re) as
    (2, 3, 1, m/4, 1) re and im planes, whose row k - 1 holds W_m^(k i) =
    exp(-2 pi j k i / m) for output k of each block, and the (3, 1, m/4, 1)
    trivial mask (1 and -j).  Words are float64 parts of W with fmt None; in fmt they are
    int16 while _fft_levels' bound sqrt(2) (raw_max + 1) (2^f + 1) < 2^15 (up to 8 bits:
    23,351; 93,047 at 9), else int32, and a trivial word is exact, +-2^frac_bits or 0
    (+1 is one past raw_max), so its rounded multiply is an exact rotation.
    """
    w = np.exp(-2j * np.pi * (np.arange(1, 4).reshape(3, 1, 1, 1) * np.arange(m // 4)[:, np.newaxis]) / m)
    trivial = np.abs(w.real * w.imag) < 1e-12  # one part 0, the other +-1
    rom = np.array([w.real, w.imag])
    if fmt is not None:
        word = np.int16 if math.sqrt(2) * (fmt.raw_max + 1) * ((1 << fmt.frac_bits) + 1) < 1 << 15 else np.int32
        rom = np.where(trivial, np.rint(rom * (1 << fmt.frac_bits)), quantize_array(rom, fmt)).astype(word)
    rom = np.array([rom, [-rom[1], rom[0]]])
    for a in (rom, trivial):
        a.setflags(write=False)
    return rom[0], rom[1], trivial


def _fft_r22(re: np.ndarray, im: np.ndarray, fmt: QFormat | None) -> tuple[np.ndarray, np.ndarray]:
    """_fft_levels over (frames, N) re and im, as (frames, N) views, widened to int64 in fmt."""
    out = _fft_levels(re.T, im.T, fmt)
    return tuple((out if fmt is None else out.astype(np.int64)).transpose(0, 2, 1))


def _fft_levels(re: np.ndarray, im, fmt: QFormat | None) -> np.ndarray:
    """Radix-2^2 DIF over (N, frames) re and im (im may be a scalar), level by level, into (2, N, frames)
    planes in natural bin order: on the twiddle ROM's words, bit-accurately in fmt or float64 with fmt None.

    A size-m level holds re and im as the two planes of one (2, blocks, m,
    frames) array, so each step runs over whole rows of frames.  Stage 1 writes
    into a second array of that size and stage 2 writes back, pairing each plane
    of t2 with the other plane of t3, as -j t = (t_im, -t_re).  A twiddle takes
    u w from u times w and u times jw (_twiddle_rom), in the second array's
    dead words.  Each float product and sum is an elementwise ufunc call of its
    own, rounded alone under any SIMD dispatch, so no bit depends on the host.
    Stage 2 writes output r of block b to the next level's block r blocks + b
    (Stockham's autosort), so the last level's block r1 + 4 r2 + 16 r3 + ...
    holds that natural bin, and no permutation restores the order.

    Fixed mode halves every stage output and saturates stage 2's words and the
    rounded twiddle products.  With raw inputs in fmt (b <= 16 bits, f fraction
    bits), a multiply's saturated inputs have |v| <= sqrt(2) 2^(b-1) and a ROM
    pair |w| <= 2^f + 1 (a trivial one, (+-2^f, 0), is exact), so by
    Cauchy-Schwarz each part of v w is at most |v| |w| <= sqrt(2) (raw_max + 1)
    (2^f + 1): < 2^15 in the int16 words up to 8 bits, < 1.52e9 < 2^31 in int32
    at 16.  Its rounding stays within 2^f.  A butterfly sum is at most
    2 (raw_max + 1), covering the unsaturated -j bypass word.
    """
    fixed = fmt is not None
    n, n_frames = re.shape
    x = np.empty((2, 1, n, n_frames), _twiddle_rom(n, fmt)[0].dtype)
    x[0, 0], x[1, 0] = re, im
    t, m = np.empty_like(x), n
    while m >= 4:
        q, blocks = m // 4, n // m
        # stage 1 (span m/2), into t: [t0, t1] = [a, b] + [c, d], [t2, t3] = [a, b] - [c, d]
        halves, t = x.reshape(2, blocks, 2, 2, q, n_frames), t.reshape(2, blocks, 2, 2, q, n_frames)
        np.add(halves[:, :, 0], halves[:, :, 1], out=t[:, :, 0])
        np.subtract(halves[:, :, 0], halves[:, :, 1], out=t[:, :, 1])
        if fixed:
            _half(t, x.reshape(t.shape))
        t = t.reshape(2, blocks, 4, q, n_frames)
        t0, t1, (t2_re, t2_im), (t3_re, t3_im) = t.transpose(2, 0, 1, 3, 4)
        # stage 2 (span m/4), into x's words in twiddle exponent order: u0 = t0 + t1,
        # u2 = t2 - j t3, u1 = t0 - t1, u3 = t2 + j t3, where -j t3 = (t3_im, -t3_re)
        out = x.reshape(2, 4, blocks, q, n_frames)
        u0, u2, u1, u3 = out.transpose(1, 0, 2, 3, 4)
        np.add(t0, t1, out=u0)
        np.subtract(t0, t1, out=u1)
        np.add(t2_re, t3_im, out=u2[0])
        np.subtract(t2_im, t3_re, out=u2[1])
        np.subtract(t2_re, t3_im, out=u3[0])
        np.add(t2_im, t3_re, out=u3[1])
        if fixed:
            saturate_array(_half(out, t.reshape(out.shape)), fmt, out=out)
        if m > 4:  # every twiddle of a size-4 level is 1
            # u w = (u_re w_re - u_im w_im, u_im w_re + u_re w_im): u times w
            # into t's dead words, then u times jw = (-w_im, w_re) in place
            w, jw, trivial = _twiddle_rom(m, fmt)
            u, p = out[:, 1:], t.reshape(out.shape)[:, 1:]
            np.multiply(u, w, out=p)
            np.multiply(u, jw, out=u)
            np.subtract(u[1], u[0], out=u[1])
            np.subtract(p[0], p[1], out=u[0])
            if fixed:
                # every twiddle takes the rounded multiply with its ROM word; a trivial one (1, -j) is then an
                # exact rotation and, bypassing the multiplier in the hardware, is not saturated
                p = rshift_round_even_array(u, fmt.frac_bits, out=p)
                saturate_array(p, fmt, out=u)
                np.copyto(u, p, where=trivial)
        x, m = out.reshape(2, 4 * blocks, q, n_frames), q
    if m == 2:  # trailing radix-2 stage when log2(N) is odd, into t's words: output r of block b is bin r n/2 + b
        y = t.reshape(2, 2, n // 2, n_frames)
        np.add(x[:, :, 0], x[:, :, 1], out=y[:, 0])
        np.subtract(x[:, :, 0], x[:, :, 1], out=y[:, 1])
        if fixed:
            saturate_array(_half(y, x.reshape(y.shape)), fmt, out=y)
        x = y
    return x.reshape(2, n, n_frames)


def fft_r22sdf(frames_re: np.ndarray, frames_im: np.ndarray, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Radix-2^2 delay-feedback FFT over a batch of frames.

    Inputs are (n_frames, N): real samples in float mode, raw words of the
    sample format in fixed mode (else UnsupportedFormat), both of one shape
    (else DimensionMismatch).  Both modes run _fft_r22's level loop, float
    mode on float64 words with a gain of 1 and bits that do not depend on
    numpy's SIMD dispatch.  Outputs are F-ordered views in natural bin order.
    Fixed mode has a total gain of 1/N from the per-stage halving, runs on
    int16 words up to 8 bits, int32 above (_twiddle_rom), and returns int64.
    """
    if frames_re.ndim != 2 or frames_re.shape != frames_im.shape:
        raise DimensionMismatch(f"need two (n_frames, N) arrays of one shape, got {frames_re.shape}, {frames_im.shape}")
    n = frames_re.shape[1]
    if n not in ALLOWED_FFT_SIZES:
        raise InvalidSize(f"fft size must be one of {ALLOWED_FFT_SIZES}, got {n}")
    if cfg.mode == "float":
        if not (np.isrealobj(frames_re) and np.isrealobj(frames_im)):
            raise UnsupportedFormat(f"float mode takes real frames, got {frames_re.dtype} and {frames_im.dtype}")
        return _fft_r22(frames_re, frames_im, None)
    for f in (frames_re, frames_im):  # _fft_levels' word bound assumes raw words in the sample format
        _check_raw(f, cfg.sample_format)
    return _fft_r22(frames_re, frames_im, cfg.sample_format)


def power_spectrum(spec_re: np.ndarray, spec_im: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """|X[k]|^2 for k = 0..N/2 over a batch of frames.

    Fixed mode squares raw values exactly into the widened energy
    format (fraction bits doubled), saturating the sum.
    """
    n = spec_re.shape[1]
    half = n // 2 + 1
    if cfg.mode == "float":
        return spec_re[:, :half] ** 2 + spec_im[:, :half] ** 2
    efmt = cfg.energy_format
    re = spec_re[:, :half].astype(np.int64)
    im = spec_im[:, :half].astype(np.int64)
    return saturate_array(re * re + im * im, efmt)


def mel_map(value: float, direction: str = "to_mel") -> float:
    """Mel scale map m = 2595 log10(1 + f/700) and its closed-form inverse."""
    if value < 0:
        raise NegativeInput(f"input must be >= 0, got {value}")
    if direction == "to_mel":
        return MEL_SCALE * math.log10(1.0 + value / MEL_BREAK_HZ)
    if direction == "to_hz":
        return MEL_BREAK_HZ * (10.0 ** (value / MEL_SCALE) - 1.0)
    raise ValueError(f"direction must be to_mel or to_hz, got {direction!r}")


def build_mel_filterbank(cfg: PipelineConfig) -> MelFilterbank:
    """Filterbank with edges equally spaced on the mel scale.

    Rectangular filters partition bins 1..N/2: each bin belongs to
    exactly one filter.  Triangular filters use the standard
    rising/falling weights peaking at the filter center.
    """
    n = cfg.fft_size
    half = n // 2
    mel_max = mel_map(cfg.sample_rate / 2.0)
    edges_mel = np.linspace(0.0, mel_max, cfg.n_mel + 2)
    edges_hz = np.array([mel_map(m, "to_hz") for m in edges_mel])
    bin_hz = np.arange(half + 1) * cfg.sample_rate / n
    weights = np.zeros((cfg.n_mel, half + 1))
    if cfg.mel_shape == "rectangular":
        # band boundaries sit midway (in mel) between adjacent triangular
        # centers, so both shapes share band centers; boundaries are
        # snapped outward just enough that every band keeps one bin
        bin_mel = np.array([mel_map(f) for f in bin_hz])
        step = mel_max / (cfg.n_mel + 1)
        targets = np.concatenate(
            ([0.0], (np.arange(1, cfg.n_mel) + 0.5) * step, [mel_max])
        )
        cuts = [1]
        for i in range(1, cfg.n_mel):
            ideal = int(np.searchsorted(bin_mel, targets[i]))
            lo = cuts[-1] + 1
            hi = half + 1 - (cfg.n_mel - i)  # leave room for the rest
            cuts.append(min(max(ideal, lo), hi))
        cuts.append(half + 1)
        for m in range(cfg.n_mel):
            weights[m, cuts[m] : cuts[m + 1]] = 1.0
    else:
        for m in range(cfg.n_mel):
            lo, ctr, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
            rising = (bin_hz >= lo) & (bin_hz < ctr)
            falling = (bin_hz >= ctr) & (bin_hz <= hi)
            weights[m, rising] = (bin_hz[rising] - lo) / (ctr - lo)
            weights[m, falling] = (hi - bin_hz[falling]) / (hi - ctr)
    if not all(w.any() for w in weights):
        raise TooManyFilters("some filters have empty support; reduce n_mel")
    return MelFilterbank(weights, edges_hz)


def mel_energies(power_bins: np.ndarray, fb: MelFilterbank, cfg: PipelineConfig) -> np.ndarray:
    """Per-filter weighted energy sums over a batch of frames.

    Fixed mode puts every weight on the 2^-16 grid (a rectangular one is
    exactly 2^16, so its shift is exact), sums the exact products, below
    2^55 for 129 bins of energy < 2^31, and rounds back by 16 bits.
    """
    if power_bins.shape[1] != fb.weights.shape[1]:
        raise DimensionMismatch(
            f"{power_bins.shape[1]} power bins vs {fb.weights.shape[1]} filter taps"
        )
    if cfg.mode == "float":
        return power_bins @ fb.weights.T
    wq = quantize_array(fb.weights, QFormat(18, 16))
    return saturate_array(rshift_round_even_array(power_bins @ wq.T, 16), cfg.energy_format)


def log_compress(energies: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Base-2 log with a fixed floor (ENERGY_FLOOR).

    Float mode is log2(max(e, eps)).  Fixed mode reads the MSB position
    and the mantissa from frexp and interpolates the fraction linearly
    from a 16-entry log table, rounding the result to 4 fraction bits.
    """
    if cfg.mode == "float":
        return np.log2(np.maximum(energies, ENERGY_FLOOR))
    efmt = cfg.energy_format
    floor_raw = max(1, int(round(ENERGY_FLOOR * (1 << efmt.frac_bits))))
    e = np.maximum(np.asarray(energies, dtype=np.int64), floor_raw)
    # frexp is exact on integers below 2^53: e = mant 2^exp, mant in [0.5, 1),
    # so the MSB is exp - 1 and t16 = 16 (e - 2^msb) / 2^msb, exactly, below 16
    mant, exp = np.frexp(e.astype(np.float64))
    t16 = mant * 32 - 16
    seg = t16.astype(np.int64)
    lo = _LOG_LUT[seg]
    out = (exp - 1) + lo + (_LOG_LUT[seg + 1] - lo) * (t16 - seg) - efmt.frac_bits
    return quantize_array(out, LOG_FORMAT)


def dct_ii(log_energies: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """DCT-II: c[k] = sum_n x[n] cos(pi k (2n+1) / 2M), k < n_mfcc.

    Fixed mode takes each product x[n] * cos[k][n] with the two-term CSD
    form of the cosine, by shifts and adds on the raw log values, then
    sums the products in order n = 0 .. n_mel - 1, saturating the running
    sum after each term as a serial DCT_ACC_FORMAT accumulator does.
    mfcc_pipeline's log values (-192..112 raw) never saturate it; it is
    kept so any LOG_FORMAT input (else UnsupportedFormat) gets the datapath's
    bits.  It runs on int32 words and returns int64: |x| <= 2^11, so a sum
    plus a product stays within 2^15 + 2^12.
    """
    if log_energies.shape[1] != cfg.n_mel:
        raise DimensionMismatch(f"expected {cfg.n_mel} log energies, got {log_energies.shape[1]}")
    if cfg.mode == "float":
        return log_energies @ _plan(cfg).dct.T
    _check_raw(log_energies, LOG_FORMAT)
    return _dct_fixed(log_energies, cfg)


def _dct_fixed(log_energies: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Fixed dct_ii without its input checks, for the block loop's own LOG_FORMAT words."""
    # (n_mel, n_mfcc, frames); each two-term product of a 12-bit log value fits
    # DCT_ACC_FORMAT, so saturating it, and summing from the first, keeps the bits
    prods = shift_add_raw_array(log_energies.T.astype(np.int32)[:, np.newaxis], _plan(cfg).dct, DCT_ACC_FORMAT)
    acc = prods[0]
    for prod in prods[1:]:
        acc += prod
        saturate_array(acc, DCT_ACC_FORMAT, out=acc)
    return np.ascontiguousarray(acc.T, np.int64)


@dataclass(frozen=True, eq=False)
class _Plan:
    taps: np.ndarray  # window: float values or int32 exact taps (N, 1), or int32 (N, 1, depth, 2) planes
    filterbank: MelFilterbank
    dct: np.ndarray  # (n_mfcc, n_mel) DCT-II cosines, or int32 (n_mel, n_mfcc, 1, depth, 2) CSD planes


@lru_cache(maxsize=None)
def _plan(cfg: PipelineConfig) -> _Plan:
    """The constants cfg fixes, as the hardware fixes its ROM words and shift-add networks.

    Holds the window taps and DCT bank in the mode's form, int32 in fixed mode like the sums they
    meet (frame_and_window, dct_ii), and the mel filterbank.  cfg is frozen and checked when built, so
    equal configs share one plan; its arrays are read-only so no caller can change a later call's bits.
    """
    spec = window_coefficients(cfg.fft_size, cfg.window_policy, cfg.bit_width)
    k, n = np.ogrid[: cfg.n_mfcc, : cfg.n_mel]
    dct = np.cos(np.pi * k * (2 * n + 1) / (2 * cfg.n_mel))
    taps = spec.values[:, np.newaxis]  # indexed (n, 1): broadcast against (n, frames) samples
    if cfg.mode == "fixed":
        taps = (quantize_array(taps, cfg.sample_format) if cfg.window_policy == "exact"
                else shift_add_planes([[a] for a in spec.approxs])).astype(np.int32)
        # indexed (n, k, 1): dct_ii broadcasts them against (n, 1, frames) log values
        dct = shift_add_planes([[[approx_csd(c, 2, cfg.bit_width - 1)] for c in col]
                                for col in dct.T]).astype(np.int32)
    fb = build_mel_filterbank(cfg)
    for a in (taps, dct, fb.weights, fb.edges_hz):
        a.setflags(write=False)
    return _Plan(taps, fb, dct)


def _power_stage(s: SignalBuffer, cfg: PipelineConfig, tail: bool = False):
    """mfcc_pipeline's stages up to the power spectrum (raw energy words in fixed mode), per frame block in the
    FFT's plane layout from the window to the power, written into one C-ordered matrix, since the float mel
    matmul's bits depend on its layout.  With tail (fixed mode), each block also fills raw log_mel and mfcc."""
    if s.sample_rate != cfg.sample_rate:
        raise DimensionMismatch(
            f"signal rate {s.sample_rate} != config rate {cfg.sample_rate}; decimate first"
        )
    fixed = cfg.mode == "fixed"
    fmt = cfg.sample_format if fixed else None
    pre = PreemphasisConfig(cfg.preemphasis_k)
    n, hop = cfg.fft_size, cfg.frame_hop
    # below n samples this is one block, on which frame_and_window raises SignalTooShort
    n_frames = max(0, len(s.samples) - n) // hop + 1
    step = max(1, BLOCK_WORDS // n)
    power = np.empty((n_frames, n // 2 + 1), np.int64 if fixed else np.float64)
    if tail:
        log_mel, mfcc = (np.empty((n_frames, k), np.int64) for k in (cfg.n_mel, cfg.n_mfcc))
    for f0 in range(0, n_frames, step):
        lo = max(0, f0 * hop - 1)  # pre-emphasis reads the sample before the block, then drops it
        x = s.samples[lo : (min(f0 + step, n_frames) - 1) * hop + n]
        x = preemphasis(quantize_array(x, fmt) if fixed else x, pre, fmt)[f0 * hop - lo :]
        spec = _fft_levels(_window(x, cfg).T, 0, fmt)  # saturated, so fixed words are in fmt
        if not fixed:  # 1/N on the kept bins: the fixed datapath's per-stage halving has the same gain
            spec[:, : n // 2 + 1] /= n
        rows = slice(f0, f0 + step)
        power[rows] = power_spectrum(spec[0].T, spec[1].T, cfg)
        if tail:
            log_mel[rows] = _log_mel(power[rows], cfg)
            mfcc[rows] = _dct_fixed(log_mel[rows], cfg)
    return (power, log_mel, mfcc) if tail else power


def _log_mel(power: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """mfcc_pipeline's mel and log stages on a power matrix, raw log words in fixed mode."""
    return log_compress(mel_energies(power, _plan(cfg).filterbank, cfg), cfg)


def mfcc_pipeline(s: SignalBuffer, cfg: PipelineConfig) -> PipelineResult:
    """Run the full front end on one buffer; deterministic per config."""
    if cfg.mode == "float":  # whole matrices: the float mel and DCT matmuls' bits depend on the row count
        power = _power_stage(s, cfg)
        log_mel = _log_mel(power, cfg)
        mfcc = dct_ii(log_mel, cfg)
    else:  # each raw matrix turns real in place, through a float64 view of its words, so no copy sits beside it
        raws = zip(_power_stage(s, cfg, tail=True), (cfg.energy_format, LOG_FORMAT, LOG_FORMAT))
        power, log_mel, mfcc = (np.multiply(r, f.lsb, out=r.view(np.float64)) for r, f in raws)
    return PipelineResult(_Frames(mfcc.copy()), mfcc, log_mel, power, cfg)


def spectrogram_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius distance ||A - B|| / ||B|| (B is the reference)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    ref = np.linalg.norm(b)
    if ref == 0:
        raise ZeroReference("reference spectrogram has zero norm")
    return float(np.linalg.norm(a - b) / ref)
