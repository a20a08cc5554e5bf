"""The vectorised fixed-mode kernels against the loops they replaced.

log_compress's per-element loop, the recursive radix-2^2 FFT, the
per-column window, the per-(k, n) DCT loop and the rectangular/triangular
mel fork are kept here, and only here, as the oracles; the library's
whole-array kernels must match them bit for bit, saturation included.
The float FFT's recursion is oracles.fft_r22_recursive.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from kwsflow.fixedpoint import (  # noqa: E402
    QFormat,
    approx_csd,
    mul_raw_array,
    quantize_array,
    rshift_round_even_array,
    saturate_array,
    shift_add_planes,
    shift_add_raw_array,
)
from kwsflow.frontend import (  # noqa: E402
    ALLOWED_FFT_SIZES,
    ENERGY_FLOOR,
    LOG_FORMAT,
    PipelineConfig,
    PreemphasisConfig,
    _fft_levels,
    _fft_r22,
    _twiddle_rom,
    build_mel_filterbank,
    dct_ii,
    frame_and_window,
    log_compress,
    mel_energies,
    preemphasis,
    window_coefficients,
)
from oracles import complex_frames, fft_r22_recursive, twiddles  # noqa: E402

BIT_WIDTHS = (4, 7, 12, 16)
# the widest int16 and the narrowest int32 FFT word
WORD_EDGE_BITS = (8, 9)
LOG_LUT = [math.log2(1 + i / 16) for i in range(17)]


# ------------------------------------------------------------------ oracles


def log_compress_loop(energies: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Fixed-mode log, one energy at a time (the former implementation)."""
    efmt = cfg.energy_format
    floor_raw = max(1, int(round(ENERGY_FLOOR * (1 << efmt.frac_bits))))
    flat = np.maximum(energies.reshape(-1), floor_raw)
    out = np.empty(flat.shape, dtype=np.float64)
    for i, e in enumerate(flat):
        msb = int(e).bit_length() - 1
        t = (int(e) - (1 << msb)) / (1 << msb)
        seg = min(int(t * 16), 15)
        fracpos = t * 16 - seg
        out[i] = msb + LOG_LUT[seg] + (LOG_LUT[seg + 1] - LOG_LUT[seg]) * fracpos
    out = out.reshape(energies.shape) - efmt.frac_bits
    return quantize_array(out, LOG_FORMAT)


def fft_recursive(re, im, fmt: QFormat, clipped: list):
    """Radix-2^2 DIF recursion on (frames, N) raw arrays (the former
    implementation); clipped[0] counts the elements saturation changed."""

    def half(v):
        return rshift_round_even_array(v, 1)

    def sat(v):
        out = saturate_array(v, fmt)
        clipped[0] += int(np.count_nonzero(out != v))
        return out

    n = re.shape[1]
    if n == 1:
        return re, im
    if n == 2:
        s_re = np.stack([half(re[:, 0] + re[:, 1]), half(re[:, 0] - re[:, 1])], axis=1)
        s_im = np.stack([half(im[:, 0] + im[:, 1]), half(im[:, 0] - im[:, 1])], axis=1)
        return sat(s_re), sat(s_im)
    q = n // 4
    idx = np.arange(q)

    def part(v):
        return v[:, idx], v[:, idx + q], v[:, idx + 2 * q], v[:, idx + 3 * q]

    ar, br, cr, dr = part(re)
    ai, bi, ci, di = part(im)
    t0r, t0i = half(ar + cr), half(ai + ci)
    t1r, t1i = half(br + dr), half(bi + di)
    t2r, t2i = half(ar - cr), half(ai - ci)
    t3r, t3i = half(br - dr), half(bi - di)
    u0r, u0i = half(t0r + t1r), half(t0i + t1i)
    u1r, u1i = half(t0r - t1r), half(t0i - t1i)
    u2r, u2i = half(t2r + t3i), half(t2i - t3r)
    u3r, u3i = half(t2r - t3i), half(t2i + t3r)
    branches = []
    for (vr, vi), mult in (((u0r, u0i), 0), ((u2r, u2i), 1), ((u1r, u1i), 2), ((u3r, u3i), 3)):
        vr, vi = sat(vr), sat(vi)
        if mult:
            w = np.exp(-2j * np.pi * (mult * idx) / n)
            wr_i = np.rint(w.real).astype(np.int64)
            wi_i = np.rint(w.imag).astype(np.int64)
            trivial = (np.abs(w.real - wr_i) < 1e-12) & (np.abs(w.imag - wi_i) < 1e-12)
            w_re = quantize_array(w.real, fmt)[np.newaxis, :]
            w_im = quantize_array(w.imag, fmt)[np.newaxis, :]
            mr = sat(rshift_round_even_array(vr * w_re - vi * w_im, fmt.frac_bits))
            mi = sat(rshift_round_even_array(vr * w_im + vi * w_re, fmt.frac_bits))
            tr = vr * wr_i[np.newaxis, :] - vi * wi_i[np.newaxis, :]
            ti = vr * wi_i[np.newaxis, :] + vi * wr_i[np.newaxis, :]
            vr = np.where(trivial[np.newaxis, :], tr, mr)
            vi = np.where(trivial[np.newaxis, :], ti, mi)
        branches.append(fft_recursive(vr, vi, fmt, clipped))
    out_re = np.empty_like(re)
    out_im = np.empty_like(im)
    for r, (sr, si) in enumerate(branches):
        out_re[:, r::4] = sr
        out_im[:, r::4] = si
    return out_re, out_im


def preemphasis_shifted_copy(samples, cfg: PreemphasisConfig, fmt: QFormat | None = None):
    """Pre-emphasis through a shifted copy of the whole input (the former implementation)."""
    if fmt is None:
        x = np.asarray(samples, dtype=np.float64)
        prev = np.concatenate(([0.0], x[:-1]))
        return x - cfg.alpha * prev
    raw = np.asarray(samples, dtype=np.int64)
    prev = np.concatenate(([0], raw[:-1]))
    return saturate_array(raw - saturate_array(prev - (prev >> cfg.k), fmt), fmt)


def frame_and_window_stacked(samples, cfg: PipelineConfig):
    """Framing by stacking one slice per hop (the former implementation)."""
    n, hop = cfg.fft_size, cfg.frame_hop
    frames = np.stack([samples[s : s + n] for s in range(0, len(samples) - n + 1, hop)])
    spec = window_coefficients(n, cfg.window_policy, cfg.bit_width)
    if cfg.mode == "float":
        return frames * spec.values
    fmt = cfg.sample_format
    if cfg.window_policy == "exact":
        return mul_raw_array(frames, quantize_array(spec.values, fmt)[np.newaxis, :], fmt)
    out = np.zeros_like(frames)
    for i, approx in enumerate(spec.approxs):
        out[:, i] = shift_add_raw_array(frames[:, i], shift_add_planes(approx), fmt)
    return out


def dct_ii_loop(log_energies, cfg: PipelineConfig, end_saturation: bool = False):
    """Fixed-mode DCT, one (k, n) product at a time (the former
    implementation).  end_saturation=True saturates only the finished
    sum, the mistake the in-order checks must catch."""
    acc_fmt = QFormat(LOG_FORMAT.total_bits + 4, LOG_FORMAT.frac_bits)
    k = np.arange(cfg.n_mfcc)[:, np.newaxis]
    n = np.arange(cfg.n_mel)[np.newaxis, :]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2 * cfg.n_mel))
    out = np.zeros((log_energies.shape[0], cfg.n_mfcc), dtype=np.int64)
    for i, row in enumerate(mat):
        acc = np.zeros(log_energies.shape[0], dtype=np.int64)
        for j, c in enumerate(row):
            approx = approx_csd(c, 2, cfg.bit_width - 1)
            acc = acc + shift_add_raw_array(log_energies[:, j], shift_add_planes(approx), acc_fmt)
            if not end_saturation:
                acc = saturate_array(acc, acc_fmt)
        out[:, i] = saturate_array(acc, acc_fmt)
    return out


def mel_energies_fork(power_bins, fb, cfg: PipelineConfig):
    """Fixed-mode mel sums through the former shape fork: an integer
    matmul for rectangular weights, a broadcast product for triangular."""
    if cfg.mel_shape == "rectangular":
        acc = power_bins @ fb.weights.T.astype(np.int64)
    else:
        wq = quantize_array(fb.weights, QFormat(18, 16))
        prod = power_bins[:, np.newaxis, :] * wq[np.newaxis, :, :]
        acc = rshift_round_even_array(prod.sum(axis=2), 16)
    return saturate_array(acc, cfg.energy_format)


def full_scale_and_random_frames(fmt: QFormat, n: int, rows: int, rng):
    """(re, im) int64 frames: full-scale rows on one part beside random ones on the other."""
    full = rng.choice([fmt.raw_min, fmt.raw_max], (rows, n))
    rand = rng.integers(fmt.raw_min, fmt.raw_max + 1, (rows, n))
    return np.concatenate([full, rand]), np.concatenate([rand, full])


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


# --------------------------------------------------------------------- log


@pytest.mark.parametrize("bits", range(4, 17))
def test_log_compress_matches_loop_on_every_small_energy(bits):
    cfg = PipelineConfig(bit_width=bits, mode="fixed")
    energies = np.arange(1 << 16, dtype=np.int64).reshape(256, 256)
    assert_same_bits(log_compress(energies, cfg), log_compress_loop(energies, cfg))


@pytest.mark.parametrize("bits", range(4, 17))
def test_log_compress_matches_loop_at_powers_of_two_and_floor(bits):
    cfg = PipelineConfig(bit_width=bits, mode="fixed")
    efmt = cfg.energy_format
    floor_raw = max(1, int(round(ENERGY_FLOOR * (1 << efmt.frac_bits))))
    edges = {0, floor_raw - 1, floor_raw, floor_raw + 1, efmt.raw_max}
    for k in range(efmt.total_bits):
        edges.update(((1 << k) - 1, 1 << k, (1 << k) + 1))
    energies = np.array(sorted(e for e in edges if 0 <= e <= efmt.raw_max), dtype=np.int64)
    got = log_compress(energies[np.newaxis, :], cfg)
    assert_same_bits(got, log_compress_loop(energies[np.newaxis, :], cfg))


@pytest.mark.parametrize("bits", range(2, 17))
def test_log_compress_matches_loop_on_random_energies_up_to_raw_max(bits):
    cfg = PipelineConfig(bit_width=bits, mode="fixed")
    top = cfg.energy_format.raw_max
    rng = np.random.default_rng(bits)
    # uniform over the range, and uniform within each octave so every MSB position gets draws
    msb = rng.integers(0, top.bit_length(), 2000)
    octave = np.minimum(rng.integers(1 << msb, 2 << msb), top)
    energies = np.concatenate([rng.integers(0, top + 1, 2000), octave, [top]]).reshape(-1, 1)
    assert_same_bits(log_compress(energies, cfg), log_compress_loop(energies, cfg))


# ------------------------------------------------------------ pre-emphasis


@pytest.mark.parametrize("k", (1, 5, 9))
@pytest.mark.parametrize("bits", BIT_WIDTHS)
def test_preemphasis_in_place_matches_shifted_copy(k, bits):
    cfg, fmt = PreemphasisConfig(k), QFormat(bits, bits - 1)
    rng = np.random.default_rng(k * 100 + bits)
    # signed zeros, full-scale runs whose difference saturates, random words
    x = np.concatenate([[-0.0, 0.0, -0.0], rng.uniform(-1, 1, 500), [-1.0, 1.0, -1.0, -0.0]])
    raw = np.concatenate([rng.choice([fmt.raw_min, fmt.raw_max], 200),
                          rng.integers(fmt.raw_min, fmt.raw_max + 1, 300)])
    for n in (0, 1, 2, len(x)):
        got, want = preemphasis(x[:n], cfg), preemphasis_shifted_copy(x[:n], cfg)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert_same_bits(preemphasis(raw[:n], cfg, fmt), preemphasis_shifted_copy(raw[:n], cfg, fmt))
    # a strided view and an int32 input read as int64 words
    assert_same_bits(preemphasis(raw[::3].astype(np.int32), cfg, fmt), preemphasis_shifted_copy(raw[::3], cfg, fmt))


# --------------------------------------------------------------------- FFT


@pytest.mark.parametrize("n", ALLOWED_FFT_SIZES)
@pytest.mark.parametrize("bits", BIT_WIDTHS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fft_levels_match_recursion_on_random_frames(n, bits, data):
    fmt = PipelineConfig(bit_width=bits).sample_format
    shape = (data.draw(st.integers(1, 5)), n)
    raw = arrays(np.int64, shape, elements=st.integers(fmt.raw_min, fmt.raw_max))
    re, im = data.draw(raw), data.draw(raw)
    want = fft_recursive(re, im, fmt, [0])
    got = _fft_r22(re, im, fmt)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])


@pytest.mark.parametrize("n", ALLOWED_FFT_SIZES)
@pytest.mark.parametrize("bits", BIT_WIDTHS + WORD_EDGE_BITS)
def test_fft_levels_match_recursion_at_full_scale(n, bits):
    fmt = PipelineConfig(bit_width=bits).sample_format
    rng = np.random.default_rng(n * 100 + bits)
    full = [fmt.raw_min, fmt.raw_max]
    re = np.concatenate([np.full((1, n), fmt.raw_min), np.full((1, n), fmt.raw_max),
                         rng.choice(full, (6, n))]).astype(np.int64)
    im = np.concatenate([np.full((1, n), fmt.raw_min), np.zeros((1, n)),
                         rng.choice(full, (6, n))]).astype(np.int64)
    clipped = [0]
    want = fft_recursive(re, im, fmt, clipped)
    assert clipped[0] > 0  # the full-scale frames do drive saturation
    got = _fft_r22(re, im, fmt)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])


def float_frames(kind: str, shape: tuple[int, int], rng) -> tuple[np.ndarray, np.ndarray]:
    """re and im parts of float frames, as fft_r22sdf takes them."""
    zero = np.zeros(shape)
    if kind == "complex":
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    elif kind == "real":
        re, im = rng.uniform(-1, 1, shape), zero
    elif kind == "zeros":  # signed zeros on both parts
        re, im = rng.choice([0.0, -0.0], shape), rng.choice([0.0, -0.0], shape)
    elif kind == "impulses":  # one per frame, at a random bin
        re, im = zero.copy(), zero
        re[np.arange(shape[0]), rng.integers(0, shape[1], shape[0])] = rng.choice([-1.0, 0.5, 1.0], shape[0])
    elif kind == "minus_ones":
        re, im = -np.ones(shape), zero
    else:  # small integers
        re, im = rng.integers(-8, 9, shape).astype(float), rng.integers(-8, 9, shape).astype(float)
    return re, im


@pytest.mark.parametrize("kind", ("complex", "real", "zeros", "impulses", "minus_ones", "small_ints"))
@pytest.mark.parametrize("n", ALLOWED_FFT_SIZES)
@settings(max_examples=15, deadline=None)
@given(n_frames=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_float_fft_levels_match_recursion_byte_for_byte(n, kind, n_frames, seed):
    re, im = float_frames(kind, (n_frames, n), np.random.default_rng(seed))
    got_re, got_im = _fft_r22(re, im, None)
    assert got_re.dtype == got_im.dtype == np.float64
    got, want = complex_frames(got_re, got_im), fft_r22_recursive(complex_frames(re, im))
    assert got.shape == want.shape
    # C-contiguous copies, so signed zeros and every rounding count
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("n", ALLOWED_FFT_SIZES)
@pytest.mark.parametrize("bits", BIT_WIDTHS)
def test_twiddle_rom_stores_trivial_words_exactly(n, bits):
    fmt = PipelineConfig(bit_width=bits).sample_format
    one = 1 << fmt.frac_bits
    i = np.arange(n // 4)
    rom, jw, trivial_rows = _twiddle_rom(n, fmt)
    assert rom.shape == jw.shape == (2, 3, 1, n // 4, 1) and trivial_rows.shape == (3, 1, n // 4, 1)
    assert rom.dtype == jw.dtype == (np.int16 if bits <= 8 else np.int32)
    assert not any(a.flags.writeable for a in (rom, jw, trivial_rows))
    # jw = j w = (-w_im, w_re)
    assert np.array_equal(jw[0], -rom[1]) and np.array_equal(jw[1], rom[0])
    for b in range(3):
        w_re, w_im, trivial = rom[0, b, 0], rom[1, b, 0], trivial_rows[b, 0]
        words = list(zip(w_re[:, 0].tolist(), w_im[:, 0].tolist()))
        # exponent (b + 1) i is a multiple of n/4: the twiddle is 1 or -j
        assert np.array_equal(trivial[:, 0], (b + 1) * i % (n // 4) == 0)
        for k in np.flatnonzero(trivial[:, 0]):
            assert words[k] == ((one, 0) if (b + 1) * k % n == 0 else (0, -one))
        w = np.exp(-2j * np.pi * (b + 1) * i / n)
        rest = ~trivial[:, 0]
        assert np.array_equal(w_re[rest, 0], quantize_array(w.real, fmt)[rest])
        assert np.array_equal(w_im[rest, 0], quantize_array(w.imag, fmt)[rest])


@pytest.mark.parametrize("bits", range(2, 17))
def test_fft_word_is_int16_up_to_8_bits_and_int32_above(bits):
    fmt = PipelineConfig(bit_width=bits).sample_format
    word = np.int16 if bits <= 8 else np.int32
    # a twiddle product's bound sqrt(2) (raw_max + 1) (2^f + 1) fits the word
    assert math.sqrt(2) * (fmt.raw_max + 1) * ((1 << fmt.frac_bits) + 1) < np.iinfo(word).max
    for n in ALLOWED_FFT_SIZES:
        assert _twiddle_rom(n, fmt)[0].dtype == word
        frames = np.full((n, 3), fmt.raw_min, dtype=np.int64)
        assert _fft_levels(frames, frames, fmt).dtype == word
        assert _fft_r22(frames.T, frames.T, fmt)[0].dtype == np.int64


@pytest.mark.parametrize("n", ALLOWED_FFT_SIZES)
def test_float_twiddle_rom_holds_the_parts_of_each_twiddle(n):
    rom, jw, trivial = _twiddle_rom(n, None)
    assert rom.dtype == jw.dtype == np.float64 and not (rom.flags.writeable or jw.flags.writeable)
    w = twiddles(n)
    assert rom[0, :, 0, :, 0].tobytes() == w.real.tobytes()
    assert rom[1, :, 0, :, 0].tobytes() == w.imag.tobytes()
    assert jw[0].tobytes() == (-rom[1]).tobytes() and jw[1].tobytes() == rom[0].tobytes()
    assert np.array_equal(trivial, _twiddle_rom(n, PipelineConfig().sample_format)[2])


@pytest.mark.parametrize("n", ALLOWED_FFT_SIZES)
@pytest.mark.parametrize("bits", BIT_WIDTHS + WORD_EDGE_BITS)
def test_fft_minus_j_bypass_carries_raw_max_plus_one(n, bits):
    fmt = PipelineConfig(bit_width=bits).sample_format
    i, q = n // 8, n // 4
    # stage 1 halves a + c and b + d to raw_min and raw_max, stage 2 halves
    # their difference to raw_min, on the branch whose twiddle at i is -j:
    # the unsaturated rotation leaves -raw_min = raw_max + 1
    rom, _, trivial = _twiddle_rom(n, fmt)
    w_re, w_im, trivial = rom[0, 1, 0, i, 0], rom[1, 1, 0, i, 0], trivial[1, 0, i, 0]
    assert trivial and (w_re, w_im) == (0, -(1 << fmt.frac_bits))
    assert -rshift_round_even_array(np.int64(fmt.raw_min - fmt.raw_max), 1) == fmt.raw_max + 1
    rng = np.random.default_rng(n * 10 + bits)
    re = np.concatenate([np.zeros((1, n), dtype=np.int64),
                         rng.integers(fmt.raw_min, fmt.raw_max + 1, (5, n))])
    im = np.concatenate([np.zeros((3, n), dtype=np.int64),
                         rng.integers(fmt.raw_min, fmt.raw_max + 1, (3, n))])
    re[:, [i, i + 2 * q]] = fmt.raw_min
    re[:, [i + q, i + 3 * q]] = fmt.raw_max
    want = fft_recursive(re, im, fmt, [0])
    got = _fft_r22(re, im, fmt)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])


@pytest.mark.parametrize("n", ALLOWED_FFT_SIZES)
@pytest.mark.parametrize("bits", BIT_WIDTHS)
def test_fft_of_int32_frames_matches_int64_frames(n, bits):
    fmt = PipelineConfig(bit_width=bits).sample_format
    re, im = full_scale_and_random_frames(fmt, n, 4, np.random.default_rng(n * 1000 + bits))
    want = _fft_r22(re, im, fmt)
    got = _fft_r22(re.astype(np.int32), im.astype(np.int32), fmt)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])
    oracle = fft_recursive(re, im, fmt, [0])
    assert_same_bits(want[0], oracle[0])
    assert_same_bits(want[1], oracle[1])


@pytest.mark.parametrize("n", ALLOWED_FFT_SIZES)
def test_fft_of_all_raw_min_frames_at_16_bits_matches_recursion(n):
    fmt = PipelineConfig(bit_width=16).sample_format
    low, zero = np.full((1, n), fmt.raw_min, dtype=np.int64), np.zeros((1, n), dtype=np.int64)
    # raw_min on the real part, the imaginary part and both
    re, im = np.concatenate([low, zero, low]), np.concatenate([zero, low, low])
    want = fft_recursive(re, im, fmt, [0])
    got = _fft_r22(re, im, fmt)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])


# --------------------------------------------------------------- DCT, mel


@pytest.mark.parametrize("n_mel", (4, 8, 13, 16, 20, 26, 32))
@pytest.mark.parametrize("bits", BIT_WIDTHS)
def test_dct_matches_loop_on_full_range_and_saturating_rows(n_mel, bits):
    # mfcc_pipeline only reaches log values -192..112 raw, so these rows
    # are the only check that the running sum saturates term by term
    cfg = PipelineConfig(fft_size=64, n_mel=n_mel, n_mfcc=n_mel, bit_width=bits, mode="fixed")
    hi, lo = LOG_FORMAT.raw_max, LOG_FORMAT.raw_min
    rng = np.random.default_rng(n_mel * 100 + bits)
    half, over = n_mel // 2, min(n_mel, 17)  # 17 * hi overshoots the 16-bit sum
    rows = np.array([
        [hi] * n_mel,
        [lo] * n_mel,
        [hi] * half + [lo] * (n_mel - half),
        [lo] * half + [hi] * (n_mel - half),
        [hi] * over + [lo] * (n_mel - over),
        [lo] * over + [hi] * (n_mel - over),
    ], dtype=np.int64)
    x = np.concatenate([rows, rng.integers(lo, hi + 1, (24, n_mel))])
    want = dct_ii_loop(x, cfg)
    assert_same_bits(dct_ii(x, cfg), want)
    if n_mel > 17:  # the rows tell in-order saturation from saturating the result
        assert not np.array_equal(dct_ii_loop(x, cfg, end_saturation=True), want)


@pytest.mark.parametrize("rate, n, n_mel", ((8000, 32, 8), (8000, 64, 16),
                                            (16000, 128, 26), (16000, 256, 40)))
@pytest.mark.parametrize("shape", ("rectangular", "triangular"))
@pytest.mark.parametrize("bits", BIT_WIDTHS)
def test_mel_energies_match_shape_fork_at_full_scale(rate, n, n_mel, shape, bits):
    cfg = PipelineConfig(sample_rate=rate, fft_size=n, n_mel=n_mel, n_mfcc=8,
                         mel_shape=shape, bit_width=bits, mode="fixed")
    efmt = cfg.energy_format
    fb = build_mel_filterbank(cfg)
    rng = np.random.default_rng(n + bits)
    bins = n // 2 + 1
    power = np.concatenate([
        np.full((1, bins), efmt.raw_max), np.zeros((1, bins)),
        rng.choice([0, efmt.raw_max - 1, efmt.raw_max], (4, bins)),
        rng.integers(0, efmt.raw_max + 1, (8, bins)),
    ]).astype(np.int64)
    want = mel_energies_fork(power, fb, cfg)
    assert np.any(want == efmt.raw_max)  # full-scale rows do saturate
    assert_same_bits(mel_energies(power, fb, cfg), want)


# ----------------------------------------------------- non-contiguous input


@pytest.mark.parametrize("policy", ("exact", "csd2", "single_shift", "rectangular"))
@pytest.mark.parametrize("mode", ("fixed", "float"))
def test_framing_of_a_strided_view_matches_stacked_slices(policy, mode):
    cfg = PipelineConfig(fft_size=32, frame_hop=12, window_policy=policy, mode=mode)
    x = np.random.default_rng(3).uniform(-1, 1, 3 * 500)
    samples = quantize_array(x, cfg.sample_format) if mode == "fixed" else x
    view = samples[1::3]  # non-contiguous, 500 samples
    assert not view.flags.c_contiguous
    got, want = frame_and_window(view, cfg), frame_and_window_stacked(view, cfg)
    # fixed shift-add taps run on int32 words, exact taps' products on int64
    word = np.int32 if mode == "fixed" and policy != "exact" else want.dtype
    assert got.dtype == word and got.shape == want.shape and np.array_equal(got, want)
    assert_same_bits(got, frame_and_window(np.ascontiguousarray(view), cfg))


def test_fft_and_log_of_strided_views_match_oracles():
    cfg = PipelineConfig(bit_width=12, fft_size=64, n_mel=8, mode="fixed")
    fmt = cfg.sample_format
    rng = np.random.default_rng(5)
    block = rng.integers(fmt.raw_min, fmt.raw_max + 1, (14, 128))
    re, im = block[::2, ::2], block[1::2, 1::2]  # (7, 64) views, neither contiguous
    assert not re.flags.c_contiguous and not re.flags.f_contiguous
    want = fft_recursive(np.ascontiguousarray(re), np.ascontiguousarray(im), fmt, [0])
    got = _fft_r22(re, im, fmt)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])
    energies = rng.integers(0, cfg.energy_format.raw_max, (40, 16))[::2, ::3]
    assert_same_bits(log_compress(energies, cfg), log_compress_loop(energies, cfg))
