"""The vectorised fixed-mode kernels against the loops they replaced.

log_compress's per-element loop and the recursive radix-2^2 FFT are kept
here, and only here, as the oracles; the library's whole-array log and
level-by-level FFT must match them bit for bit, saturation included.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from kwsflow.fixedpoint import (  # noqa: E402
    QFormat,
    mul_raw_array,
    quantize_array,
    rshift_round_even_array,
    saturate_array,
    shift_add_raw_array,
)
from kwsflow.frontend import (  # noqa: E402
    ALLOWED_FFT_SIZES,
    LOG_FORMAT,
    PipelineConfig,
    _fft_r22_fixed,
    frame_and_window,
    log_compress,
    window_coefficients,
)

BIT_WIDTHS = (4, 7, 12, 16)
LOG_LUT = [math.log2(1 + i / 16) for i in range(17)]


# ------------------------------------------------------------------ oracles


def log_compress_loop(energies: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Fixed-mode log, one energy at a time (the former implementation)."""
    efmt = cfg.energy_format
    floor_raw = max(1, int(round(cfg.log_floor * (1 << efmt.frac_bits))))
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
        out[:, i] = shift_add_raw_array(frames[:, i], approx, fmt)
    return out


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
    floor_raw = max(1, int(round(cfg.log_floor * (1 << efmt.frac_bits))))
    edges = {0, floor_raw - 1, floor_raw, floor_raw + 1, efmt.raw_max}
    for k in range(efmt.total_bits):
        edges.update(((1 << k) - 1, 1 << k, (1 << k) + 1))
    energies = np.array(sorted(e for e in edges if 0 <= e <= efmt.raw_max), dtype=np.int64)
    got = log_compress(energies[np.newaxis, :], cfg)
    assert_same_bits(got, log_compress_loop(energies[np.newaxis, :], cfg))


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
    got = _fft_r22_fixed(re, im, fmt)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])


@pytest.mark.parametrize("n", ALLOWED_FFT_SIZES)
@pytest.mark.parametrize("bits", BIT_WIDTHS)
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
    got = _fft_r22_fixed(re, im, fmt)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])


# ----------------------------------------------------- non-contiguous input


@pytest.mark.parametrize("policy", ("exact", "csd2", "single_shift", "rectangular"))
@pytest.mark.parametrize("mode", ("fixed", "float"))
def test_framing_of_a_strided_view_matches_stacked_slices(policy, mode):
    cfg = PipelineConfig(fft_size=32, frame_hop=12, window_policy=policy, mode=mode)
    x = np.random.default_rng(3).uniform(-1, 1, 3 * 500)
    samples = quantize_array(x, cfg.sample_format) if mode == "fixed" else x
    view = samples[1::3]  # non-contiguous, 500 samples
    assert not view.flags.c_contiguous
    got = frame_and_window(view, cfg)
    assert_same_bits(got, frame_and_window_stacked(view, cfg))
    assert_same_bits(got, frame_and_window(np.ascontiguousarray(view), cfg))


def test_fft_and_log_of_strided_views_match_oracles():
    cfg = PipelineConfig(bit_width=12, fft_size=64, n_mel=8, mode="fixed")
    fmt = cfg.sample_format
    rng = np.random.default_rng(5)
    block = rng.integers(fmt.raw_min, fmt.raw_max + 1, (14, 128))
    re, im = block[::2, ::2], block[1::2, 1::2]  # (7, 64) views, neither contiguous
    assert not re.flags.c_contiguous and not re.flags.f_contiguous
    want = fft_recursive(np.ascontiguousarray(re), np.ascontiguousarray(im), fmt, [0])
    got = _fft_r22_fixed(re, im, fmt)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])
    energies = rng.integers(0, cfg.energy_format.raw_max, (40, 16))[::2, ::3]
    assert_same_bits(log_compress(energies, cfg), log_compress_loop(energies, cfg))
