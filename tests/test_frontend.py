"""Front-end stages against independent oracles (reference DFT, numpy, scipy)."""

import tracemalloc

import numpy as np
import pytest

from kwsflow.errors import (
    ConfigInvalid,
    DimensionMismatch,
    InvalidSize,
    NegativeInput,
    SignalTooShort,
    TooManyFilters,
    UnsupportedFormat,
    ZeroReference,
)
from kwsflow.fixedpoint import quantize_array
from kwsflow.frontend import (
    ALLOWED_FFT_SIZES,
    ENERGY_FLOOR,
    PipelineConfig,
    PreemphasisConfig,
    _power_stage,
    build_mel_filterbank,
    dct_ii,
    fft_r22sdf,
    frame_and_window,
    log_compress,
    mel_energies,
    mel_map,
    mfcc_pipeline,
    power_spectrum,
    preemphasis,
    spectrogram_distance,
    window_coefficients,
)
from kwsflow.signal import SignalBuffer, gen_signal
from oracles import dft_reference


# ---------------------------------------------------------------- mel scale


def test_mel_map_anchor_points():
    assert mel_map(0.0) == 0.0
    assert abs(mel_map(700.0) - 781.17) < 0.5
    assert abs(mel_map(1000.0) - 999.99) < 0.5 or abs(mel_map(1000.0) - 1000.0) < 0.5


def test_mel_map_inverse_round_trip():
    for hz in (0.0, 125.0, 700.0, 1337.0, 4000.0):
        m = mel_map(hz, "to_mel")
        assert abs(mel_map(m, "to_hz") - hz) < 1e-6


def test_mel_map_monotone():
    hz = np.linspace(0, 8000, 257)
    mels = [mel_map(float(h)) for h in hz]
    assert all(b > a for a, b in zip(mels, mels[1:]))


def test_mel_map_rejects_negative():
    with pytest.raises(NegativeInput):
        mel_map(-1.0)


# ------------------------------------------------------------- preemphasis


def test_preemphasis_impulse_response():
    k = 5
    x = np.zeros(16)
    x[4] = 1.0
    y = preemphasis(x, PreemphasisConfig(k))
    alpha = 1.0 - 2.0 ** -k
    expect = np.zeros(16)
    expect[4] = 1.0
    expect[5] = -alpha
    assert np.allclose(y, expect, atol=1e-12)


def test_preemphasis_constant_input():
    k = 4
    x = np.full(64, 0.25)
    y = preemphasis(x, PreemphasisConfig(k))
    assert np.allclose(y[1:], 0.25 * 2.0 ** -k, atol=1e-12)


def test_preemphasis_fixed_tracks_float():
    from kwsflow.fixedpoint import QFormat, quantize_array, to_real_array

    rng = np.random.default_rng(11)
    fmt = QFormat(8, 6)
    raw = quantize_array(rng.uniform(-0.9, 0.9, 512), fmt)
    yq = to_real_array(preemphasis(raw, PreemphasisConfig(5), fmt=fmt), fmt)
    yf = preemphasis(to_real_array(raw, fmt), PreemphasisConfig(5))
    assert np.max(np.abs(yf - yq)) <= 2.0 ** -5


# ----------------------------------------------------------------- windows


def test_window_endpoints_and_symmetry():
    for policy in ("exact", "single_shift", "csd2"):
        w = window_coefficients(32, policy).values
        assert w[0] == 0.0
        assert np.allclose(w, w[::-1], atol=1e-12)


def test_window_single_shift_values_are_dyadic():
    w = window_coefficients(32, "single_shift").values
    for v in w:
        if v != 0.0:
            assert abs(v - 2.0 ** round(np.log2(v))) < 1e-12


def test_window_rectangular_is_ones():
    w = window_coefficients(32, "rectangular").values
    assert np.array_equal(w, np.ones(32))


def test_window_csd2_close_to_exact():
    exact = window_coefficients(32, "exact").values
    csd2 = window_coefficients(32, "csd2").values
    single = window_coefficients(32, "single_shift").values
    assert np.max(np.abs(exact - csd2)) <= 2.0 ** -4
    # two CSD terms approximate at least as well as one power of two
    assert np.max(np.abs(exact - csd2)) <= np.max(np.abs(exact - single)) + 1e-12


# ----------------------------------------------------------------- framing


def test_frame_count_example():
    cfg = PipelineConfig(fft_size=32, frame_hop=16)
    frames = frame_and_window(np.ones(64), cfg)
    assert frames.shape == (3, 32)


def test_framing_applies_window_to_ones():
    cfg = PipelineConfig(fft_size=32, frame_hop=16)
    frames = frame_and_window(np.ones(64), cfg)
    w = window_coefficients(32, "exact").values
    for row in frames:
        assert np.allclose(row, w, atol=1e-12)


@pytest.mark.parametrize("policy", ["exact", "csd2", "single_shift", "rectangular"])
def test_fixed_framing_rejects_real_valued_samples(policy):
    # unchecked, the shift-add policies raised numpy's TypeError and exact
    # silently truncated them into all-zero frames
    cfg = PipelineConfig(mode="fixed", window_policy=policy)
    with pytest.raises(UnsupportedFormat, match="float64"):
        frame_and_window(np.linspace(-0.5, 0.5, 64), cfg)


@pytest.mark.parametrize("value", [64, 100, 2**31, -65])
def test_fixed_framing_rejects_samples_outside_the_sample_format(value):
    # unchecked, the int32 frames wrapped 2^31 to -64 where int64 ones saturated it to 63
    cfg = PipelineConfig(mode="fixed", window_policy="rectangular")
    assert (cfg.sample_format.raw_min, cfg.sample_format.raw_max) == (-64, 63)
    samples = np.zeros(64, dtype=np.int64)
    samples[40] = value
    with pytest.raises(UnsupportedFormat, match=r"\[-64, 63\]"):
        frame_and_window(samples, cfg)
    samples[40] = 63 if value > 0 else -64  # the format's edges are taken
    assert frame_and_window(samples, cfg)[2, 8] == samples[40]


def test_framing_short_input():
    cfg = PipelineConfig(fft_size=32)
    with pytest.raises(SignalTooShort):
        frame_and_window(np.ones(31), cfg)
    for mode in ("fixed", "float"):
        with pytest.raises(SignalTooShort, match="need at least 32 samples, got 31"):
            mfcc_pipeline(SignalBuffer(np.zeros(31), 8000), PipelineConfig(mode=mode))


# --------------------------------------------------------------------- FFT


def test_dft_reference_constant_input():
    x = np.full(32, 0.5)
    spec = dft_reference(x)
    assert abs(spec[0] - 16.0) < 1e-12
    assert np.max(np.abs(spec[1:])) < 1e-12


def test_dft_reference_parseval():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 64)
    spec = dft_reference(x)
    assert abs(np.sum(x**2) - np.sum(np.abs(spec) ** 2) / 64) < 1e-9


def test_dft_reference_linearity():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-1, 1, (2, 32))
    lhs = dft_reference(2.0 * a + 0.5 * b)
    rhs = 2.0 * dft_reference(a) + 0.5 * dft_reference(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_fft_float_matches_reference_all_sizes():
    rng = np.random.default_rng(4)
    for n in ALLOWED_FFT_SIZES:
        cfg = PipelineConfig(fft_size=n, mode="float")
        frames = rng.uniform(-1, 1, (100, n))
        re, im = fft_r22sdf(frames, np.zeros_like(frames), cfg)
        for i in range(100):
            ref = dft_reference(frames[i])
            err = np.max(np.abs((re[i] + 1j * im[i]) - ref))
            assert err < 1e-9


def test_fft_fixed_on_bin_tone_lands_in_right_bins():
    n = 32
    cfg = PipelineConfig(fft_size=n, mode="float", window_policy="rectangular")
    t = np.arange(n)
    x = 0.5 * np.cos(2 * np.pi * 4 * t / n)
    re, im = fft_r22sdf(x[None, :], np.zeros((1, n)), cfg)
    p = re[0] ** 2 + im[0] ** 2
    hot = {int(i) for i in np.nonzero(p > p.max() / 100)[0]}
    assert hot == {4, 28}


@pytest.mark.parametrize("bits", (7, 16))
def test_fft_fixed_mode_on_quantised_bin_tone_lands_in_right_bins(bits):
    n = 32
    cfg = PipelineConfig(fft_size=n, bit_width=bits, mode="fixed", window_policy="rectangular")
    x = quantize_array(0.5 * np.cos(2 * np.pi * 4 * np.arange(n) / n), cfg.sample_format)
    re, im = fft_r22sdf(x[None, :], np.zeros((1, n), dtype=np.int64), cfg)
    assert re.dtype == im.dtype == np.int64
    p = re[0] ** 2 + im[0] ** 2
    hot = {int(i) for i in np.nonzero(p > p.max() / 100)[0]}
    assert hot == {4, 28}


def test_fft_fixed_mode_rejects_real_valued_frames():
    # truncating them to integers would zero a 0.5-amplitude tone
    n = 32
    cfg = PipelineConfig(fft_size=n, mode="fixed")
    x = 0.5 * np.cos(2 * np.pi * 4 * np.arange(n) / n)
    with pytest.raises(UnsupportedFormat, match="float64"):
        fft_r22sdf(x[None, :], np.zeros((1, n), dtype=np.int64), cfg)
    raw = quantize_array(x, cfg.sample_format)[None, :]
    with pytest.raises(UnsupportedFormat, match="float64"):
        fft_r22sdf(raw, np.zeros((1, n)), cfg)


def test_fft_float_mode_rejects_complex_frames():
    # the float planes would keep only their real parts
    frames = np.full((1, 32), 1 + 1j)
    for re, im in ((frames, np.zeros((1, 32))), (np.zeros((1, 32)), frames)):
        with pytest.raises(UnsupportedFormat, match="complex128"):
            fft_r22sdf(re, im, PipelineConfig(mode="float"))


@pytest.mark.parametrize("value", [100, 2**20, 2**31, -65])
def test_fft_fixed_mode_rejects_words_outside_the_sample_format(value):
    # unchecked, 100 and 2^20 saturated to bin 0 = 63 and 2^31 wrapped to bin 0 = 0
    cfg = PipelineConfig(fft_size=32, bit_width=7, mode="fixed")
    fmt = cfg.sample_format
    assert (fmt.raw_min, fmt.raw_max) == (-64, 63)
    word, zero = np.full((1, 32), value, dtype=np.int64), np.zeros((1, 32), dtype=np.int64)
    for re, im in ((word, zero), (zero, word)):
        with pytest.raises(UnsupportedFormat, match=r"\[-64, 63\]"):
            fft_r22sdf(re, im, cfg)


def test_fft_fixed_mode_takes_words_at_the_format_edges():
    cfg = PipelineConfig(fft_size=32, bit_width=7, mode="fixed")
    edges = np.array([[-64, 63] * 16], dtype=np.int64)
    sre, sim = fft_r22sdf(edges, edges[:, ::-1], cfg)
    assert sre.shape == sim.shape == (1, 32)


@pytest.mark.parametrize("mode", ["float", "fixed"])
def test_fft_rejects_a_frame_length_outside_the_allowed_sizes(mode):
    assert 48 not in ALLOWED_FFT_SIZES
    frames = np.zeros((1, 48), dtype=np.int64)
    with pytest.raises(InvalidSize, match="got 48"):
        fft_r22sdf(frames, frames, PipelineConfig(mode=mode))


@pytest.mark.parametrize("mode", ["float", "fixed"])
def test_fft_rejects_inputs_that_are_not_two_2d_arrays_of_one_shape(mode):
    # float mode once broadcast a (1, N) imaginary part over every frame, fixed
    # mode raised numpy's ValueError, and 1-D frames an IndexError in both
    cfg = PipelineConfig(mode=mode)
    frames = np.zeros((3, 32), dtype=np.int64)
    for re, im in ((frames, frames[:1]), (frames[:1], frames), (frames[0], frames[0]),
                   (frames[np.newaxis], frames[np.newaxis]), (frames, frames[:, :16])):
        with pytest.raises(DimensionMismatch, match=str(re.shape)):
            fft_r22sdf(re, im, cfg)


@pytest.mark.parametrize("n", ALLOWED_FFT_SIZES)
@pytest.mark.parametrize("mode", ["float", "fixed"])
def test_fft_of_an_empty_batch_is_empty(n, mode):
    # the level loops' reshapes once inferred a block count from 0 words
    frames = np.zeros((0, n), dtype=np.int64 if mode == "fixed" else np.float64)
    re, im = fft_r22sdf(frames, frames, PipelineConfig(fft_size=n, mode=mode))
    assert re.shape == im.shape == (0, n)


# ----------------------------------------------------------- power and mel


def test_power_spectrum_zero_input():
    cfg = PipelineConfig()
    p = power_spectrum(np.zeros((2, 32)), np.zeros((2, 32)), cfg)
    assert p.shape == (2, 17)
    assert np.all(p == 0.0)


def test_rectangular_filterbank_partitions_bins():
    cfg = PipelineConfig(mel_shape="rectangular")
    fb = build_mel_filterbank(cfg)
    cols = fb.weights.sum(axis=0)
    assert np.array_equal(cols[1:], np.ones(16))


def test_triangular_filterbank_interior_sums():
    cfg = PipelineConfig(sample_rate=8000, fft_size=64, n_mel=8, mel_shape="triangular")
    fb = build_mel_filterbank(cfg)
    cols = fb.weights.sum(axis=0)
    freqs = np.arange(33) * 8000 / 64
    # between the first and last band centers the triangles partition unity
    interior = (freqs > fb.edges_hz[1] + 1e-9) & (freqs < fb.edges_hz[-2] - 1e-9)
    assert interior.sum() >= 10
    assert np.all(np.abs(cols[interior] - 1.0) <= 1e-9)


def test_filterbank_edges_monotone():
    for shape in ("rectangular", "triangular"):
        fb = build_mel_filterbank(PipelineConfig(mel_shape=shape))
        e = np.asarray(fb.edges_hz)
        assert np.all(np.diff(e) > 0)


def test_too_many_filters():
    with pytest.raises(TooManyFilters):
        build_mel_filterbank(PipelineConfig(fft_size=16, n_mel=9))


@pytest.mark.parametrize("bad", [
    {"mode": "foo"}, {"window_policy": "hann"}, {"mel_shape": "gaussian"},
    {"n_mel": 0}, {"n_mfcc": 0}, {"n_mfcc": -1}, {"n_mel": 4, "n_mfcc": 5},
    {"bit_width": 1}, {"bit_width": 17, "mode": "fixed"}, {"bit_width": 99},
    {"preemphasis_k": 0}, {"sample_rate": 0},
])
def test_config_rejects_unknown_names_and_filter_counts(bad):
    with pytest.raises(ValueError):
        PipelineConfig(**bad)


@pytest.mark.parametrize("bad", [
    {"bit_width": 7.5}, {"fft_size": 32.0}, {"preemphasis_k": 2.5}, {"frame_hop": 1.5},
    {"n_mel": 8.0}, {"sample_rate": 8000.5}, {"n_mfcc": True}, {"sample_rate": "8000"},
    {"bit_width": float("nan")}, {"mode": ""},
])
def test_config_rejects_non_integers_and_wrong_types(bad):
    with pytest.raises(ConfigInvalid, match=next(iter(bad))):
        PipelineConfig(**bad)


def test_config_accepts_numpy_integers():
    cfg = PipelineConfig(bit_width=np.int64(9), fft_size=np.int32(64), n_mel=np.int16(8))
    assert (cfg.bit_width, cfg.fft_size, cfg.frame_hop) == (9, 64, 32)


def test_mel_energies_shape_and_dimension_check():
    cfg = PipelineConfig()
    fb = build_mel_filterbank(cfg)
    e = mel_energies(np.ones((3, 17)), fb, cfg)
    assert e.shape == (3, 8)
    with pytest.raises(DimensionMismatch):
        mel_energies(np.ones((3, 16)), fb, cfg)


# ---------------------------------------------------------------- log, DCT


def test_log_compress_float_matches_numpy():
    cfg = PipelineConfig(mode="float")
    x = np.array([[1.0, 2.0, 1024.0, 0.5, 0.0]])
    out = log_compress(x, cfg)
    assert np.allclose(out, np.log2(np.maximum(x, ENERGY_FLOOR)), atol=1e-12)


def test_log_compress_fixed_error_bound():
    from kwsflow.fixedpoint import to_real_array
    from kwsflow.frontend import LOG_FORMAT

    cfg_fx = PipelineConfig(mode="fixed")
    efmt = cfg_fx.energy_format
    xs = np.concatenate([2.0 ** np.arange(0, 7), np.geomspace(1.0, 60.0, 400)])
    raw = np.round(xs * (1 << efmt.frac_bits)).astype(np.int64)
    got = to_real_array(log_compress(raw[None, :], cfg_fx), LOG_FORMAT)[0]
    want = np.log2(raw * 2.0 ** -efmt.frac_bits)
    assert np.max(np.abs(got - want)) <= 2.0 ** -4


def test_dct_constant_input_hits_only_c0():
    cfg = PipelineConfig(mode="float")
    x = np.full((1, 8), 3.0)
    c = dct_ii(x, cfg)
    assert abs(c[0, 0]) > 1.0
    assert np.max(np.abs(c[0, 1:])) < 1e-9


def test_dct_matches_scipy_and_inverts():
    import scipy.fft

    cfg = PipelineConfig(mode="float")
    rng = np.random.default_rng(6)
    x = rng.uniform(-4, 4, (5, 8))
    c = dct_ii(x, cfg)
    # unnormalized DCT-II: scipy's is 2x ours
    ref = scipy.fft.dct(x, type=2, axis=1) / 2.0
    assert np.max(np.abs(c - ref)) < 1e-9
    back = scipy.fft.idct(2.0 * c, type=2, axis=1)
    assert np.max(np.abs(back - x)) < 1e-9


def test_fixed_dct_rejects_words_outside_the_log_format():
    # the int32 products and accumulator assume raw LOG_FORMAT words, |x| <= 2^11
    from kwsflow.frontend import LOG_FORMAT

    cfg = PipelineConfig(mode="fixed")
    assert (LOG_FORMAT.raw_min, LOG_FORMAT.raw_max) == (-2048, 2047)
    for value in (2048, -2049, 2**31):
        x = np.zeros((2, 8), dtype=np.int64)
        x[1, 3] = value
        with pytest.raises(UnsupportedFormat, match=r"\[-2048, 2047\]"):
            dct_ii(x, cfg)
    with pytest.raises(UnsupportedFormat, match="float64"):
        dct_ii(np.full((2, 8), 1.5), cfg)
    edges = np.array([[-2048, 2047] * 4])
    assert dct_ii(edges, cfg).dtype == np.int64


def test_dct_fixed_coefficient_error_bound():
    from kwsflow.fixedpoint import to_real_array
    from kwsflow.frontend import LOG_FORMAT

    cfg_fx = PipelineConfig(mode="fixed")
    cfg_fl = PipelineConfig(mode="float")
    rng = np.random.default_rng(7)
    x = rng.uniform(-8, 8, (20, 8))
    xq = np.round(x * (1 << LOG_FORMAT.frac_bits))
    got = to_real_array(dct_ii(xq.astype(np.int64), cfg_fx), LOG_FORMAT)
    want = dct_ii(xq / (1 << LOG_FORMAT.frac_bits), cfg_fl)
    # per band: one LSB floor per CSD term plus coefficient rounding
    bound = 8 * (2.0 * 2.0 ** -4 + 2.0 ** -6 * np.max(np.abs(x)))
    assert np.max(np.abs(got - want)) <= bound


# ----------------------------------------------------------- full pipeline


def test_pipeline_silence_gives_constant_frames():
    cfg = PipelineConfig(mode="fixed")
    s = SignalBuffer(np.zeros(4000), 8000)
    r = mfcc_pipeline(s, cfg)
    assert r.mfcc.shape[1] == 8
    assert np.all(r.mfcc == r.mfcc[0])


def test_pipeline_deterministic():
    s = gen_signal("speechlike", seed=9, n=4000)
    cfg = PipelineConfig(mode="fixed")
    a = mfcc_pipeline(s, cfg)
    b = mfcc_pipeline(s, cfg)
    assert np.array_equal(a.mfcc, b.mfcc)
    assert np.array_equal(a.power, b.power)


def test_pipeline_rejects_rate_mismatch():
    s = SignalBuffer(np.zeros(4000), 16000)
    with pytest.raises(DimensionMismatch):
        mfcc_pipeline(s, PipelineConfig(sample_rate=8000))


# ------------------------------------------------- per-config constants


# the DSE's chosen point, the default (exact taps) and a csd2 / triangular /
# N = 256 point, each in both modes
PLAN_POINTS = {
    "chosen": {"window_policy": "single_shift"},
    "default": {},
    "wide": {"sample_rate": 16000, "bit_width": 12, "fft_size": 256, "window_policy": "csd2",
             "mel_shape": "triangular", "n_mel": 20, "n_mfcc": 13},
}
PLAN_CASES = pytest.mark.parametrize("mode, point", [
    (mode, point) for point in PLAN_POINTS for mode in ("fixed", "float")])


def _clip(cfg):
    return gen_signal("speechlike", seed=5, n=cfg.sample_rate // 4, sample_rate=cfg.sample_rate)


@PLAN_CASES
def test_equal_configs_share_one_read_only_plan(mode, point):
    from kwsflow.frontend import _plan

    plan = _plan(PipelineConfig(mode=mode, **PLAN_POINTS[point]))
    assert _plan(PipelineConfig(mode=mode, **PLAN_POINTS[point])) is plan
    for a in (plan.taps, plan.dct, plan.filterbank.weights, plan.filterbank.edges_hz):
        first = (0,) * a.ndim
        with pytest.raises(ValueError, match="read-only"):
            a[first] = a[first]


@PLAN_CASES
def test_writing_into_returned_arrays_leaves_later_calls_unchanged(mode, point):
    cfg = PipelineConfig(mode=mode, **PLAN_POINTS[point])
    s = _clip(cfg)
    result = mfcc_pipeline(s, cfg)
    want = [getattr(result, name).tobytes() for name in ("mfcc", "log_mel", "power")]
    spec = window_coefficients(cfg.fft_size, cfg.window_policy, cfg.bit_width)
    fb = build_mel_filterbank(cfg)
    for a in (result.mfcc, result.log_mel, result.power, spec.values, fb.weights, fb.edges_hz,
              *(f.coefficients for f in result.frames)):
        a[...] = 0.25
    again = mfcc_pipeline(s, cfg)
    assert [getattr(again, name).tobytes() for name in ("mfcc", "log_mel", "power")] == want


@PLAN_CASES
def test_frames_are_rows_of_a_private_copy(mode, point):
    cfg = PipelineConfig(mode=mode, **PLAN_POINTS[point])
    result = mfcc_pipeline(_clip(cfg), cfg)
    assert len(result.frames) == result.mfcc.shape[0] > 0
    for i, f in enumerate(result.frames):
        assert f.index == i
        np.testing.assert_array_equal(f.coefficients, result.mfcc[i])
        assert not np.shares_memory(f.coefficients, result.mfcc)


@PLAN_CASES
def test_constants_are_derived_once_per_config(monkeypatch, mode, point):
    from kwsflow import frontend

    cfg = PipelineConfig(mode=mode, **PLAN_POINTS[point])
    s = _clip(cfg)
    builders = ("window_coefficients", "build_mel_filterbank", "approx_csd", "shift_add_planes")
    calls = dict.fromkeys((*builders, "exp"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in builders:
        monkeypatch.setattr(frontend, name, counted(name, getattr(frontend, name)))
    monkeypatch.setattr(np, "exp", counted("exp", np.exp))
    frontend._plan.cache_clear()
    first = mfcc_pipeline(s, cfg)
    assert calls["window_coefficients"] == calls["build_mel_filterbank"] == 1
    calls.update(dict.fromkeys(calls, 0))
    for _ in range(99):
        again = mfcc_pipeline(s, cfg)
    # no window tap, DCT cosine or pre-emphasis constant is decoded again
    assert calls == dict.fromkeys(calls, 0)
    assert again.mfcc.tobytes() == first.mfcc.tobytes()


@pytest.mark.parametrize("policy", ["exact", "csd2", "single_shift", "rectangular"])
def test_fixed_plan_holds_read_only_integer_arrays(policy):
    from kwsflow.frontend import _plan

    for point in PLAN_POINTS.values():
        cfg = PipelineConfig(mode="fixed", **{**point, "window_policy": policy})
        plan = _plan(cfg)
        for a in (plan.taps, plan.dct):  # int32, the word of the window and DCT sums they meet
            assert a.dtype == np.int32 and not a.flags.writeable
        assert plan.dct.shape[:3] == (cfg.n_mel, cfg.n_mfcc, 1) and plan.dct.shape[-1] == 2


# ---------------------------------------------------------------- distance


def test_distance_identity_and_scaling():
    rng = np.random.default_rng(8)
    a = rng.uniform(0, 5, (10, 17))
    assert spectrogram_distance(a, a) == 0.0
    assert abs(spectrogram_distance(1.25 * a, a) - 0.25) < 1e-12


def test_distance_errors():
    a = np.ones((3, 4))
    with pytest.raises(DimensionMismatch):
        spectrogram_distance(a, np.ones((3, 5)))
    with pytest.raises(ZeroReference):
        spectrogram_distance(a, np.zeros((3, 4)))


# ---------------------------------------------------------- frame blocks

# a rectangular window weighs each frame's first sample, whose pre-emphasis
# reads the sample before its block; a Hanning window's zero tap hides it
BLOCK_POINTS = {"chosen": PLAN_POINTS["chosen"], "wide": PLAN_POINTS["wide"],
                "16-bit": {**PLAN_POINTS["wide"], "bit_width": 16},
                "rectangular": {**PLAN_POINTS["wide"], "window_policy": "rectangular"}}


def test_power_blocks_leave_every_bit_unchanged():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from kwsflow import frontend

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(sorted(BLOCK_POINTS)), st.sampled_from(["fixed", "float"]),
                      st.integers(3, 40), st.integers(0, 2 ** 16), st.data())
    def blocked_equals_whole(point, mode, n_frames, seed, data):
        cfg = PipelineConfig(mode=mode, **BLOCK_POINTS[point])
        n = (n_frames - 1) * cfg.frame_hop + cfg.fft_size + data.draw(st.integers(0, cfg.frame_hop - 1))
        s = gen_signal("speechlike", seed=seed, n=n, sample_rate=cfg.sample_rate)
        whole = mfcc_pipeline(s, cfg)  # one block: n_frames * N is below BLOCK_WORDS
        assert whole.power.shape[0] == n_frames
        non_divisor = data.draw(st.sampled_from([r for r in range(2, n_frames) if n_frames % r]))
        for rows in (1, 2, 7, non_divisor):
            # a block size that is not a whole number of frames rounds down to one
            words = rows * cfg.fft_size + data.draw(st.integers(0, cfg.fft_size - 1))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(frontend, "BLOCK_WORDS", words)
                blocked = mfcc_pipeline(s, cfg)
            for name in ("power", "log_mel", "mfcc"):
                assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes(), (rows, name)

    blocked_equals_whole()


def test_working_set_does_not_grow_with_the_buffer():
    # a float wide call on 60 s, less its outputs, peaks no higher than on
    # 10 s plus a margin (the 60 s buffer is 7.7 MB); whole-buffer FFT
    # temporaries put it near 180 MB
    cfg = PipelineConfig(mode="float", **PLAN_POINTS["wide"])
    mfcc_pipeline(_clip(cfg), cfg)  # build the plan and twiddles outside the trace

    def net_peak(seconds):
        s = gen_signal("speechlike", seed=1, n=seconds * cfg.sample_rate, sample_rate=cfg.sample_rate)
        tracemalloc.start()
        try:
            result = mfcc_pipeline(s, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # mfcc twice: frames read a private copy of it
        return peak - result.power.nbytes - result.log_mel.nbytes - 2 * result.mfcc.nbytes

    assert net_peak(60) <= net_peak(10) + 16e6


def test_fixed_peak_sits_within_two_buffers_of_float_on_60_s():
    # fixed mel, log and DCT run per block into preallocated raw outputs; on
    # whole matrices, log_compress's temporaries put the fixed call at 40.1 MB
    # against 12.4 MB in float mode (the 60 s buffer is 7.7 MB)
    def peak(mode):
        cfg = PipelineConfig(mode=mode, **PLAN_POINTS["wide"])
        mfcc_pipeline(_clip(cfg), cfg)  # build the plan and twiddles outside the trace
        tracemalloc.start()
        try:
            mfcc_pipeline(s, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    s = gen_signal("speechlike", seed=1, n=60 * 16000, sample_rate=16000)
    assert peak("fixed") <= peak("float") + 2 * s.samples.nbytes


@pytest.mark.parametrize("mode, whole_buffer_arrays", [("float", 3), ("fixed", 4)])
def test_power_stage_peak_sits_a_buffer_below_whole_buffer_pre_emphasis(mode, whole_buffer_arrays):
    # quantize and pre-emphasis over a whole 60 s, 16 kHz buffer (7.7 MB)
    # held three buffer-length arrays in float mode and four in fixed mode,
    # which set the power stage's peak; the stage must now peak at least
    # one buffer length below that
    cfg = PipelineConfig(mode=mode, **PLAN_POINTS["wide"])
    s = gen_signal("speechlike", seed=1, n=60 * cfg.sample_rate, sample_rate=cfg.sample_rate)
    _power_stage(_clip(cfg), cfg)  # build the plan and twiddles outside the trace
    tracemalloc.start()
    try:
        _power_stage(s, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (whole_buffer_arrays - 1) * s.samples.nbytes
