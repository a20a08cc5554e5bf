"""The DSE's batched peak scan against the per-frame loops it replaced.

top_peak_bins scans whole (frames, bins) power matrices and _peak_stability
scores each signal from two such scans.  The scalar peak loop and the
per-frame stability loop are kept here, and only here, as the oracles; the
library must match them exactly, float for float.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kwsflow.corpus import corpus_signals  # noqa: E402
from kwsflow.dse import (  # noqa: E402
    BIT_CANDIDATES,
    WINDOW_CANDIDATES,
    DesignPoint,
    _peak_stability,
    top_peak_bins,
)
from kwsflow.frontend import mfcc_pipeline  # noqa: E402


# ------------------------------------------------------------------ oracles


def top_peak_bins_loop(power_row, max_peaks=3):
    """One frame's peak bins, bin by bin (the former implementation)."""
    half = len(power_row) - 1
    cand = []
    for k in range(1, half + 1):
        if power_row[k] <= power_row[k - 1]:
            continue
        if k < half and power_row[k] <= power_row[k + 1]:
            continue
        cand.append(k)
    if not cand:
        return []
    pmax = max(power_row[k] for k in cand)
    cand = [k for k in cand if power_row[k] >= pmax / 4.0]
    cand.sort(key=lambda k: -power_row[k])
    return cand[:max_peaks]


def peak_stability_loop(corpus, p):
    """Peak-set stability and worst error, one frame at a time (the former implementation)."""
    sets_match = True
    worst = 0.0
    for s in corpus:
        pf = mfcc_pipeline(s, p.pipeline_config(mode="float")).power
        px = mfcc_pipeline(s, p.pipeline_config(mode="fixed")).power
        for i in range(pf.shape[0]):
            ref = top_peak_bins_loop(pf[i])
            if set(ref) != set(top_peak_bins_loop(px[i])):
                sets_match = False
                continue
            for k in ref:
                mf = math.sqrt(pf[i][k])
                worst = max(worst, abs(math.sqrt(px[i][k]) - mf) / mf)
    return sets_match, worst


def assert_rows_match_loop(power, max_peaks):
    table = top_peak_bins(power, max_peaks)
    assert table.shape == (power.shape[0], max_peaks)
    for row, got in zip(power, table):
        want = top_peak_bins_loop(row, max_peaks)
        assert got.tolist() == want + [-1] * (max_peaks - len(want))


# -------------------------------------------------------------- peak scan


# small integers make ties and plateaus common
small_ints = st.integers(0, 3).map(float)
powers = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), bins=st.integers(2, 20), frames=st.integers(1, 6),
       max_peaks=st.integers(1, 5), values=st.sampled_from((small_ints, powers)))
def test_matrix_scan_matches_loop_row_by_row(data, bins, frames, max_peaks, values):
    rows = data.draw(st.lists(st.lists(values, min_size=bins, max_size=bins),
                              min_size=frames, max_size=frames))
    assert_rows_match_loop(np.array(rows), max_peaks)


@pytest.mark.parametrize("max_peaks", range(1, 6))
def test_matrix_scan_edge_rows(max_peaks):
    cases = [
        np.zeros((3, 17)),                        # all zero
        np.full((2, 9), 2.5),                     # flat
        np.zeros((2, 0)),                         # no bins
        np.array([[1.0], [0.0]]),                 # DC alone
        np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),            # length 2
        np.array([[0.0, 2.0, 1.0], [0.0, 1.0, 2.0], [2.0, 1.0, 2.0]]),  # length 3
        np.array([[0.0, 1.0, 0.0, 1.0, 0.0, 3.0]]),  # the strongest peak in the last bin
        np.array([[0.0, 2.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0]]),  # plateau and ties
        np.array([[5.0, 1.0, 4.0, 1.0, 1.0, 1.0, 8.0, 1.0, 1.0]]),  # DC above every peak
    ]
    for power in cases:
        assert_rows_match_loop(power, max_peaks)


def test_one_row_scan_puts_ties_in_bin_order():
    row = np.array([0.0, 4.0, 1.0, 3.0, 0.0, 4.0, 0.0])
    assert top_peak_bins(row[np.newaxis])[0].tolist() == top_peak_bins_loop(row) == [1, 5, 3]


# -------------------------------------------------------- peak stability


@pytest.fixture(scope="module")
def corpus_8k():
    return corpus_signals(8000)


@pytest.mark.parametrize("policy", WINDOW_CANDIDATES)
@pytest.mark.parametrize("bits", [b for b in BIT_CANDIDATES if b <= 11])
def test_peak_stability_matches_per_frame_loop(corpus_8k, bits, policy):
    p = DesignPoint(sample_rate=8000, bit_width=bits, window_policy=policy)
    got = _peak_stability(corpus_8k, p)
    want = peak_stability_loop(corpus_8k, p)
    assert got == want
    assert type(got[0]) is bool and type(got[1]) is float


@pytest.mark.parametrize("bits, want", [
    (4, (False, 0.0)),                   # no frame keeps its peak set
    (5, (False, 0.30188428126254946)),  # 2,123 of 2,247 do; their error counts
])
def test_peak_stability_partial_matches_on_bundled_corpus(corpus_8k, bits, want):
    assert _peak_stability(corpus_8k, DesignPoint(sample_rate=8000, bit_width=bits)) == want
