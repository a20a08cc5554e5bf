"""Top-level acceptance gate for the design-flow engine.

Each test pins one externally checkable property of the system:
analytic anchors of the front end, reproduction of the full
design-space exploration on the bundled corpus, hermetic behavior of
the staged feedback loop, and totality of the tool-report parsers.
The last test exercises the real EDA tools and only runs when
AIEDA_ENABLE_REAL_TOOLS=1 and the tools are installed.
"""

import json
import os
import random
import shutil
import time

import numpy as np
import pytest

from kwsflow.corpus import corpus_signals
from kwsflow.dse import (
    DesignPoint,
    cost_model,
    run_dse,
    select_window_policy,
)
from kwsflow.errors import NoFeasiblePoint
from kwsflow.frontend import (
    ALLOWED_FFT_SIZES,
    PipelineConfig,
    PreemphasisConfig,
    fft_r22sdf,
    mel_map,
    mfcc_pipeline,
    preemphasis,
    spectrogram_distance,
    window_coefficients,
)
from kwsflow.signal import spectral_leakage
from kwsflow.toolchain import (
    parse_simulation_output,
    parse_sta_output,
    parse_synthesis_output,
)
from oracles import dft_reference


# 1. Mel scale anchors and invertibility.

def test_acceptance_mel_map():
    t0 = time.monotonic()
    assert mel_map(0.0) == 0.0
    assert abs(mel_map(1000.0) - 1000.0) <= 0.5
    for f in np.geomspace(20.0, 8000.0, 100):
        back = mel_map(mel_map(float(f), "to_mel"), "to_hz")
        assert abs(back - f) <= 1e-6 * f
    assert time.monotonic() - t0 < 1.0


# 2. Hardware-shaped FFT against the direct-sum reference transform.

def test_acceptance_fft_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    for n in ALLOWED_FFT_SIZES:
        cfg = PipelineConfig(fft_size=n, mode="float")
        frames = rng.uniform(-1.0, 1.0, (100, n))
        re, im = fft_r22sdf(frames, np.zeros_like(frames), cfg)
        for i in range(frames.shape[0]):
            ref = dft_reference(frames[i])
            assert np.max(np.abs((re[i] + 1j * im[i]) - ref)) < 1e-9
    assert time.monotonic() - t0 < 5.0


# 3. Pre-emphasis filter anchors at k=5 (alpha = 31/32).

def test_acceptance_preemphasis_anchors():
    impulse = np.zeros(8)
    impulse[0] = 1.0
    h = preemphasis(impulse, PreemphasisConfig(5))
    assert h[0] == 1.0
    assert h[1] == -(31 / 32)
    assert np.all(h[2:] == 0.0)
    const = preemphasis(np.full(32, 0.5), PreemphasisConfig(5))
    assert np.all(const[1:] == 0.5 / 32)


# 4. Window criterion: the leakage threshold separates the policies.

def test_acceptance_window_criterion():
    exact = window_coefficients(32, "exact").values
    rect = window_coefficients(32, "rectangular").values
    assert spectral_leakage(exact) <= 0.10
    assert spectral_leakage(rect) > 0.10
    choice = select_window_policy(DesignPoint())
    assert spectral_leakage(window_coefficients(32, choice).values) <= 0.10
    with pytest.raises(NoFeasiblePoint):
        select_window_policy(DesignPoint(), policies=("rectangular",))


# 5. Full exploration reproduces the target configuration, and every
#    decision is tight: the selected candidate passes its threshold while
#    the next-cheaper candidate fails.

def test_acceptance_dse_reproduction():
    t0 = time.monotonic()
    report = run_dse()
    p = report.chosen_point
    assert (p.sample_rate, p.bit_width, p.preemphasis_k, p.fft_size) == (
        8000, 7, 5, 32)
    assert p.window_policy == "single_shift"
    assert p.mel_shape == "rectangular"

    by_param = {d["parameter"]: d for d in report.decisions}

    def cand(entry, value):
        return next(c for c in entry["candidates"] if c["value"] == value)

    bw = by_param["sample_rate"]
    assert cand(bw, 8000)["feasible"]
    assert not cand(bw, 4000)["feasible"]

    bits = by_param["bit_width"]
    assert cand(bits, 7)["feasible"]
    assert not cand(bits, 6)["feasible"]

    alpha = by_param["preemphasis_k"]
    assert cand(alpha, 5)["feasible"]
    assert not cand(alpha, 4)["feasible"]

    fft = by_param["fft_size"]
    assert cand(fft, 32)["feasible"]
    assert not cand(fft, 16)["feasible"]

    win = by_param["window_policy"]
    assert cand(win, "single_shift")["feasible"]
    assert not cand(win, "rectangular")["feasible"]

    mel = by_param["mel_shape"]
    assert cand(mel, "rectangular")["feasible"]

    assert time.monotonic() - t0 < 30.0


# 6. Cost-model anchor ratios.

def test_acceptance_cost_model_ratios():
    hi_rate = cost_model(DesignPoint(sample_rate=44100))[0]
    lo_rate = cost_model(DesignPoint(sample_rate=8000))[0]
    assert abs(hi_rate / lo_rate - 5.5125) <= 1e-9
    wide = cost_model(DesignPoint(bit_width=14))[1]
    narrow = cost_model(DesignPoint(bit_width=7))[1]
    assert wide / narrow == 2.0


# 7. More bits never increase the corpus-averaged spectrogram error.

def test_acceptance_bitwidth_monotonicity():
    t0 = time.monotonic()
    corpus = corpus_signals(8000)
    p = DesignPoint(window_policy="single_shift")
    dists = []
    for b in (5, 7, 9, 11):
        num, den = 0.0, 0
        for s in corpus:
            fx = mfcc_pipeline(s, p.pipeline_config(bit_width=b, mode="fixed")).power
            fl = mfcc_pipeline(s, p.pipeline_config(bit_width=b, mode="float")).power
            num += spectrogram_distance(fx, fl)
            den += 1
        dists.append(num / den)
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    assert time.monotonic() - t0 < 60.0


# 8. The staged loop is hermetic and resumable.

def test_acceptance_flow_loop(tmp_path):
    from kwsflow.flow import resume_flow, run_flow
    from kwsflow.toolchain import ToolReport

    t0 = time.monotonic()

    def proposal(i):
        return {"writes": {f"rtl/rev{i}.v": f"// rev {i}\n"},
                "params": {"rev": i}, "rationale": "next attempt"}

    def config(root, budget):
        root.mkdir(parents=True, exist_ok=True)
        scen = root / "scenario.json"
        scen.write_text(json.dumps([
            ToolReport(status="fail", failures=("check A",)).as_dict(),
            ToolReport(status="fail", failures=("check B",)).as_dict(),
            ToolReport(status="pass").as_dict(),
        ]))
        script = root / "script.json"
        script.write_text(json.dumps({"rtl": [proposal(i) for i in range(3)]}))
        return {
            "workdir": str(root / "work"),
            "stages": {
                "rtl": {"adapter": "mock", "scenario": str(scen),
                        "budget": budget},
            },
            "reasoner": {"kind": "scripted", "script": str(script)},
        }

    converge = run_flow(config(tmp_path / "a", 4))
    assert converge.statuses["rtl"] == "passed"
    assert len(converge.history) == 3

    exhausted = run_flow(config(tmp_path / "b", 2))
    assert exhausted.statuses["rtl"] == "failed"
    assert len(exhausted.history) == 2

    reference = run_flow(config(tmp_path / "ref", 4)).to_json()
    for cut in (1, 2, 3):
        root = tmp_path / f"cut{cut}"
        cfg = config(root, 4)
        ck = root / "ck.json"
        run_flow(cfg, checkpoint_path=ck, stop_after=cut)
        resumed = resume_flow(cfg, ck).to_json()
        assert resumed == reference

    assert time.monotonic() - t0 < 5.0


# 9. Report parsers are total functions over arbitrary bytes.

def test_acceptance_parser_totality_fuzz():
    t0 = time.monotonic()
    rng = random.Random(2024)
    statuses = {"pass", "fail", "compile_error", "timeout",
                "tool_missing", "parse_error"}
    for _ in range(10_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        for parse in (parse_simulation_output, parse_synthesis_output,
                      parse_sta_output):
            assert parse(blob).status in statuses
    assert time.monotonic() - t0 < 10.0


# 10. Real EDA tools on the bundled FIFO fixture (opt-in).

_REAL = (
    os.environ.get("AIEDA_ENABLE_REAL_TOOLS") == "1"
    and shutil.which("iverilog")
    and shutil.which("vvp")
    and shutil.which("yosys")
)


@pytest.mark.skipif(not _REAL, reason="set AIEDA_ENABLE_REAL_TOOLS=1 with "
                    "iverilog/vvp/yosys installed")
def test_acceptance_real_toolchain(tmp_path):
    from fifo_fixture import write_fifo_fixture
    from kwsflow.toolchain import run_simulation, run_synthesis

    files = write_fifo_fixture(tmp_path)
    sim = run_simulation(files[:1], files[1], tmp_path)
    assert sim.status == "pass"
    assert sim.failures == ()
    syn = run_synthesis(files[:1], tmp_path, top="fifo")
    assert syn.status == "pass"
    assert syn.cell_count and syn.cell_count > 0
    probe = parse_sta_output("worst slack max 0.87\n")
    assert probe.status == "pass" and probe.worst_slack_ns == 0.87
