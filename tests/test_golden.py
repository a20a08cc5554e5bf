"""Golden gate: SHA-256 digests of outputs that must stay byte-identical.

Pins fixed-mode front-end bits over a matrix of configs, the bundled-corpus
features, the DSE report and its partial failure reports, evaluate_point,
and two hermetic flow results.  Any refactor or optimisation must leave every
digest unchanged; a digest that moves means hardware semantics moved.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from kwsflow.corpus import corpus_signals
from kwsflow.dse import DesignPoint, DseStageError, evaluate_point, run_dse
from kwsflow.flow import run_flow
from kwsflow.frontend import PipelineConfig, mfcc_pipeline
from kwsflow.signal import gen_signal
from kwsflow.toolchain import ToolReport

BIT_WIDTHS = (4, 7, 12, 16)
WINDOW_POLICIES = ("exact", "csd2", "single_shift", "rectangular")
MEL_SHAPES = ("rectangular", "triangular")
FFT_SIZES = (16, 32, 64, 128, 256)
SIGNALS = (
    ("speechlike", {"dc_offset": 0.05}, 3),
    ("multitone", {"freqs": [440.0, 1300.0, 3100.0], "amps": [0.6, 0.3, 0.1]}, 0),
    ("noise", {"amp": 0.9}, 5),
)
N_SAMPLES = 400

GOLDEN = {
    "frontend_matrix": "f0e64784d334895389bd99ec3383a35b99cb70ff0234c5954962fb912b68bc86",
    "frontend_corpus": "edb21a5dab23df63a0a6b86f2f77f4d685d37767707b68515c7055b02c699ceb",
    "dse_report": "3e3dfad8569378c742bd3108a2fa469df0962bb392feec20aa4e0ce16d47d84b",
    "dse_partial_err_max": "5b0cc8b89cf975bcc5f5c83999f5654b8de486b85a280db2206417bba7177206",
    "dse_partial_frac_max": "9b1d0182da550d991e8b7eff450a27ebb92a9531c21cfe822782df5b22588747",
    "dse_partial_leak_max": "d65b07b8ecc2586c756c0721095e2b6d18d0f715336fed7649f4a08734ecc8df",
    "dse_partial_loss_max": "84e663d1eb4bdbf6d4d0f38be5012ca40ad5c86451804d5b143a0c6199be4299",
    "evaluate_point": "dfc76fbc0f2ef3a4bad1551f492f7f826dff77aa3fe01a86edafd2063c30ae06",
    "flow_result": "94f04971cbafcbd2fed0bd636915d321e7f80732b7198c9819543993bab62efc",
    "single_shot_flow": "4b2c5346f25a1e67446122a1145193d47ed06cdb0ec8d93464e8c9cf3083c53e",
}


def _update(h, result) -> None:
    for name in ("power", "log_mel", "mfcc"):
        a = np.ascontiguousarray(getattr(result, name), dtype="<f8")
        h.update(f"{name}{a.shape}".encode())
        h.update(a.tobytes())


def frontend_matrix_digest() -> str:
    h = hashlib.sha256()
    bufs = [gen_signal(kind, params, seed=seed, n=N_SAMPLES) for kind, params, seed in SIGNALS]
    for i, (bits, policy, shape, n) in enumerate(
            itertools.product(BIT_WIDTHS, WINDOW_POLICIES, MEL_SHAPES, FFT_SIZES)):
        n_mel = 4 if n == 16 else 8  # triangular filters need >= 2 bins each
        cfg = PipelineConfig(bit_width=bits, window_policy=policy, mel_shape=shape,
                             fft_size=n, preemphasis_k=3 + i % 4, n_mel=n_mel,
                             n_mfcc=n_mel, mode="fixed")
        _update(h, mfcc_pipeline(bufs[i % len(bufs)], cfg))
    return h.hexdigest()


def frontend_corpus_digest() -> str:
    h = hashlib.sha256()
    for cfg in (PipelineConfig(window_policy="single_shift", mode="fixed"),
                PipelineConfig(sample_rate=16000, bit_width=12, fft_size=256,
                               window_policy="csd2", mel_shape="triangular",
                               n_mel=20, n_mfcc=13, mode="fixed")):
        for s in corpus_signals(cfg.sample_rate):
            _update(h, mfcc_pipeline(s, cfg))
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def partial_report_digest(key: str) -> str:
    with pytest.raises(DseStageError) as exc:
        run_dse(config={key: 0.0})
    return text_digest(exc.value.report.to_json())


def evaluate_point_digest() -> str:
    corpus = corpus_signals(8000)
    points = (
        DesignPoint(),
        DesignPoint(bit_width=5, window_policy="csd2", mel_shape="triangular"),
        DesignPoint(bit_width=10, preemphasis_k=3, fft_size=64,
                    window_policy="rectangular"),
    )
    docs = [evaluate_point(p, corpus).as_dict() for p in points]
    return text_digest(json.dumps(docs, sort_keys=True))


def _write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def flow_result_digest(tmp_path) -> str:
    fail = ToolReport(status="fail", failures=("assertion",)).as_dict()
    ok = ToolReport(status="pass").as_dict()
    synth = ToolReport(status="pass", cell_count=412, worst_slack_ns=0.25).as_dict()
    script = {
        stage: [{"writes": {f"rtl/{stage}_{i}.v": f"// {stage} rev {i}\nmodule top; endmodule\n"},
                 "params": {"rev": i}, "rationale": f"{stage} attempt {i}"}
                for i in range(3)]
        for stage in ("rtl", "synthesis")
    }
    config = {
        "workdir": str(tmp_path / "work"),
        "stages": {
            "rtl": {"adapter": "mock", "budget": 4,
                    "scenario": _write_json(tmp_path / "rtl.json", [fail, fail, ok])},
            "synthesis": {"adapter": "mock", "budget": 3,
                          "scenario": _write_json(tmp_path / "syn.json", [fail, synth])},
        },
        "reasoner": {"kind": "scripted",
                     "script": _write_json(tmp_path / "script.json", script)},
    }
    return text_digest(run_flow(config).to_json())


def single_shot_flow_digest(tmp_path) -> str:
    """Architecture (bundled DSE) and physical each write one history record."""
    script = {"rtl": [{"writes": {"rtl/top.v": "module top; endmodule\n"},
                       "params": {}, "rationale": "only attempt"}]}
    config = {
        "workdir": str(tmp_path / "work"),
        "stages": {
            "architecture": {},
            "rtl": {"adapter": "mock", "budget": 1, "scenario": _write_json(
                tmp_path / "rtl.json", [ToolReport(status="pass").as_dict()])},
            "physical": {"command": "printf 'placed\\n'"},
        },
        "reasoner": {"kind": "scripted",
                     "script": _write_json(tmp_path / "script.json", script)},
    }
    return text_digest(run_flow(config).to_json())


def test_frontend_fixed_matrix_bits():
    assert frontend_matrix_digest() == GOLDEN["frontend_matrix"]


def test_frontend_fixed_corpus_bits():
    assert frontend_corpus_digest() == GOLDEN["frontend_corpus"]


def test_run_dse_report_bytes():
    assert text_digest(run_dse().to_json()) == GOLDEN["dse_report"]


@pytest.mark.parametrize("key", ["err_max", "frac_max", "leak_max", "loss_max"])
def test_run_dse_partial_report_bytes(key):
    assert partial_report_digest(key) == GOLDEN[f"dse_partial_{key}"]


def test_evaluate_point_bytes():
    assert evaluate_point_digest() == GOLDEN["evaluate_point"]


def test_hermetic_flow_result_bytes(tmp_path):
    assert flow_result_digest(tmp_path) == GOLDEN["flow_result"]


def test_single_shot_flow_result_bytes(tmp_path):
    assert single_shot_flow_digest(tmp_path) == GOLDEN["single_shot_flow"]
