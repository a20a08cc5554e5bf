"""End-to-end command-line interface checks."""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest

from kwsflow.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_UNMET, dispatch
from kwsflow.corpus import corpus_signals
from kwsflow.dse import THRESHOLDS
from kwsflow.flow import run_flow
from kwsflow.frontend import PipelineConfig
from kwsflow.signal import SignalBuffer, write_wav


def _gen(tmp_path, name="tone.wav", kind="sine", extra=()):
    out = tmp_path / name
    code = dispatch(
        ["gen", "--kind", kind, "--freq", "1000", "--amp", "0.5",
         "--dur", "0.5", "--out", str(out), *extra]
    )
    assert code == EXIT_OK
    return out


def test_gen_writes_wav(tmp_path):
    out = _gen(tmp_path)
    from kwsflow.signal import read_wav

    buf = read_wav(out)
    assert buf.sample_rate == 8000
    assert len(buf.samples) == 4000


def test_gen_deterministic(tmp_path):
    a = _gen(tmp_path, "a.wav", kind="noise")
    b = _gen(tmp_path, "b.wav", kind="noise")
    assert a.read_bytes() == b.read_bytes()


def test_mfcc_csv_output(tmp_path):
    wav = _gen(tmp_path)
    out = tmp_path / "feat.csv"
    code = dispatch(["mfcc", "--in", str(wav), "--mode", "fixed", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "c0,c1,c2,c3,c4,c5,c6,c7"
    # 4000 samples, 32-point frames at hop 16
    assert len(lines) - 1 == (4000 - 32) // 16 + 1
    float(lines[1].split(",")[0])  # parses as numbers


def test_mfcc_json_output_echoes_config(tmp_path):
    wav = _gen(tmp_path)
    out = tmp_path / "feat.json"
    code = dispatch(["mfcc", "--in", str(wav), "--mode", "float", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["config"]["mode"] == "float"
    assert doc["config"]["fft_size"] == 32
    assert len(doc["frames"]) == (4000 - 32) // 16 + 1


def test_mfcc_deterministic(tmp_path):
    wav = _gen(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    dispatch(["mfcc", "--in", str(wav), "--out", str(a)])
    dispatch(["mfcc", "--in", str(wav), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("overrides, mode", [({"n_mfcc": 0}, "fixed"), ({"bit_width": 99}, "float")],
                         ids=["n_mfcc", "float_bit_width"])
def test_mfcc_invalid_pipeline_config_exits_two(tmp_path, capsys, overrides, mode):
    wav = _gen(tmp_path)
    cfg, out = tmp_path / "cfg.json", tmp_path / "feat.csv"
    cfg.write_text(json.dumps(overrides))
    code = dispatch(["mfcc", "--in", str(wav), "--config", str(cfg), "--mode", mode,
                     "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert next(iter(overrides)) in capsys.readouterr().err
    assert not out.exists()


def test_mfcc_non_integer_bit_width_exits_two_before_any_stage(tmp_path, capsys):
    wav = _gen(tmp_path)
    cfg, out = tmp_path / "cfg.json", tmp_path / "feat.csv"
    cfg.write_text(json.dumps({"bit_width": 7.5}))
    code = dispatch(["mfcc", "--in", str(wav), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "ConfigInvalid" in capsys.readouterr().err
    assert not out.exists()


def test_compare_reports_distances(tmp_path):
    wav = _gen(tmp_path)
    out = tmp_path / "cmp.json"
    code = dispatch(["compare", "--in", str(wav), "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    for stage in ("post_fft", "post_mel", "post_dct"):
        assert "distance" in doc[stage]
        assert "max_abs_error" in doc[stage]
    assert doc["n_frames"] > 0


def test_dse_writes_report(tmp_path):
    out = tmp_path / "dse.json"
    assert dispatch(["dse", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["chosen_point"]["sample_rate"] == 8000
    assert doc["chosen_point"]["bit_width"] == 7


def test_dse_unmet_threshold_exits_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"err_max": 0.0}))
    out = tmp_path / "dse.json"
    code = dispatch(["dse", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_UNMET


def test_dse_unknown_threshold_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"err_mx": 0.2}))
    out = tmp_path / "dse.json"
    code = dispatch(["dse", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "err_mx" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["x", True, None])
def test_dse_non_numeric_threshold_exits_two(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"err_max": value}))
    out = tmp_path / "dse.json"
    code = dispatch(["dse", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "err_max" in capsys.readouterr().err
    assert not out.exists()


def test_dse_nan_threshold_exits_two(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "dse.json"
    cfg.write_text('{"err_max": NaN}')
    code = dispatch(["dse", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "err_max" in capsys.readouterr().err
    assert not out.exists()


def test_flow_run_and_exit_codes(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps([{"status": "pass"}]))
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "rtl": [{"writes": {"top.v": "module top; endmodule\n"},
                 "params": {}, "rationale": "r"}],
    }))
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({
        "workdir": str(tmp_path / "work"),
        "stages": {
            "architecture": {},
            "rtl": {"adapter": "mock", "scenario": str(scen), "budget": 2},
        },
        "reasoner": {"kind": "scripted", "script": str(script)},
    }))
    out = tmp_path / "result.json"
    code = dispatch(["flow", "run", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["overall"] == "success"


def test_flow_failure_exits_one(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps([{"status": "fail", "failures": ["x"]}]))
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "rtl": [{"writes": {"top.v": "x"}, "params": {}, "rationale": ""}],
    }))
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({
        "workdir": str(tmp_path / "work"),
        "stages": {
            "architecture": {},
            "rtl": {"adapter": "mock", "scenario": str(scen), "budget": 1},
        },
        "reasoner": {"kind": "scripted", "script": str(script)},
    }))
    code = dispatch(["flow", "run", "--config", str(cfg)])
    assert code == EXIT_UNMET


def test_flow_bad_physical_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({
        "workdir": str(tmp_path / "work"),
        "stages": {"physical": {"command": "true", "timeout_s": 0}},
    }))
    assert dispatch(["flow", "run", "--config", str(cfg)]) == EXIT_BAD_INPUT
    assert "timeout_s" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


def test_bad_arguments_exit_two(tmp_path):
    assert dispatch(["mfcc", "--bogus"]) == EXIT_BAD_INPUT
    assert dispatch(["nonsense"]) == EXIT_BAD_INPUT


def test_missing_input_file_exits_two(tmp_path):
    code = dispatch(
        ["mfcc", "--in", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "o.csv")]
    )
    assert code == EXIT_BAD_INPUT


BAD_WAVS = {  # each raised out of dispatch, exited 2 with numpy's buffer-size message, or read fewer frames
    "cut_to_30_bytes": lambda good: good[:30],
    "empty": lambda good: b"",
    "not_riff": lambda good: b"not a RIFF file, though it is named .wav",
    "cut_by_one_byte": lambda good: good[:-1],
    "cut_by_two_bytes": lambda good: good[:-2],
    "cut_by_ten_bytes": lambda good: good[:-10],
}


def _assert_bad_wav_named(capsys, code, path):
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: UnsupportedFormat: ") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage", BAD_WAVS)
def test_mfcc_of_a_malformed_wav_exits_two_naming_it(tmp_path, capsys, damage):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(BAD_WAVS[damage](_gen(tmp_path).read_bytes()))
    code = dispatch(["mfcc", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
    _assert_bad_wav_named(capsys, code, bad)


def test_dse_over_a_corpus_with_a_truncated_wav_exits_two_naming_it(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    good = _gen(corpus, "a.wav").read_bytes()
    (corpus / "b.wav").write_bytes(good[:30])
    code = dispatch(["dse", "--corpus", str(corpus), "--out", str(tmp_path / "dse.json")])
    _assert_bad_wav_named(capsys, code, corpus / "b.wav")


def test_flow_unknown_stage_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"workdir": str(tmp_path / "w"),
                               "stages": {"physical": {"comand": "true"}}}))
    assert dispatch(["flow", "run", "--config", str(cfg)]) == EXIT_BAD_INPUT
    assert "comand" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_flow_malformed_scenario_exits_two(tmp_path, capsys):
    scen, script, cfg = tmp_path / "scen.json", tmp_path / "script.json", tmp_path / "flow.json"
    scen.write_text(json.dumps({"status": "pass"}))
    script.write_text(json.dumps({"rtl": []}))
    cfg.write_text(json.dumps({
        "workdir": str(tmp_path / "work"),
        "stages": {"rtl": {"adapter": "mock", "scenario": str(scen)}},
        "reasoner": {"kind": "scripted", "script": str(script)},
    }))
    assert dispatch(["flow", "run", "--config", str(cfg)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "ConfigInvalid" in err and "scen.json" in err
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("scen_text, script_text, named", [
    ('[{"status": "pas"}]', '{"rtl": []}', "pas"),
    ('[{"status": "pass"}]', '{"rlt": []}', "rlt"),
    ('[{"status": "pass"}]', '{"rtl": [{"writs": {"top.v": "x"}}]}', "writs"),
], ids=["report-status", "script-stage", "proposal-key"])
def test_flow_misspelt_scenario_status_or_script_stage_exits_two(
        tmp_path, capsys, scen_text, script_text, named):
    scen, script, cfg = tmp_path / "scen.json", tmp_path / "script.json", tmp_path / "flow.json"
    scen.write_text(scen_text)
    script.write_text(script_text)
    cfg.write_text(json.dumps({
        "workdir": str(tmp_path / "work"),
        "stages": {"rtl": {"adapter": "mock", "scenario": str(scen)}},
        "reasoner": {"kind": "scripted", "script": str(script)},
    }))
    assert dispatch(["flow", "run", "--config", str(cfg)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "ConfigInvalid" in err and repr(named) in err
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("report, named", [
    ({"status": "pass", "cell_count": "many"}, "cell_count"),
    ({"status": "pass", "worst_slack_ns": "0.1"}, "worst_slack_ns"),
    ({"status": "pass", "failures": ["x"]}, "cannot carry failures"),
    ({"status": "pass", "cell_cout": 3}, "'cell_cout'"),
], ids=["cell-count", "slack", "passing-with-failures", "unknown-key"])
def test_flow_mistyped_scenario_report_exits_two(tmp_path, capsys, report, named):
    scen, script, cfg = tmp_path / "scen.json", tmp_path / "script.json", tmp_path / "flow.json"
    scen.write_text(json.dumps([report]))
    script.write_text(json.dumps({"rtl": [{"writes": {"top.v": "x"}}]}))
    cfg.write_text(json.dumps({
        "workdir": str(tmp_path / "work"),
        "stages": {"rtl": {"adapter": "mock", "scenario": str(scen)}},
        "reasoner": {"kind": "scripted", "script": str(script)},
    }))
    assert dispatch(["flow", "run", "--config", str(cfg)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "ConfigInvalid" in err and "scen.json" in err and named in err
    assert not (tmp_path / "work").exists()



def _mutations(st, region: int, byte):
    """A mutation of a valid file: cut after some byte, junk appended, or up to
    four bytes drawn from byte written at positions in its first region bytes."""
    return st.one_of(
        st.tuples(st.just("cut"), st.integers(0, 1 << 16)),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
        st.tuples(st.just("overwrite"), st.lists(st.tuples(st.integers(0, region - 1), byte), min_size=1, max_size=4)),
    )


def _mutate(good: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "cut":
        return good[:arg % len(good)]
    if kind == "append":
        return good + arg
    out = bytearray(good)
    for at, byte in arg:
        out[at % len(out)] = byte
    return bytes(out)


def _exit_code(argv: list[str], codes=(EXIT_OK, EXIT_BAD_INPUT)) -> int:
    """dispatch(argv), which must exit with one of codes, by default 0 or 2, and no traceback on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(argv)
    assert code in codes and "Traceback" not in err.getvalue(), (code, err.getvalue())
    return code


def test_mutated_wav_exits_zero_or_two(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    good, bad = _gen(tmp_path, extra=("--dur", "0.1")).read_bytes(), tmp_path / "bad.wav"

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(_mutations(st, 44, st.integers(0, 255)))  # 44 bytes: the RIFF, fmt and data headers
    @hypothesis.example(("overwrite", [(17, 1)]))  # a fmt chunk past the RIFF chunk: wave raised RuntimeError
    def exits_zero_or_two(mutation):
        bad.write_bytes(_mutate(good, mutation))
        _exit_code(["mfcc", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
        _exit_code(["compare", "--in", str(bad)])

    exits_zero_or_two()


# a flow whose every input is a name in the directory it runs from
FLOW = {"workdir": "w", "stages": {"rtl": {"adapter": "mock", "scenario": "s.json", "budget": 1}},
        "reasoner": {"kind": "scripted", "script": "p.json"}}
FLOW_INPUTS = {"s.json": [{"status": "pass"}], "p.json": {"rtl": [{"writes": {"top.v": "x"}}]}}


def test_mutated_pipeline_and_flow_json_exit_zero_or_two(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    wav = _gen(tmp_path, extra=("--dur", "0.1"))
    good = {"pipeline": json.dumps({f.name: f.default for f in fields(PipelineConfig)}).encode(),
            "flow": json.dumps(FLOW).encode()}
    # no overwrite writes ".", "/" or "\\", so each path the flow names stays a name in its own directory
    byte = st.integers(0, 255).filter(lambda b: b not in b"./\\")

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(sorted(good)), _mutations(st, 1 << 16, byte))
    def exits_zero_or_two(surface, mutation):
        case = Path(tempfile.mkdtemp(dir=tmp_path))
        (case / "config.json").write_bytes(_mutate(good[surface], mutation))
        if surface == "pipeline":
            _exit_code(["mfcc", "--in", str(wav), "--config", str(case / "config.json"), "--out", str(case / "o.csv")])
            return
        for name, doc in FLOW_INPUTS.items():
            (case / name).write_text(json.dumps(doc))
        monkeypatch.chdir(case)
        if _exit_code(["flow", "run", "--config", "config.json"]) == EXIT_BAD_INPUT:
            assert sorted(os.listdir(case)) == ["config.json", *sorted(FLOW_INPUTS)]  # no workdir

    exits_zero_or_two()


# a two-iteration flow, which a checkpoint stops after its first record, and
# thresholds whose err_max of 0.1 becomes 0.0, which no bit width meets, when
# one byte is overwritten
FLOW2 = {"workdir": "w", "stages": {"rtl": {"adapter": "mock", "scenario": "s.json", "budget": 2}},
         "reasoner": {"kind": "scripted", "script": "p.json"}}
FLOW2_INPUTS = {"s.json": [{"status": "fail", "failures": ["x"]}, {"status": "pass"}],
                "p.json": {"rtl": [{"writes": {"top.v": "x"}}, {"writes": {"top.v": "y"}}]}}
GOOD_THRESHOLDS = json.dumps(THRESHOLDS).encode()
ERR_MAX_DIGIT = GOOD_THRESHOLDS.index(b'"err_max": 0.1') + len(b'"err_max": 0.')
PASS_AT = json.dumps(FLOW2_INPUTS["s.json"]).encode().index(b"pass")


def test_mutated_dse_script_scenario_and_checkpoint_json_exit_zero_one_or_two(tmp_path, monkeypatch):
    # a mutation can also leave a well-formed input whose criterion is unmet or
    # whose stage fails, which exits 1, as the two examples below do
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    corpus = tmp_path / "corpus"  # the bundled signals cut to 1,000 samples: dse takes ms
    corpus.mkdir()
    for i, s in enumerate(corpus_signals(8000)):
        write_wav(corpus / f"s{i}.wav", SignalBuffer(s.samples[:1000], 8000))
    seed = tmp_path / "seed"
    seed.mkdir()
    monkeypatch.chdir(seed)
    for name, doc in FLOW2_INPUTS.items():
        Path(name).write_text(json.dumps(doc))
    run_flow(FLOW2, "ck.json", stop_after=1)
    good = {"dse": GOOD_THRESHOLDS, "checkpoint": Path("ck.json").read_bytes(),
            **{name: json.dumps(doc).encode() for name, doc in FLOW2_INPUTS.items()}}
    byte = st.integers(0, 255).filter(lambda b: b not in b"./\\")  # every path stays a name, as above
    codes = (EXIT_OK, EXIT_UNMET, EXIT_BAD_INPUT)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(sorted(good)), _mutations(st, 1 << 16, byte))
    @hypothesis.example("dse", ("overwrite", [(ERR_MAX_DIGIT, ord("0"))]))
    @hypothesis.example("s.json", ("overwrite", [(PASS_AT + i, b) for i, b in enumerate(b"fail")]))
    def exits_zero_one_or_two(surface, mutation):
        case = Path(tempfile.mkdtemp(dir=tmp_path))
        monkeypatch.chdir(case)
        if surface == "dse":
            Path("t.json").write_bytes(_mutate(good[surface], mutation))
            _exit_code(["dse", "--corpus", str(corpus), "--config", "t.json", "--out", "o.json"], codes)
            return
        Path("config.json").write_text(json.dumps(FLOW2))
        for name, doc in FLOW2_INPUTS.items():
            Path(name).write_text(json.dumps(doc))
        argv = ["flow", "run", "--config", "config.json"]
        if surface == "checkpoint":
            Path("ck.json").write_bytes(_mutate(good[surface], mutation))
            argv = ["flow", "resume", "--config", "config.json", "--checkpoint", "ck.json"]
        else:
            Path(surface).write_bytes(_mutate(good[surface], mutation))
        inputs = sorted(os.listdir(case))
        if _exit_code(argv, codes) == EXIT_BAD_INPUT:
            assert sorted(os.listdir(case)) == inputs  # no workdir

    exits_zero_one_or_two()
