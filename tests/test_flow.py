"""Feedback-loop orchestrator: stage loop, checkpointing, reasoners."""

import contextlib
import hashlib
import http.client
import inspect
import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

from kwsflow import flow
from kwsflow.cli import EXIT_BAD_INPUT, dispatch
from kwsflow.errors import (
    CheckpointCorrupt,
    ConfigInvalid,
    ConfigMismatch,
    KwsflowError,
    RemoteProtocolError,
    ScenarioExhausted,
    SchemaViolation,
    ScriptExhausted,
)
from kwsflow.flow import (
    FlowState,
    Proposal,
    RemoteReasoner,
    ScriptedReasoner,
    Verdict,
    load_checkpoint,
    resume_flow,
    run_flow,
    run_stage,
    save_checkpoint,
    validate_config,
)
from kwsflow.toolchain import MockAdapter, ToolReport


# ----------------------------------------------------------------- fixtures


def _proposal(tag):
    return {
        "writes": {f"rtl/top_{tag}.v": f"// revision {tag}\nmodule top; endmodule\n"},
        "params": {"rev": tag},
        "rationale": f"attempt {tag}",
    }


def make_config(tmp_path, scenario, budget=4, script_entries=3, stages=None):
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps([r.as_dict() for r in scenario]))
    script_path = tmp_path / "script.json"
    script_path.write_text(
        json.dumps({"rtl": [_proposal(i) for i in range(script_entries)]})
    )
    cfg_stages = {
        "architecture": {},
        "rtl": {"adapter": "mock", "scenario": str(scen_path), "budget": budget},
    }
    if stages:
        cfg_stages.update(stages)
    return {
        "workdir": str(tmp_path / "work"),
        "stages": cfg_stages,
        "reasoner": {"kind": "scripted", "script": str(script_path)},
    }


def _fail(msg="assertion"):
    return ToolReport(status="fail", failures=(msg,))


def _pass():
    return ToolReport(status="pass")


# ------------------------------------------------------------ config checks


def test_validate_config_requires_workdir_and_stages():
    with pytest.raises(ConfigInvalid):
        validate_config({"stages": {"rtl": {}}})
    with pytest.raises(ConfigInvalid):
        validate_config({"workdir": "/tmp/x"})
    with pytest.raises(ConfigInvalid):
        validate_config({"workdir": "/tmp/x", "stages": {"nonsense": {}}})


def test_validate_config_mock_needs_scenario():
    with pytest.raises(ConfigInvalid):
        validate_config(
            {"workdir": "/tmp/x", "stages": {"rtl": {"adapter": "mock"}}}
        )


def test_validate_config_rejects_unknown_dse_threshold(tmp_path):
    cfg = make_config(tmp_path, [_pass()])
    cfg["stages"]["architecture"] = {"dse": {"delta_max": 0.1}}
    validate_config(cfg)
    cfg["stages"]["architecture"] = {"dse": {"delta_mx": 0.1}}
    with pytest.raises(ConfigInvalid, match="delta_mx"):
        validate_config(cfg)


@pytest.mark.parametrize("stage_cfgs, match", [
    ({"architecture": None}, "must be an object"),
    ({"physical": None}, "must be an object"),
    ({"physical": "sleep 1"}, "must be an object"),
    ({"physical": {"command": ""}}, "nonempty string"),
    ({"physical": {"command": ["true"]}}, "nonempty string"),
    ({"physical": {"command": "true", "timeout_s": 0}}, "timeout_s"),
    ({"physical": {"command": "true", "timeout_s": "60"}}, "timeout_s"),
    ({"rtl": {"adapter": "real", "timeout_s": -1}}, "timeout_s"),
    ({"synthesis": {"timeout_s": True}}, "timeout_s"),
    ({"rtl": {"adapter": "real", "budget": True}}, "budget"),
    ({"synthesis": {"budget": 2.0}}, "budget"),
    ({"architecture": {"dse": {"err_max": "x"}}}, "err_max"),
    ({"architecture": {"dse": {"err_max": True}}}, "err_max"),
])
def test_validate_config_checks_physical_and_timeouts(tmp_path, stage_cfgs, match):
    cfg = make_config(tmp_path, [_pass()], stages=stage_cfgs)
    with pytest.raises(ConfigInvalid, match=match):
        validate_config(cfg)


@pytest.mark.parametrize("reasoner", ["scripted", ["scripted"], None, {"kind": "bogus"}])
def test_validate_config_requires_a_reasoner_object(tmp_path, reasoner):
    cfg = make_config(tmp_path, [_pass()])
    cfg["reasoner"] = reasoner
    with pytest.raises(ConfigInvalid, match="reasoner must be an object"):
        validate_config(cfg)


def test_validate_config_accepts_physical_command_and_timeouts(tmp_path):
    validate_config(make_config(tmp_path, [_pass()], stages={
        "physical": {"command": "true", "timeout_s": 0.5},
        "synthesis": {"timeout_s": 30}}))
    validate_config(make_config(tmp_path, [_pass()], stages={"physical": {}}))


def test_invalid_config_rejected_before_any_side_effect(tmp_path):
    work = tmp_path / "never_created"
    for stages in (
        {"rtl": {"adapter": "bogus"}},
        # the default scripted reasoner with no script drives synthesis too
        {"synthesis": {"adapter": "mock", "scenario": str(tmp_path / "scenario.json")}},
    ):
        with pytest.raises(ConfigInvalid):
            run_flow({"workdir": str(work), "stages": stages})
        assert not work.exists()
    # input files of the wrong shape, or missing ones, are read before the workdir is made
    scen, script = tmp_path / "scen.json", tmp_path / "script.json"
    for scen_text, script_text, error in (
        ('{"status": "pass"}', '{"rtl": []}', ConfigInvalid),
        ("[1]", '{"rtl": []}', ConfigInvalid),
        ('[{"status": "fail", "failures": "timing"}]', '{"rtl": []}', ConfigInvalid),
        ('[{"status": "pass"}]', '[{"writes": {}}]', ConfigInvalid),
        ('[{"status": "pass"}]', '{"rtl": {"writes": {}}}', ConfigInvalid),
        ('[{"status": "pass"}]', '{"rtl": [{"writes": {"top.v": 1}}]}', ConfigInvalid),
        ('[{"status": "pas"}]', '{"rtl": []}', ConfigInvalid),
        ('[{"status": "pass"}]', '{"rlt": []}', ConfigInvalid),
        ('[{"status": "pass", "cell_count": "many"}]', '{"rtl": []}', ConfigInvalid),
        ('[{"status": "pass", "cell_count": true}]', '{"rtl": []}', ConfigInvalid),
        ('[{"status": "pass", "cell_count": -1}]', '{"rtl": []}', ConfigInvalid),
        ('[{"status": "pass", "worst_slack_ns": "0.1"}]', '{"rtl": []}', ConfigInvalid),
        ('[{"status": "pass", "worst_slack_ns": NaN}]', '{"rtl": []}', ConfigInvalid),
        ('[{"status": "pass", "raw_capture": 3}]', '{"rtl": []}', ConfigInvalid),
        ('[{"status": "fail", "failures": [1]}]', '{"rtl": []}', ConfigInvalid),
        ('[{"status": "pass", "failures": ["x"]}]', '{"rtl": []}', ConfigInvalid),
        (None, '{"rtl": []}', FileNotFoundError),
        ('[{"status": "pass"}]', None, FileNotFoundError),
    ):
        for path, text in ((scen, scen_text), (script, script_text)):
            path.unlink(missing_ok=True)
            if text is not None:
                path.write_text(text)
        with pytest.raises(error, match="scen.json|script.json"):
            run_flow({"workdir": str(work),
                      "stages": {"rtl": {"adapter": "mock", "scenario": str(scen)}},
                      "reasoner": {"kind": "scripted", "script": str(script)}})
        assert not work.exists()


@pytest.mark.parametrize("path, value, match", [
    (("reasonr",), {"kind": "scripted"}, "reasonr"),
    (("stages", "physical"), {"comand": "true"}, "comand"),
    (("reasoner", "modle"), "x", "modle"),
    (("workdir",), 3, "workdir"),
    (("stages", "rtl", "scenario"), 3, "scenario"),
    (("reasoner", "script"), ["script.json"], "script"),
    (("stages", "synthesis"), {"liberty": 1}, "liberty"),
    (("stages", "architecture", "corpus"), 1, "corpus"),
    (("reasoner",), {"kind": "remote", "endpoint": "http://127.0.0.1:9", "timeout_s": 0}, "timeout_s"),
    (("reasoner",), {"kind": "remote", "endpoint": "http://127.0.0.1:9", "model": 7}, "model"),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
def test_flow_config_key_checked_before_any_side_effect(tmp_path, path, value, match):
    cfg = make_config(tmp_path, [_pass()])
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ConfigInvalid, match=match):
        run_flow(cfg)
    assert not (tmp_path / "work").exists()


# ---------------------------------------------------------------- proposals


def test_proposal_schema_violations():
    for d in (
        {"writes": "not a dict"},
        {"writes": {"a.v": 42}},
        [],
        {"writes": {"a.v": "x"}, "writs": {"b.v": "y"}},
        {"writes": {"a.v": "x"}, "rationale": None},
        {"writes": {"a.v": "x"}, "rationale": 5},
    ):
        with pytest.raises(SchemaViolation):
            Proposal.from_dict(d)


def test_proposal_digest_deterministic():
    a = Proposal.from_dict(_proposal(1))
    b = Proposal.from_dict(_proposal(1))
    assert a.digest() == b.digest()
    assert a.digest() != Proposal.from_dict(_proposal(2)).digest()


def test_verdict_revise_requires_proposal():
    with pytest.raises(SchemaViolation):
        Verdict(kind="revise")


def test_path_traversal_in_writes_rejected(tmp_path):
    bad = {"writes": {"../escape.v": "x"}, "params": {}, "rationale": ""}
    scen = [_pass()]
    cfg = make_config(tmp_path, scen)
    script = {"rtl": [bad]}
    (tmp_path / "script.json").write_text(json.dumps(script))
    with pytest.raises(ConfigInvalid):
        run_flow(cfg)
    assert not (tmp_path / "escape.v").exists()


@pytest.mark.parametrize("rel", ["out/escape.v", "top.v"], ids=["dir_link", "file_link"])
def test_write_through_symlink_out_of_workdir_rejected(tmp_path, rel):
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "top.v").write_text("// outside\n")
    cfg = make_config(tmp_path, [_pass()])
    work = Path(cfg["workdir"])
    work.mkdir()
    (work / "out").symlink_to(outside, target_is_directory=True)
    (work / "top.v").symlink_to(outside / "top.v")
    (tmp_path / "script.json").write_text(json.dumps(
        {"rtl": [{"writes": {rel: "x"}, "params": {}, "rationale": ""}]}))
    with pytest.raises(ConfigInvalid, match="escapes the workspace"):
        run_flow(cfg)
    assert sorted(p.name for p in outside.iterdir()) == ["top.v"]
    assert (outside / "top.v").read_text() == "// outside\n"


def test_write_through_symlink_inside_workdir_allowed(tmp_path):
    cfg = make_config(tmp_path, [_pass()])
    work = Path(cfg["workdir"])
    (work / "real").mkdir(parents=True)
    (work / "link").symlink_to(work / "real", target_is_directory=True)
    (tmp_path / "script.json").write_text(json.dumps(
        {"rtl": [{"writes": {"link/top.v": "y"}, "params": {}, "rationale": ""}]}))
    assert run_flow(cfg).statuses["rtl"] == "passed"
    assert (work / "real" / "top.v").read_text() == "y"


# ------------------------------------------------------------- scripted loop


def test_scripted_reasoner_sequence():
    r = ScriptedReasoner({"rtl": [_proposal(0), _proposal(1)]})
    p0 = r.propose({"stage": "rtl", "iteration": 0})
    assert p0.params == {"rev": 0}
    v = r.reflect({"stage": "rtl", "iteration": 0}, _fail())
    assert v.kind == "revise" and v.proposal.params == {"rev": 1}
    v = r.reflect({"stage": "rtl", "iteration": 1}, _fail())
    assert v.kind == "abort"
    assert r.reflect({"stage": "rtl", "iteration": 1}, _pass()).kind == "accept"
    with pytest.raises(ScriptExhausted):
        r.propose({"stage": "rtl", "iteration": 5})


def test_empty_later_script_entry_rejected_before_the_workdir_is_made(tmp_path, capsys):
    # a later entry is only ever a revision, which needs writes or params
    cfg = make_config(tmp_path, [_fail(), _pass()])
    (tmp_path / "script.json").write_text(json.dumps({"rtl": [{"writes": {"top.v": "// 0\n"}}, {}]}))
    (tmp_path / "flow.json").write_text(json.dumps(cfg))
    assert dispatch(["flow", "run", "--config", str(tmp_path / "flow.json")]) == EXIT_BAD_INPUT
    assert "ConfigInvalid: script rtl entry 1" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()
    # an empty first entry is a proposal, and proposes nothing
    ScriptedReasoner({"rtl": [{}, {"params": {"rev": 1}}]})


def test_loop_iterates_until_pass(tmp_path):
    cfg = make_config(tmp_path, [_fail("a"), _fail("b"), _pass()])
    result = run_flow(cfg)
    rtl = [r for r in result.history if r.stage == "rtl"]
    assert [r.verdict for r in rtl] == ["revise", "revise", "accept"]
    assert result.statuses["rtl"] == "passed"
    assert result.overall == "success"


def test_loop_respects_budget(tmp_path):
    cfg = make_config(tmp_path, [_fail(), _fail(), _pass()], budget=2)
    result = run_flow(cfg)
    rtl = [r for r in result.history if r.stage == "rtl"]
    assert len(rtl) == 2
    assert result.statuses["rtl"] == "failed"
    assert result.overall == "failed"


def test_failed_stage_blocks_later_stages(tmp_path):
    scen2 = tmp_path / "scen2.json"
    scen2.write_text(json.dumps([_pass().as_dict()]))
    cfg = make_config(
        tmp_path,
        [_fail(), _fail(), _fail(), _fail()],
        stages={"synthesis": {"adapter": "mock", "scenario": str(scen2)}},
    )
    result = run_flow(cfg)
    assert result.statuses["rtl"] == "failed"
    assert result.statuses["synthesis"] == "pending"


def test_skipped_physical_yields_partial(tmp_path):
    cfg = make_config(tmp_path, [_pass()], stages={"physical": {}})
    result = run_flow(cfg)
    assert result.statuses["physical"] == "skipped"
    assert result.overall == "partial"


def test_physical_command_runs(tmp_path):
    cfg = make_config(
        tmp_path, [_pass()], stages={"physical": {"command": "true"}}
    )
    assert run_flow(cfg).overall == "success"
    cfg2 = make_config(
        tmp_path, [_pass()], stages={"physical": {"command": "false"}}
    )
    assert run_flow(cfg2).overall == "failed"


def test_physical_command_times_out(tmp_path):
    cfg = make_config(tmp_path, [_pass()],
                      stages={"physical": {"command": "sleep 30", "timeout_s": 1}})
    result = run_flow(cfg)
    physical = result.history[-1]
    assert result.statuses["physical"] == "failed"
    assert (physical.stage, physical.verdict) == ("physical", "abort")
    assert physical.wall_time < 5.0


def test_artifacts_recorded(tmp_path):
    cfg = make_config(tmp_path, [_pass()])
    result = run_flow(cfg)
    assert "design_point.json" in result.artifacts
    assert any(p.startswith("rtl/") for p in result.artifacts)


def test_synthesis_adapter_keeps_cell_count_at_zero_slack(tmp_path, monkeypatch):
    synth = ToolReport(status="pass", cell_count=42, raw_capture="synth\n")
    sta = ToolReport(status="pass", worst_slack_ns=0.0, raw_capture="sta\n")
    monkeypatch.setattr(flow, "run_synthesis", lambda *a, **k: synth)
    monkeypatch.setattr(flow, "run_sta", lambda *a, **k: sta)
    adapter = flow._build_adapter(
        {"liberty": "cells.lib", "sdc": "top.sdc"}, "synthesis")
    report = adapter(Proposal.from_dict(_proposal(0)), tmp_path)
    assert report.status == "pass"
    assert report.cell_count == 42
    assert report.worst_slack_ns == 0.0


@pytest.mark.parametrize("stage_cfg, timeouts", [
    ({}, [60.0, 120.0, 60.0]), ({"timeout_s": 5}, [5, 5, 5])], ids=["tool-defaults", "stage-timeout"])
def test_real_adapters_give_every_tool_the_stage_timeout(tmp_path, monkeypatch,
                                                         stage_cfg, timeouts):
    seen = []
    for name, report in (("run_simulation", _pass()), ("run_synthesis", _pass()),
                         ("run_sta", ToolReport(status="pass", worst_slack_ns=0.0))):
        default = inspect.signature(getattr(flow, name)).parameters["timeout"].default
        monkeypatch.setattr(flow, name, lambda *a, _d=default, _r=report, **k:
                            seen.append(k.get("timeout", _d)) or _r)
    writes = {"top.v": "", "top_tb.v": ""}
    flow._build_adapter(stage_cfg, "rtl")(Proposal(writes=writes), tmp_path)
    synth_cfg = {**stage_cfg, "liberty": "cells.lib", "sdc": "top.sdc"}
    flow._build_adapter(synth_cfg, "synthesis")(Proposal(writes=writes), tmp_path)
    assert seen == timeouts


def test_rtl_adapter_takes_only_tb_suffix_as_testbench(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(flow, "run_simulation",
                        lambda rtl, tb, *a, **k: calls.append((rtl, tb)) or _pass())
    adapter = flow._build_adapter({}, "rtl")
    writes = {f: "module m; endmodule\n" for f in ("fifo.v", "rtb_ctrl.v", "fifo_tb.v")}
    assert adapter(Proposal(writes=writes), tmp_path).status == "pass"
    assert calls == [(["fifo.v", "rtb_ctrl.v"], "fifo_tb.v")]
    report = adapter(Proposal(writes={"top.v": "", "rtb_ctrl.v": ""}), tmp_path)
    assert report.status == "compile_error"
    assert report.failures == ("proposal contains no testbench",)
    assert len(calls) == 1


# -------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    cfg = make_config(tmp_path, [_pass()])
    state = FlowState()
    state.statuses["architecture"] = "passed"
    save_checkpoint(state, cfg, tmp_path / "ck.json")
    back = load_checkpoint(tmp_path / "ck.json", cfg)
    assert back.statuses == state.statuses


def test_checkpoint_config_mismatch(tmp_path):
    cfg = make_config(tmp_path, [_pass()])
    save_checkpoint(FlowState(), cfg, tmp_path / "ck.json")
    other = dict(cfg, workdir=str(tmp_path / "elsewhere"))
    with pytest.raises(ConfigMismatch):
        load_checkpoint(tmp_path / "ck.json", other)


_RECORD = {"stage": "rtl", "iteration": 0, "proposal_digest": "p", "report_digest": "r",
           "verdict": "revise"}


@pytest.mark.parametrize("text, state", [
    ("{ truncated", None),
    ("[]", None),
    ('"x"', None),
    (None, {"statuses": "ab"}),
    (None, {"pending_proposal": "x"}),
    # resume reads a status for every stage and runs any not passed or skipped
    (None, {"statuses": {"architecture": "passed", "synthesis": "pending",
                         "physical": "pending"}}),
    (None, {"statuses": {"architecture": "passed", "rtl": "bogus",
                         "synthesis": "pending", "physical": "pending"}}),
    # every writer puts all six keys in a history record, wall_time included
    (None, {"history": [_RECORD]}),
    (None, {"history": [dict(_RECORD, wall_time=0.5, note="x")]}),
    # and each value in the type and range run_flow writes it
    (None, {"history": [{"stage": "nosuch", "iteration": "zero", "proposal_digest": 5,
                         "report_digest": None, "verdict": "maybe", "wall_time": "slow"}]}),
    (None, {"history": [dict(_RECORD, wall_time=0.5, stage="nosuch")]}),
    (None, {"history": [dict(_RECORD, wall_time=0.5, iteration=-1)]}),
    (None, {"history": [dict(_RECORD, wall_time=0.5, iteration=True)]}),
    (None, {"history": [dict(_RECORD, wall_time=0.5, iteration=1.0)]}),
    (None, {"history": [dict(_RECORD, wall_time=0.5, proposal_digest=5)]}),
    (None, {"history": [dict(_RECORD, wall_time=0.5, report_digest=None)]}),
    (None, {"history": [dict(_RECORD, wall_time=0.5, verdict="maybe")]}),
    (None, {"history": [dict(_RECORD, wall_time="slow")]}),
    (None, {"history": [dict(_RECORD, wall_time=float("nan"))]}),
    # an artifact's digest is a string, as _write_artifact records it
    (None, {"paths": {"rtl/top.v": 5}}),
], ids=["truncated", "list", "string", "statuses_string", "proposal_string",
        "statuses_missing_stage", "statuses_unknown_value", "record_missing_wall_time",
        "record_unknown_key", "record_every_value_wrong", "record_unknown_stage",
        "record_negative_iteration", "record_bool_iteration", "record_float_iteration",
        "record_int_digest", "record_null_digest", "record_unknown_verdict",
        "record_string_wall_time", "record_nan_wall_time", "paths_int_digest"])
def test_checkpoint_corrupt(tmp_path, text, state):
    cfg = make_config(tmp_path, [_pass()])
    if text is None:
        # a well-formed state in the earlier writer's shape, one field broken
        state = dict(FlowState().as_dict(), current_stage="rtl", artifacts={}, **state)
        text = json.dumps({"schema_version": flow.SCHEMA_VERSION,
                           "config_hash": flow._canonical_digest(cfg), "state": state})
    (tmp_path / "ck.json").write_text(text)
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(tmp_path / "ck.json", cfg)


def test_checkpoint_corrupt_record_in_a_journal_line(tmp_path):
    cfg = make_config(tmp_path, [_pass()])
    ck = tmp_path / "ck.json"
    save_checkpoint(FlowState(), cfg, ck)
    line = dict(FlowState().as_dict(), history=[dict(_RECORD, wall_time=0.5, verdict="maybe")])
    with ck.open("a") as f:
        f.write(json.dumps(line) + "\n")
    with pytest.raises(CheckpointCorrupt, match="verdict"):
        load_checkpoint(ck, cfg)


def _revise_one_file(cfg, n):
    """Script n distinct revisions of rtl/top.v; returns their texts."""
    revisions = [f"// revision {i}\nmodule top; endmodule\n" for i in range(n)]
    Path(cfg["reasoner"]["script"]).write_text(json.dumps(
        {"rtl": [{"writes": {"rtl/top.v": text}} for text in revisions]}))
    return revisions


def test_checkpoint_holds_digests_not_artifact_text(tmp_path):
    cfg = make_config(tmp_path, [_fail("a"), _fail("b"), _pass()])
    revisions = _revise_one_file(cfg, 3)
    ck = tmp_path / "ck.json"
    run_flow(cfg, checkpoint_path=ck)
    text = ck.read_text()
    state = json.loads(text)["state"]
    assert set(state) == {"statuses", "paths", "history", "pending_proposal"}
    assert state["paths"]["rtl/top.v"] == flow._digest(revisions[-1])
    work = Path(cfg["workdir"])
    for content in revisions + [(work / rel).read_text() for rel in state["paths"]]:
        assert json.dumps(content) not in text


def test_every_artifact_is_a_workdir_file_with_its_digest(tmp_path):
    cfg = make_config(tmp_path, [_fail("a"), _pass()])
    _revise_one_file(cfg, 2)
    result = run_flow(cfg)
    assert result.overall == "success"
    assert {"design_point.json", "dse_report.json", "rtl/top.v"} <= set(result.artifacts)
    work = Path(cfg["workdir"])
    for rel, digest in result.artifacts.items():
        assert hashlib.sha256((work / rel).read_bytes()).hexdigest() == digest


def test_shorter_revision_leaves_no_stale_tail(tmp_path):
    cfg = make_config(tmp_path, [_fail("a"), _pass()])
    long, short = "// long revision\n" * 8, "// short\n"
    Path(cfg["reasoner"]["script"]).write_text(json.dumps(
        {"rtl": [{"writes": {"rtl/top.v": long}}, {"writes": {"rtl/top.v": short}}]}))
    result = run_flow(cfg)
    assert (Path(cfg["workdir"]) / "rtl/top.v").read_text() == short
    assert result.artifacts["rtl/top.v"] == flow._digest(short)


def test_resume_from_checkpoint_with_legacy_keys(tmp_path):
    scenario = [_fail("a"), _fail("b"), _pass()]
    ref = tmp_path / "ref"
    ref.mkdir()
    full = run_flow(make_config(ref, scenario)).to_json()
    cfg = make_config(tmp_path, scenario)
    ck = tmp_path / "ck.json"
    run_flow(cfg, checkpoint_path=ck, stop_after=2)
    # the earlier writer also kept the running stage and every artifact's text
    doc = json.loads(ck.read_text())
    work = Path(cfg["workdir"])
    doc["state"]["current_stage"] = "rtl"
    doc["state"]["artifacts"] = {
        digest: (work / rel).read_text() for rel, digest in doc["state"]["paths"].items()}
    ck.write_text(json.dumps(doc, sort_keys=True) + "\n")
    assert resume_flow(cfg, ck).to_json() == full
    assert set(json.loads(ck.read_text())["state"]) == {
        "statuses", "paths", "history", "pending_proposal"}


def test_crash_mid_checkpoint_write_keeps_the_previous_one(tmp_path, monkeypatch):
    cfg = make_config(tmp_path, [_fail("a"), _fail("b"), _pass()])
    full = run_flow(cfg).to_json()
    ck = tmp_path / "ck.json"
    run_flow(cfg, checkpoint_path=ck, stop_after=2)
    write_text = Path.write_text

    def torn_write(self, text, *args, **kwargs):
        write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError("crash mid-write")

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(OSError, match="crash mid-write"):
        save_checkpoint(FlowState(), cfg, ck)
    monkeypatch.undo()
    assert len(load_checkpoint(ck, cfg).history) == 2
    assert resume_flow(cfg, ck).to_json() == full


def test_crash_before_checkpoint_rename_resumes_from_tmp(tmp_path, monkeypatch):
    cfg = make_config(tmp_path, [_fail("a"), _fail("b"), _pass()])
    full = run_flow(cfg).to_json()
    ck = tmp_path / "ck.json"
    run_flow(cfg, checkpoint_path=ck, stop_after=1)
    state = load_checkpoint(ck, cfg)
    run_flow(cfg, checkpoint_path=ck, stop_after=2)

    def crash(*args):
        raise OSError("crash before rename")

    monkeypatch.setattr(flow.os, "replace", crash)
    with pytest.raises(OSError, match="crash before rename"):
        save_checkpoint(state, cfg, ck)
    monkeypatch.undo()
    assert not ck.exists()
    assert len(load_checkpoint(ck, cfg).history) == 1
    assert resume_flow(cfg, ck).to_json() == full
    assert ck.exists() and not Path(f"{ck}.tmp").exists()


def test_resume_is_byte_identical_at_every_boundary(tmp_path):
    scenario = [_fail("a"), _fail("b"), _pass()]
    ref = tmp_path / "ref"
    ref.mkdir()
    full = run_flow(make_config(ref, scenario)).to_json()
    n_records = len(json.loads(full)["history"])
    for cut in range(1, n_records + 1):
        d = tmp_path / f"cut{cut}"
        d.mkdir()
        cfg = make_config(d, scenario)
        ck = d / "ck.json"
        run_flow(cfg, checkpoint_path=ck, stop_after=cut)
        resumed = resume_flow(cfg, ck)
        got = json.loads(resumed.to_json())
        want = json.loads(full)
        assert got["overall"] == want["overall"]
        assert got["statuses"] == want["statuses"]
        assert [h for h in got["history"]] == [h for h in want["history"]]


# ---------------------------------------------------------- checkpoint journal


def _journal_config(tmp_path, scenario, **kw):
    """make_config without the architecture stage (no DSE), with a proposal
    for every report and physical skipped: a zero-record save after the rtl
    records."""
    tmp_path.mkdir(exist_ok=True)
    kw.setdefault("script_entries", len(scenario))
    cfg = make_config(tmp_path, scenario, stages={"physical": {}}, **kw)
    del cfg["stages"]["architecture"]
    return cfg


def _crash_at_call(monkeypatch, k):
    """Make the mock adapter raise on its call k (0-based)."""
    call = MockAdapter.__call__

    def crashing(self, *args, **kwargs):
        if self.calls == k:
            raise OSError(f"crash at call {k}")
        return call(self, *args, **kwargs)

    monkeypatch.setattr(MockAdapter, "__call__", crashing)


@pytest.mark.parametrize("stop_after", [None, 2])
def test_checkpoint_at_rest_is_what_save_checkpoint_writes(tmp_path, monkeypatch, stop_after):
    cfg = make_config(tmp_path, [_fail("a"), _fail("b"), _pass()], stages={"physical": {}})
    finished = []
    finish = flow._finish
    monkeypatch.setattr(flow, "_finish", lambda state: finished.append(state) or finish(state))
    ck = tmp_path / "ck.json"
    run_flow(cfg, checkpoint_path=ck, stop_after=stop_after)
    save_checkpoint(finished[0], cfg, tmp_path / "want.json")
    assert ck.read_bytes() == (tmp_path / "want.json").read_bytes()
    assert ck.read_bytes().count(b"\n") == 1


def test_crash_at_every_record_leaves_a_journal_that_resumes(tmp_path, monkeypatch):
    scenario = [_fail("a"), _fail("b"), _fail("c"), _pass()]
    full = run_flow(_journal_config(tmp_path / "ref", scenario)).to_json()
    for k in range(1, len(scenario)):
        d = tmp_path / f"crash{k}"
        cfg = _journal_config(d, scenario)
        ck = d / "ck.json"
        _crash_at_call(monkeypatch, k)
        with pytest.raises(OSError, match=f"crash at call {k}"):
            run_flow(cfg, checkpoint_path=ck)
        monkeypatch.undo()
        # the document holds record 0; each later record is one appended line
        lines = ck.read_text().splitlines()
        assert len(lines) == k
        assert json.loads(lines[0])["schema_version"] == flow.SCHEMA_VERSION
        assert [len(json.loads(line)["history"]) for line in lines[1:]] == [1] * (k - 1)
        assert len(load_checkpoint(ck, cfg).history) == k
        assert resume_flow(cfg, ck).to_json() == full
        assert len(ck.read_text().splitlines()) == 1


def test_torn_last_journal_line_resumes_at_every_byte(tmp_path, monkeypatch):
    scenario = [_fail("a"), _fail("b"), _fail("c"), _pass()]
    full = run_flow(_journal_config(tmp_path / "ref", scenario)).to_json()
    cfg = _journal_config(tmp_path, scenario)
    ck = tmp_path / "ck.json"
    _crash_at_call(monkeypatch, 3)
    with pytest.raises(OSError):
        run_flow(cfg, checkpoint_path=ck)
    monkeypatch.undo()
    text = ck.read_text()
    last = text.rindex("\n", 0, len(text) - 1) + 1
    for cut in range(last, len(text)):
        ck.write_text(text[:cut])
        assert len(load_checkpoint(ck, cfg).history) == 2
        assert resume_flow(cfg, ck).to_json() == full


@pytest.mark.parametrize("line", [
    "not json",
    "[]",
    '"x"',
    "{}",
    '{"statuses": {}, "paths": {}}',
    '{"statuses": {}, "paths": [], "history": []}',
    '{"statuses": {}, "paths": {}, "history": "x"}',
    '{"statuses": {}, "paths": {}, "history": [{"stage": "rtl"}]}',
    '{"statuses": {}, "paths": {}, "history": [], "pending_proposal": "x"}',
    '{"statuses": {"rtl": "bogus"}, "paths": {}, "history": []}',
], ids=["not_json", "list", "string", "empty", "no_history", "paths_list", "history_string",
        "record_missing_keys", "proposal_string", "status_unknown"])
def test_malformed_complete_journal_line_is_corrupt(tmp_path, monkeypatch, line):
    cfg = _journal_config(tmp_path, [_fail("a"), _fail("b"), _pass()])
    ck = tmp_path / "ck.json"
    _crash_at_call(monkeypatch, 2)
    with pytest.raises(OSError):
        run_flow(cfg, checkpoint_path=ck)
    monkeypatch.undo()
    assert len(load_checkpoint(ck, cfg).history) == 2
    with ck.open("a") as f:
        f.write(line + "\n")
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(ck, cfg)


def test_appended_bytes_do_not_grow_with_history(tmp_path, monkeypatch):
    n = 100
    cfg = _journal_config(tmp_path, [_fail("same")] * n, budget=n + 1)
    Path(cfg["reasoner"]["script"]).write_text(json.dumps({"rtl": [_proposal(0)] * (n + 1)}))
    monkeypatch.setattr(flow, "time", SimpleNamespace(monotonic=lambda: 0.0))
    ck = tmp_path / "ck.json"
    with pytest.raises(ScenarioExhausted):
        run_flow(cfg, checkpoint_path=ck)
    lines = ck.read_text().splitlines()
    assert len(lines) == n
    # records 10 and 99: the same content, and iteration numbers of the same width
    assert json.loads(lines[10])["history"][0]["iteration"] == 10
    assert len(lines[99].encode()) <= len(lines[10].encode())
    # a full save at that point writes the whole history
    save_checkpoint(load_checkpoint(ck, cfg), cfg, tmp_path / "full.json")
    assert len(lines[99].encode()) * 10 < (tmp_path / "full.json").stat().st_size


# ----------------------------------------------------------- remote reasoner


class _CannedHandler(BaseHTTPRequestHandler):
    """Replies (status, content) in order: content goes into a chat
    response, except bytes, which are sent as the raw body."""

    responses = []
    requests = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = self.rfile.read(length)
        type(self).requests.append(
            {"body": json.loads(body), "auth": self.headers.get("Authorization")}
        )
        if not type(self).responses:
            self.send_response(500)
            self.end_headers()
            return
        status, text = type(self).responses.pop(0)
        payload = text if isinstance(text, bytes) else json.dumps(
            {"choices": [{"message": {"content": text}}]}
        ).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def canned_server():
    _CannedHandler.responses = []
    _CannedHandler.requests = []
    server = HTTPServer(("127.0.0.1", 0), _CannedHandler)
    # a short poll lets shutdown() return at once, not after up to 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _CannedHandler
    server.shutdown()
    server.server_close()
    thread.join()


def _fenced(obj):
    return "Here you go:\n```json\n" + json.dumps(obj) + "\n```\n"


@pytest.mark.parametrize("text, payload", [
    (_fenced({"a": 1}), {"a": 1}),
    (_fenced({"a": 1}) + _fenced({"b": 2}), None),
    (_fenced({"a": 1}) + "```\nnever closed\n", {"a": 1}),
    ('  ```json\n  {"a": [1,\n 2]}\n\t```  \n', {"a": [1, 2]}),
    ('{"a": 1}\n', None),
], ids=["one-block", "two-blocks", "unpaired-fence-after", "indented-fences", "no-fence"])
def test_extract_fenced_json(text, payload):
    if payload is None:
        with pytest.raises(SchemaViolation):
            flow._extract_fenced_json(text)
    else:
        assert flow._extract_fenced_json(text) == payload


def test_remote_propose_parses_fenced_block(canned_server, monkeypatch):
    url, handler = canned_server
    monkeypatch.setenv("AIEDA_LLM_API_KEY", "sk-test")
    handler.responses.append((200, _fenced(_proposal(0))))
    r = RemoteReasoner(url, backoff_s=0.01)
    p = r.propose({"stage": "rtl", "iteration": 0})
    assert p.params == {"rev": 0}
    assert len(handler.requests) == 1
    assert handler.requests[0]["auth"] == "Bearer sk-test"


def test_remote_reflect_verdicts(canned_server):
    url, handler = canned_server
    r = RemoteReasoner(url, backoff_s=0.01)
    handler.responses.append(
        (200, _fenced({"kind": "revise", "proposal": _proposal(1), "reason": "x"}))
    )
    v = r.reflect({"stage": "rtl", "iteration": 0}, _fail())
    assert v.kind == "revise" and v.proposal.params == {"rev": 1}


def test_remote_request_bodies(canned_server):
    url, handler = canned_server
    r = RemoteReasoner(url, model="m1", backoff_s=0.01)
    handler.responses += [(200, _fenced(_proposal(0))), (200, _fenced({"kind": "abort"}))]
    context = {"stage": "rtl", "iteration": 2, "artifacts": {"b.v": "d2", "a.v": "d1"}}
    r.propose(context)
    r.reflect(context, _fail("x"))
    assert [q["body"] for q in handler.requests] == [
        {"model": "m1", "messages": [
            {"role": "system",
             "content": 'Reply with exactly one fenced JSON block: '
                        '{"writes": {path: text}, "params": {}, "rationale": ""}.'},
            {"role": "user",
             "content": '{"artifacts": {"a.v": "d1", "b.v": "d2"}, "iteration": 2, "stage": "rtl"}'},
        ]},
        {"model": "m1", "messages": [
            {"role": "system",
             "content": 'Reply with exactly one fenced JSON block: '
                        '{"kind": "accept"|"revise"|"abort", "proposal": {...}, "reason": ""}.'},
            {"role": "user",
             "content": '{"context": {"artifacts": {"a.v": "d1", "b.v": "d2"}, "iteration": 2, '
                        '"stage": "rtl"}, "report": {"cell_count": null, "failures": ["x"], '
                        '"raw_capture": "", "status": "fail", "worst_slack_ns": null}}'},
        ]},
    ]


def test_remote_rejects_accept_on_failing_report(canned_server):
    url, handler = canned_server
    r = RemoteReasoner(url, backoff_s=0.01)
    handler.responses.append((200, _fenced({"kind": "accept"})))
    with pytest.raises(SchemaViolation):
        r.reflect({"stage": "rtl", "iteration": 0}, _fail())


def test_remote_schema_violation_after_retries(canned_server):
    url, handler = canned_server
    r = RemoteReasoner(url, backoff_s=0.01)
    # three replies, none contains exactly one fenced block
    handler.responses += [(200, "no fences")] * 3
    with pytest.raises(SchemaViolation):
        r.propose({"stage": "rtl", "iteration": 0})
    assert len(handler.requests) == 3


@pytest.mark.parametrize("reply", [
    None,
    ["```json", "{}", "```"],
    b"\xff\xfe{}",
    b"<html>gateway hiccup</html>",
    _fenced({"writes": {}, "params": "ab"}),
    _fenced({"writes": {}, "params": 5}),
    _fenced(dict(_proposal(0), note="x")),
], ids=["content-null", "content-list", "body-not-utf8", "body-not-json", "params-str",
        "params-int", "unknown-key"])
def test_remote_malformed_reply_retries_as_schema_violation(canned_server, reply):
    url, handler = canned_server
    r = RemoteReasoner(url, backoff_s=0.01)
    handler.responses += [(200, reply)] * RemoteReasoner.RETRIES
    with pytest.raises(SchemaViolation):
        r.propose({"stage": "rtl", "iteration": 0})
    assert len(handler.requests) == RemoteReasoner.RETRIES


def test_remote_transport_error_after_retries(canned_server):
    url, handler = canned_server
    r = RemoteReasoner(url, backoff_s=0.01)
    # empty responses list makes the handler return HTTP 500 every time
    with pytest.raises(RemoteProtocolError):
        r.propose({"stage": "rtl", "iteration": 0})
    assert len(handler.requests) == 3


def test_remote_closes_each_error_reply_before_retrying(canned_server, monkeypatch):
    url, _ = canned_server
    errors = []
    urlopen = urllib.request.urlopen

    def recording_urlopen(req, timeout):
        try:
            return urlopen(req, timeout=timeout)
        except urllib.error.HTTPError as exc:
            errors.append(exc)
            raise

    monkeypatch.setattr(urllib.request, "urlopen", recording_urlopen)
    r = RemoteReasoner(url, backoff_s=0.01)
    # empty responses list makes the handler return HTTP 500 every time
    with pytest.raises(RemoteProtocolError):
        r.propose({"stage": "rtl", "iteration": 0})
    assert [e.code for e in errors] == [500] * RemoteReasoner.RETRIES
    assert all(e.fp.isclosed() for e in errors)


def test_remote_truncated_reply_retries_as_transport_error(monkeypatch):
    # a body shorter than its Content-Length makes http.client raise IncompleteRead
    class Truncated:
        def read(self):
            raise http.client.IncompleteRead(b'{"choices"', 90)

    attempts = []

    def urlopen(req, timeout):
        attempts.append(req)
        return contextlib.nullcontext(Truncated())

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    with pytest.raises(RemoteProtocolError):
        RemoteReasoner("http://127.0.0.1:9", backoff_s=0).propose({"stage": "rtl"})
    assert len(attempts) == RemoteReasoner.RETRIES


def test_remote_recovers_on_second_attempt(canned_server):
    url, handler = canned_server
    r = RemoteReasoner(url, backoff_s=0.01)
    handler.responses += [(200, "garbled"), (200, _fenced(_proposal(2)))]
    p = r.propose({"stage": "rtl", "iteration": 0})
    assert p.params == {"rev": 2}
    assert len(handler.requests) == 2


def test_two_fenced_blocks_is_a_schema_violation(canned_server):
    url, handler = canned_server
    r = RemoteReasoner(url, backoff_s=0.01)
    double = _fenced(_proposal(0)) + _fenced(_proposal(1))
    handler.responses += [(200, double)] * 3
    with pytest.raises(SchemaViolation):
        r.propose({"stage": "rtl", "iteration": 0})


def test_remote_reflect_retries_verdict_schema_errors(monkeypatch):
    r = RemoteReasoner("http://127.0.0.1:9", backoff_s=0)
    replies = [_fenced({"kind": "maybe"}),
               _fenced({"kind": "revise", "proposal": {"writes": 7}}),
               _fenced({"kind": "accept"})]
    monkeypatch.setattr(r, "_post", lambda messages: replies.pop(0))
    assert r.reflect({"stage": "rtl", "iteration": 0}, _pass()).kind == "accept"
    assert replies == []


@pytest.mark.parametrize("reply", [
    {"kind": "abort", "reason": None},
    {"kind": "abort", "reason": 5},
    {"kind": "abort", "reason": "x", "note": 1},
    {"kind": "revise", "proposal": _proposal(1), "reasn": "x"},
], ids=["reason-null", "reason-int", "unknown-key", "misspelt-reason"])
def test_remote_malformed_verdict_retries_once(monkeypatch, reply):
    r = RemoteReasoner("http://127.0.0.1:9", backoff_s=0)
    replies = [_fenced(reply), _fenced({"kind": "abort", "reason": "over budget"})]
    monkeypatch.setattr(r, "_post", lambda messages: replies.pop(0))
    assert r.reflect({"stage": "rtl", "iteration": 0}, _fail()) == Verdict(kind="abort", reason="over budget")
    assert replies == []


# junk a remote endpoint may send before a valid reply; each is retried, and
# after three in a row the call fails, as the last one decides
_JUNK_PROPOSALS = {"unknown-key": dict(_proposal(9), note="x"), "wrong-type": {"writes": {"top.v": 1}}}
_JUNK = ("no-fence", "two-fences", "non-json", "unknown-key", "wrong-type", "http-500")


def _junk_reply(kind, call):
    """(status, content) of one junk reply to a propose or a reflect call."""
    if kind == "http-500":
        return 500, ""
    if kind in _JUNK_PROPOSALS:
        bad = _JUNK_PROPOSALS[kind]
        return 200, _fenced(bad if call == "propose" else {"kind": "revise", "proposal": bad})
    return 200, {"no-fence": "no block here", "two-fences": _fenced({}) * 2,
                 "non-json": "```json\n{not json\n```\n"}[kind]


def test_remote_junk_replies_retry_to_the_clean_history(canned_server, tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    url, handler = canned_server
    reports = [_fail("a"), _fail("b"), _pass()]
    # propose, then reflect on each report: revise, revise, accept
    calls = [("propose", _proposal(0)), ("reflect", {"kind": "revise", "proposal": _proposal(1)}),
             ("reflect", {"kind": "revise", "proposal": _proposal(2)}), ("reflect", {"kind": "accept"})]

    def run(junk):
        handler.responses[:] = [r for (call, valid), kinds in zip(calls, junk)
                                for r in [_junk_reply(k, call) for k in kinds] + [(200, _fenced(valid))]]
        state = run_stage(FlowState(), RemoteReasoner(url, backoff_s=0), MockAdapter(reports),
                          budget=len(reports), stage="rtl", workdir=tmp_path)
        return [r.as_dict(include_wall_time=False) for r in state.history], state.statuses, state.paths

    clean = run([[]] * len(calls))
    assert [r["verdict"] for r in clean[0]] == ["revise", "revise", "accept"]

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.lists(st.lists(st.sampled_from(_JUNK), max_size=RemoteReasoner.RETRIES),
                               min_size=len(calls), max_size=len(calls)))
    def junk_then_valid(junk):
        failing = next((kinds for kinds in junk if len(kinds) == RemoteReasoner.RETRIES), None)
        if failing is None:
            assert run(junk) == clean
            return
        error = RemoteProtocolError if failing[-1] == "http-500" else SchemaViolation
        with pytest.raises(KwsflowError) as info:
            run(junk)
        assert type(info.value) is error

    junk_then_valid()
