"""Tool output parsers (total functions), mock adapter, runner plumbing."""

import os
import shutil
import stat
import subprocess
import time

import pytest

from fifo_fixture import write_fifo_fixture
from kwsflow.errors import ScenarioExhausted
from kwsflow.toolchain import (
    MockAdapter,
    ToolReport,
    parse_simulation_output,
    parse_sta_output,
    parse_synthesis_output,
    run_command,
    run_simulation,
)


# ------------------------------------------------------------------- parsers


def test_parse_simulation_pass():
    r = parse_simulation_output("... waves ...\nTEST PASS\n")
    assert r.status == "pass"
    assert r.failures == ()


def test_parse_simulation_fail_collects_messages():
    text = "TEST FAIL: overflow\nnoise\nTEST FAIL: underflow at t=40\n"
    r = parse_simulation_output(text)
    assert r.status == "fail"
    assert r.failures == ("overflow", "underflow at t=40")


def test_parse_simulation_inconclusive_output():
    r = parse_simulation_output("compilation OK, no verdict printed")
    assert r.status == "parse_error"
    assert "verdict" in r.raw_capture or r.raw_capture


def test_parse_synthesis_cell_count():
    r = parse_synthesis_output("2.49. stat\n   Number of cells:        123\n")
    assert r.status == "pass"
    assert r.cell_count == 123


def test_parse_synthesis_missing_stat():
    r = parse_synthesis_output("yosys banner only")
    assert r.status == "parse_error"


def test_parse_sta_positive_slack_passes():
    r = parse_sta_output("worst slack max 1.23\n")
    assert r.status == "pass"
    assert r.worst_slack_ns == 1.23


def test_parse_sta_negative_slack_fails():
    r = parse_sta_output("worst slack max -0.40\n")
    assert r.status == "fail"
    assert r.worst_slack_ns == -0.40
    assert any("timing" in f for f in r.failures)


def test_parse_sta_missing_slack():
    assert parse_sta_output("Startup OK").status == "parse_error"


def test_parsers_are_total_on_fuzz_input():
    import random

    rng = random.Random(0)
    parsers = (parse_simulation_output, parse_sta_output, parse_synthesis_output)
    alphabet = "abcTESTFAIL: 0123456789.-\n\t\x00\xff slack cells Number of"
    for i in range(10_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        for parse in parsers:
            r = parse(s)
            assert r.status in (
                "pass",
                "fail",
                "compile_error",
                "timeout",
                "tool_missing",
                "parse_error",
            )


@pytest.mark.parametrize("parse, failure", [
    (parse_simulation_output, "no TEST PASS/FAIL line found"),
    (parse_synthesis_output, "no 'Number of cells:' line found"),
    (parse_sta_output, "no 'worst slack' line found"),
], ids=["simulation", "synthesis", "sta"])
def test_parse_error_names_the_missing_line(parse, failure):
    assert parse(b"noise\xff") == ToolReport(status="parse_error", failures=(failure,),
                                              raw_capture="noise\ufffd")


def test_parsers_accept_bytes():
    assert parse_simulation_output(b"TEST PASS\n").status == "pass"
    assert parse_simulation_output(b"\xff\xfe junk").status == "parse_error"


# ---------------------------------------------------------------- ToolReport


def test_report_pass_with_failures_rejected():
    with pytest.raises(ValueError):
        ToolReport(status="pass", failures=("boom",))


def test_report_digest_stable_and_sensitive():
    a = ToolReport(status="fail", failures=("x",), raw_capture="log")
    b = ToolReport(status="fail", failures=("x",), raw_capture="log")
    c = ToolReport(status="fail", failures=("y",), raw_capture="log")
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_report_round_trips_through_dict():
    a = ToolReport(status="pass", cell_count=42, worst_slack_ns=0.5, raw_capture="z")
    assert ToolReport.from_dict(a.as_dict()) == a
    # a missing status reads as parse_error, as README's scenario section says
    assert ToolReport.from_dict({"failures": ["x"]}) == ToolReport(status="parse_error", failures=("x",))


# -------------------------------------------------------------- mock adapter


def _mk(status, **kw):
    return ToolReport(status=status, **kw)


def test_mock_returns_reports_in_order():
    mock = MockAdapter([_mk("fail", failures=("a",)), _mk("pass")])
    assert mock().status == "fail"
    assert mock().status == "pass"
    assert mock.calls == 2


def test_mock_exhaustion():
    mock = MockAdapter([_mk("pass")])
    mock()
    with pytest.raises(ScenarioExhausted):
        mock()


def test_mock_from_file_round_trip(tmp_path):
    import json

    path = tmp_path / "scenario.json"
    reports = [_mk("fail", failures=("t",)), _mk("pass", cell_count=9)]
    path.write_text(json.dumps([r.as_dict() for r in reports]))
    mock = MockAdapter.from_file(path)
    assert mock() == reports[0]
    assert mock() == reports[1]


# ------------------------------------------------------------------- runners


def test_run_simulation_tool_missing(tmp_path):
    files = write_fifo_fixture(tmp_path)
    r = run_simulation(
        files[:1], files[1], tmp_path, iverilog="/nonexistent/iverilog"
    )
    assert r.status == "tool_missing"


def test_run_simulation_times_out_within_twice_budget(tmp_path):
    slow = tmp_path / "slow"
    slow.write_text("#!/bin/sh\nsleep 30\n")
    slow.chmod(slow.stat().st_mode | stat.S_IEXEC)
    files = write_fifo_fixture(tmp_path)
    t0 = time.monotonic()
    r = run_simulation(files[:1], files[1], tmp_path, timeout=1.0, iverilog=str(slow))
    elapsed = time.monotonic() - t0
    assert r.status == "timeout"
    assert elapsed < 2.0


def test_timeout_kills_the_tool_process_group(tmp_path):
    forks = tmp_path / "forks"
    forks.write_text("#!/bin/sh\n(sleep 2; echo late > late.txt) & wait\n")
    forks.chmod(forks.stat().st_mode | stat.S_IEXEC)
    files = write_fifo_fixture(tmp_path)
    t0 = time.monotonic()
    r = run_simulation(files[:1], files[1], tmp_path, timeout=1.0, iverilog=str(forks))
    assert r.status == "timeout"
    assert time.monotonic() - t0 < 2.0
    time.sleep(3.0)
    assert not (tmp_path / "late.txt").exists()


def test_interrupt_kills_the_tool_process_group(tmp_path, monkeypatch):
    def interrupted(self, timeout=None):
        time.sleep(0.2)  # lets the shell start its background child
        raise KeyboardInterrupt

    monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_command(["/bin/sh", "-c", "(sleep 1; echo late > late.txt) & wait"],
                    tmp_path, 5.0, parse_simulation_output)
    time.sleep(1.5)
    assert not (tmp_path / "late.txt").exists()


def test_fifo_fixture_files_exist(tmp_path):
    files = write_fifo_fixture(tmp_path)
    assert len(files) == 2
    for f in files:
        assert os.path.exists(tmp_path / f)
    rtl = (tmp_path / files[0]).read_text()
    assert "module" in rtl


# ----------------------------------------------- real tools (when installed)

_HAVE_SIM = shutil.which("iverilog") and shutil.which("vvp")


@pytest.mark.skipif(not _HAVE_SIM, reason="iverilog/vvp not installed")
def test_real_simulation_of_fifo_fixture(tmp_path):
    files = write_fifo_fixture(tmp_path)
    r = run_simulation(files[:1], files[1], tmp_path)
    assert r.status == "pass"
