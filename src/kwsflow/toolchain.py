"""Adapters around external EDA tools plus a hermetic mock.

Every adapter returns a ToolReport; parsers are total, so arbitrary
tool output produces a structured report (worst case: parse_error with
the raw capture attached) rather than an exception.  Live-tool paths
are exercised only when the binaries exist: the FIFO simulation test
runs whenever iverilog and vvp are installed, while the whole-toolchain
acceptance test also waits for AIEDA_ENABLE_REAL_TOOLS=1, because report
formats drift across versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import signal
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import ConfigInvalid, Rule, ScenarioExhausted, check_fields

REPORT_STATUSES = ("pass", "fail", "compile_error", "timeout", "tool_missing", "parse_error")
# ToolReport's fields, as a scenario report holds them; _NULLABLE ones may also be null
REPORT_RULES = {"status": Rule(str, allowed=REPORT_STATUSES), "failures": Rule(list, each=Rule("text")),
                "cell_count": Rule(int, lo=0), "worst_slack_ns": Rule(float), "raw_capture": Rule("text")}
_NULLABLE = ("cell_count", "worst_slack_ns")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_digest(obj) -> str:
    """SHA-256 of obj as canonical JSON: sorted keys, no whitespace."""
    return _digest(json.dumps(obj, sort_keys=True, separators=(",", ":")))


@dataclass(frozen=True)
class ToolReport:
    status: str  # one of REPORT_STATUSES
    failures: tuple[str, ...] = ()
    cell_count: int | None = None
    worst_slack_ns: float | None = None
    raw_capture: str = ""

    def __post_init__(self) -> None:
        if self.status == "pass" and self.failures:
            raise ValueError("a passing report cannot carry failures")

    def digest(self) -> str:
        return _canonical_digest(self.as_dict())

    def as_dict(self) -> dict:
        return {**vars(self), "failures": list(self.failures)}

    @classmethod
    def from_dict(cls, d: dict) -> "ToolReport":
        """A report from its as_dict form; a missing status reads as parse_error."""
        return cls(**{"status": "parse_error", **d, "failures": tuple(d.get("failures", ()))})


def _decode(data: bytes | str) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8", errors="replace")
    return data or ""


def run_command(cmd: list[str], workdir: Path, timeout: float,
                parse: Callable[[str], ToolReport], name: str | None = None) -> ToolReport:
    """Run one child process; every outcome comes back as a ToolReport.

    A missing binary gives tool_missing and an expired timeout gives
    timeout.  When name is given a nonzero exit gives compile_error;
    otherwise the combined stdout/stderr capture goes to parse.  The child
    leads its own process group, which is killed on timeout or on any
    exception, so nothing it started outlives the call.
    """
    try:
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, start_new_session=True)
    except FileNotFoundError:
        return ToolReport(status="tool_missing", failures=(f"not found: {cmd[0]}",))
    with proc:
        try:
            out = proc.communicate(timeout=timeout)[0]
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            return ToolReport(status="timeout", failures=(f"killed after {timeout}s",),
                              raw_capture=_decode(exc.output or b""))
    cap = _decode(out)
    if name is not None and proc.returncode != 0:
        return ToolReport(status="compile_error", failures=(f"{name} exited nonzero",),
                          raw_capture=cap)
    return parse(cap)


def _missing(wd: Path, files) -> ToolReport | None:
    """compile_error naming the first input that is not a file in wd."""
    for f in files:
        if not (wd / f).is_file():
            return ToolReport(status="compile_error", failures=(f"missing file: {f}",))
    return None


# ---------------------------------------------------------------------------
# report parsers (total functions)
# ---------------------------------------------------------------------------

_FAIL_RE = re.compile(r"TEST FAIL:?\s*(.*)")
_CELLS_RE = re.compile(r"Number of cells:\s*(\d+)")
_SLACK_RE = re.compile(r"worst slack(?:\s+\w+)?\s+(-?\d+(?:\.\d+)?)")


def _unparsed(cap: str, line: str) -> ToolReport:
    """parse_error for a capture that lacks the line a parser looks for."""
    return ToolReport(status="parse_error", failures=(f"no {line} line found",), raw_capture=cap)


def parse_simulation_output(text: bytes | str) -> ToolReport:
    """PASS/FAIL line protocol: 'TEST PASS' or 'TEST FAIL: <msg>' lines."""
    cap = _decode(text)
    failures = tuple(m.group(1).strip() for m in _FAIL_RE.finditer(cap))
    if failures:
        return ToolReport(status="fail", failures=failures, raw_capture=cap)
    if "TEST PASS" in cap:
        return ToolReport(status="pass", raw_capture=cap)
    return _unparsed(cap, "TEST PASS/FAIL")


def parse_synthesis_output(text: bytes | str) -> ToolReport:
    cap = _decode(text)
    m = _CELLS_RE.search(cap)
    if m is None:
        return _unparsed(cap, "'Number of cells:'")
    return ToolReport(status="pass", cell_count=int(m.group(1)), raw_capture=cap)


def parse_sta_output(text: bytes | str) -> ToolReport:
    cap = _decode(text)
    m = _SLACK_RE.search(cap)
    if m is None:
        return _unparsed(cap, "'worst slack'")
    slack = float(m.group(1))
    if slack < 0:
        return ToolReport(
            status="fail",
            failures=("timing violation",),
            worst_slack_ns=slack,
            raw_capture=cap,
        )
    return ToolReport(status="pass", worst_slack_ns=slack, raw_capture=cap)


# ---------------------------------------------------------------------------
# tool adapters
# ---------------------------------------------------------------------------

def run_simulation(
    rtl_files: list[str],
    testbench: str,
    workdir: str | Path,
    timeout: float = 60.0,
    iverilog: str = "iverilog",
) -> ToolReport:
    """Compile with Icarus Verilog and run the testbench binary."""
    wd = Path(workdir)
    if (missing := _missing(wd, [*rtl_files, testbench])) is not None:
        return missing
    report = run_command([iverilog, "-g2012", "-o", "sim.vvp", *rtl_files, testbench],
                         wd, timeout, lambda cap: ToolReport(status="pass"), "iverilog")
    if report.status != "pass":
        return report
    # vvp's exit code is ignored: the testbench's PASS/FAIL lines decide
    return run_command(["vvp", "sim.vvp"], wd, timeout, parse_simulation_output)


def run_synthesis(
    rtl_files: list[str],
    workdir: str | Path,
    liberty: str | None = None,
    timeout: float = 120.0,
    top: str | None = None,
) -> ToolReport:
    """Synthesize to a gate-level netlist with Yosys and count cells."""
    wd = Path(workdir)
    if (missing := _missing(wd, rtl_files)) is not None:
        return missing
    lines = [f"read_verilog {f}" for f in rtl_files]
    lines.append(f"synth -top {top}" if top else "synth")
    if liberty:
        lines.append(f"dfflibmap -liberty {liberty}")
        lines.append(f"abc -liberty {liberty}")
    lines.append("stat")
    lines.append("write_verilog netlist.v")
    (wd / "synth.ys").write_text("\n".join(lines) + "\n")
    return run_command(["yosys", "-s", "synth.ys"], wd, timeout, parse_synthesis_output, "yosys")


def run_sta(
    netlist: str,
    constraints: str,
    liberty: str,
    workdir: str | Path,
    timeout: float = 60.0,
) -> ToolReport:
    """Worst-slack query through OpenSTA."""
    wd = Path(workdir)
    if (missing := _missing(wd, (netlist, constraints, liberty))) is not None:
        return missing
    script = "\n".join([
        f"read_liberty {liberty}",
        f"read_verilog {netlist}",
        "link_design [lindex [get_property [get_designs] name] 0]",
        f"read_sdc {constraints}",
        "report_worst_slack -max",
        "exit",
    ]) + "\n"
    (wd / "sta.tcl").write_text(script)
    return run_command(["sta", "-exit", "sta.tcl"], wd, timeout, parse_sta_output, "sta")


# ---------------------------------------------------------------------------
# hermetic mock adapter
# ---------------------------------------------------------------------------

@dataclass
class MockAdapter:
    """Replays a scripted sequence of reports; counts calls."""

    reports: list[ToolReport]
    calls: int = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "MockAdapter":
        data = json.loads(Path(path).read_text())
        if not Rule(list, each=Rule(dict)).admits(data):
            raise ConfigInvalid(f"scenario {path} must be a list of report objects")
        for d in data:
            check_fields({k: v for k, v in d.items() if v is not None or k not in _NULLABLE},
                         REPORT_RULES, f"scenario {path} report")
        try:
            return cls(reports=[ToolReport.from_dict(d) for d in data])
        except ValueError as exc:  # ToolReport's own checks, as a passing report with failures
            raise ConfigInvalid(f"scenario {path}: {exc}") from exc

    def __call__(self, *_args, **_kwargs) -> ToolReport:
        if self.calls >= len(self.reports):
            raise ScenarioExhausted(
                f"scenario has {len(self.reports)} reports, call {self.calls} requested")
        report = self.reports[self.calls]
        self.calls += 1
        return report


# ---------------------------------------------------------------------------
# fixture design: 6-bit-wide, 32-entry synchronous FIFO
# ---------------------------------------------------------------------------

FIFO_RTL = """\
// Synchronous FIFO: 6-bit data, 32 entries, full/empty flags.
module fifo #(
    parameter WIDTH = 6,
    parameter DEPTH = 32,
    parameter ADDR  = 5
) (
    input  wire             clk,
    input  wire             rst,
    input  wire             wr_en,
    input  wire             rd_en,
    input  wire [WIDTH-1:0] din,
    output reg  [WIDTH-1:0] dout,
    output wire             full,
    output wire             empty
);
    reg [WIDTH-1:0] mem [0:DEPTH-1];
    reg [ADDR:0] wptr, rptr;

    assign full  = (wptr - rptr) == DEPTH[ADDR:0];
    assign empty = wptr == rptr;

    always @(posedge clk) begin
        if (rst) begin
            wptr <= 0;
            rptr <= 0;
            dout <= 0;
        end else begin
            if (wr_en && !full) begin
                mem[wptr[ADDR-1:0]] <= din;
                wptr <= wptr + 1;
            end
            if (rd_en && !empty) begin
                dout <= mem[rptr[ADDR-1:0]];
                rptr <= rptr + 1;
            end
        end
    end
endmodule
"""
