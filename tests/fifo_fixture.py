"""Self-checking testbench for the FIFO fixture design, and a writer of both files.

The design itself, FIFO_RTL, stays in kwsflow.toolchain: the benchmark's
flow workload writes revisions of it.
"""

from __future__ import annotations

from pathlib import Path

from kwsflow.toolchain import FIFO_RTL

FIFO_TB = """\
// Self-checking testbench for the 6-bit / 32-deep FIFO.
// Protocol: prints "TEST FAIL: <msg>" per failed check, then a final
// "TEST PASS" only if every check held.
`timescale 1ns/1ps
module fifo_tb;
    reg clk = 0, rst = 1, wr_en = 0, rd_en = 0;
    reg  [5:0] din = 0;
    wire [5:0] dout;
    wire full, empty;
    integer i, errors = 0;

    fifo dut (.clk(clk), .rst(rst), .wr_en(wr_en), .rd_en(rd_en),
              .din(din), .dout(dout), .full(full), .empty(empty));

    always #5 clk = ~clk;

    task check(input cond, input [255:0] msg);
        if (!cond) begin
            $display("TEST FAIL: %0s", msg);
            errors = errors + 1;
        end
    endtask

    initial begin
        @(posedge clk); rst = 0;
        @(posedge clk);
        check(empty, "fifo not empty after reset");
        check(!full, "fifo full after reset");

        // fill completely
        for (i = 0; i < 32; i = i + 1) begin
            wr_en = 1; din = i[5:0];
            @(posedge clk);
        end
        wr_en = 0;
        @(posedge clk);
        check(full, "fifo not full after 32 writes");

        // overflow attempt must be ignored
        wr_en = 1; din = 6'h3F;
        @(posedge clk);
        wr_en = 0;
        @(posedge clk);
        check(full, "overflow write corrupted full flag");

        // drain and compare
        for (i = 0; i < 32; i = i + 1) begin
            rd_en = 1;
            @(posedge clk);
            rd_en = 0;
            @(posedge clk);
            check(dout == i[5:0], "read data mismatch");
        end
        check(empty, "fifo not empty after drain");

        // underflow attempt must be ignored
        rd_en = 1;
        @(posedge clk);
        rd_en = 0;
        @(posedge clk);
        check(empty, "underflow read corrupted empty flag");

        if (errors == 0)
            $display("TEST PASS");
        $finish;
    end
endmodule
"""


def write_fifo_fixture(workdir: str | Path) -> list[str]:
    """Materialize the FIFO design and testbench; returns the file names."""
    wd = Path(workdir)
    (wd / "fifo.v").write_text(FIFO_RTL)
    (wd / "fifo_tb.v").write_text(FIFO_TB)
    return ["fifo.v", "fifo_tb.v"]
