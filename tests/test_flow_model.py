"""Model-based fault test for checkpoint and resume.

A state machine runs and resumes one small flow, stopping at any record,
and between those steps crashes any checkpoint write (a full save's .tmp
write or rename, or a journal append), tears the checkpoint's or .tmp's
tail at any byte, and switches between two configs.  Every resume must end
with FlowResult JSON byte-identical to the uninterrupted run, or raise
CheckpointCorrupt or ConfigMismatch; nothing else may escape.  A call that
returns leaves one JSON document holding its history; a call that crashes
leaves every record whose save completed, and at most the one it cut short.
"""

import contextlib
import json
import shutil
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, rule  # noqa: E402

from kwsflow import flow  # noqa: E402
from kwsflow.errors import CheckpointCorrupt, ConfigMismatch  # noqa: E402
from kwsflow.flow import load_checkpoint, resume_flow, run_flow, validate_config  # noqa: E402

# rtl passes at its third iteration, synthesis at its second; physical is skipped
SCENARIOS = {
    "rtl": [{"status": "fail", "failures": ["a"]}, {"status": "compile_error", "failures": ["b"]},
            {"status": "pass"}],
    "synthesis": [{"status": "timeout", "failures": ["c"]}, {"status": "pass", "cell_count": 12}],
}
RECORDS = 5
SAVE_STEPS = 2 + RECORDS + 2  # first full save (.tmp write, rename), appends, last full save
STOPS = st.none() | st.integers(1, RECORDS)  # stop_after, or run to the end
CRASHES = st.none() | st.tuples(st.integers(0, SAVE_STEPS - 1), st.integers(0, 10**6))  # (step, cut)


class _Crash(Exception):
    """A process killed in the middle of a checkpoint write."""


def _config(d: Path, rtl_budget: int) -> dict:
    script = {stage: [{"writes": {f"{stage}/top.v": f"// {stage} revision {i}\n"},
                       "params": {"rev": i}} for i in range(len(reports))]
              for stage, reports in SCENARIOS.items()}
    (d / "script.json").write_text(json.dumps(script))
    stages = {"physical": {}}
    for stage, reports in SCENARIOS.items():
        (d / f"{stage}.json").write_text(json.dumps(reports))
        stages[stage] = {"adapter": "mock", "scenario": str(d / f"{stage}.json")}
    stages["rtl"]["budget"] = rtl_budget
    return {"workdir": str(d / "work"), "stages": stages,
            "reasoner": {"kind": "scripted", "script": str(d / "script.json")}}


def _snapshot(state: flow.FlowState) -> str:
    return json.dumps(state.as_dict(), sort_keys=True)


class _Faults:
    """Counts checkpoint write steps in one run; crashes at step `at`,
    leaving the first `cut` characters of a write behind."""

    def __init__(self, mp: pytest.MonkeyPatch, at: int | None, cut: int) -> None:
        self.step, self.at, self.cut = 0, at, cut
        write_text, path_open, replace = Path.write_text, Path.open, flow.os.replace
        faults = self

        class TornAppend:
            def __init__(self, f) -> None:
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc) -> None:
                self.f.close()

            def write(self, text: str) -> None:
                self.f.write(text[:faults.cut % (len(text) + 1)])
                raise _Crash("append")

        def torn_write_text(path, text, *args, **kwargs):
            if path.name.endswith(".tmp") and self.crashes():
                write_text(path, text[:self.cut % (len(text) + 1)], *args, **kwargs)
                raise _Crash("full save")
            return write_text(path, text, *args, **kwargs)

        def torn_open(path, mode="r", *args, **kwargs):
            f = path_open(path, mode, *args, **kwargs)
            return TornAppend(f) if mode == "a" and self.crashes() else f

        def crashing_replace(*args):
            if self.crashes():
                raise _Crash("rename")
            return replace(*args)

        mp.setattr(Path, "write_text", torn_write_text)
        mp.setattr(Path, "open", torn_open)
        mp.setattr(flow.os, "replace", crashing_replace)

    def crashes(self) -> bool:
        self.step += 1
        return self.step - 1 == self.at


class FlowFaultMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="kwsflow-model-"))
        # two configs with the same uninterrupted result; a checkpoint of one
        # is a ConfigMismatch under the other
        self.configs = [_config(self.dir, budget) for budget in (4, 5)]
        self.config = self.configs[0]
        (self.dir / "ref").mkdir()
        self.full = run_flow(_config(self.dir / "ref", 4)).to_json()
        self.ck = self.dir / "ck.json"

    def teardown(self) -> None:
        shutil.rmtree(self.dir)

    def _call(self, crash, stop, call) -> None:
        """call() under crash, a (write step, cut) or None, then the checks."""
        at, cut = crash or (None, 0)
        snapshots, durable = [], [0]  # the state each save of this call writes; saves completed
        with pytest.MonkeyPatch.context() as mp:
            _Faults(mp, at, cut)
            save = flow._Journal.save

            def counted_save(journal, state):
                snapshots.append(_snapshot(state))
                save(journal, state)
                durable[0] = len(snapshots)

            mp.setattr(flow._Journal, "save", counted_save)
            try:
                result = call()
            except _Crash:
                result = None
        if result is not None:
            assert len(self.ck.read_text().splitlines()) == 1  # one document at rest
            back = load_checkpoint(self.ck, self.config)
            assert (back.statuses, back.paths, back.history) == (
                result.statuses, result.artifacts, result.history)
            if stop is None:
                assert result.to_json() == self.full
        elif durable[0]:
            # a crash keeps the last completed save, or the one it cut short
            got = _snapshot(load_checkpoint(self.ck, self.config))
            assert got in snapshots[durable[0] - 1:durable[0] + 1]

    @rule(which=st.sampled_from([0, 1]))
    def change_config(self, which: int) -> None:
        self.config = self.configs[which]

    @rule(which=st.sampled_from(["", ".tmp"]), cut=st.integers(0, 10**6))
    def tear(self, which: str, cut: int) -> None:
        path = Path(f"{self.ck}{which}")
        if path.exists():
            data = path.read_bytes()
            path.write_bytes(data[:cut % (len(data) + 1)])

    @rule(stop=STOPS, crash=CRASHES)
    def run(self, stop, crash) -> None:
        self._call(crash, stop, lambda: run_flow(self.config, checkpoint_path=self.ck, stop_after=stop))

    @rule(stop=STOPS, crash=CRASHES)
    def resume(self, stop, crash) -> None:
        def call():
            if stop is None:
                return resume_flow(self.config, self.ck)
            validate_config(self.config)
            return flow._execute(self.config, load_checkpoint(self.ck, self.config), self.ck, stop)
        with contextlib.suppress(CheckpointCorrupt, ConfigMismatch):
            self._call(crash, stop, call)


FlowFaultMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=12, deadline=None)
test_checkpoint_faults = FlowFaultMachine.TestCase
