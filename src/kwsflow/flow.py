"""Four-stage feedback-loop orchestrator.

Architecture -> RTL -> Synthesis -> Physical, each stage iterating
propose / apply / run-tool / reflect until the verdict is Accept, the
reasoner aborts, or the iteration budget runs out.  With the scripted
reasoner and the mock tool adapter the whole flow is hermetic and
deterministic: the serialized FlowResult (which excludes wall times) is
byte-identical across runs and across any checkpoint/resume split.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .dse import THRESHOLD_RULES, DseStageError, run_dse
from .errors import (
    POSITIVE,
    CheckpointCorrupt,
    ConfigInvalid,
    ConfigMismatch,
    RemoteProtocolError,
    Rule,
    SchemaViolation,
    ScriptExhausted,
    check_fields,
)
from .toolchain import (
    MockAdapter,
    ToolReport,
    _canonical_digest,
    _digest,
    run_command,
    run_simulation,
    run_sta,
    run_synthesis,
)

SCHEMA_VERSION = 1
STAGES = ("architecture", "rtl", "synthesis", "physical")
STATUSES = ("pending", "running", "passed", "failed", "skipped")
VERDICTS = ("accept", "revise", "abort")
HISTORY_WINDOW = 4  # records shown to the reasoner
# Proposal's fields, as a script, a remote reply or a checkpoint holds them
PROPOSAL_RULES = {"writes": Rule(dict, each=Rule("text")), "params": Rule(dict), "rationale": Rule("text")}
# Verdict's fields, as a remote reply holds them; its proposal is checked by Proposal.from_dict
VERDICT_RULES = {"kind": Rule(str, allowed=VERDICTS, required=True), "proposal": Rule(dict), "reason": Rule("text")}
SCRIPT_RULES = dict.fromkeys(STAGES, Rule(list))  # each proposal is checked by Proposal.from_dict


@dataclass(frozen=True)
class Proposal:
    writes: dict[str, str] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    rationale: str = ""

    def digest(self) -> str:
        return _canonical_digest(self.as_dict())

    def as_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict) -> "Proposal":
        try:
            check_fields(d, PROPOSAL_RULES, "proposal")
        except ConfigInvalid as exc:  # a remote reply retries on a SchemaViolation
            raise SchemaViolation(str(exc)) from exc
        return cls(writes=dict(d.get("writes", {})), params=dict(d.get("params", {})),
                   rationale=d.get("rationale", ""))


@dataclass(frozen=True)
class Verdict:
    kind: str  # accept | revise | abort
    proposal: Proposal | None = None
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind not in VERDICTS:
            raise SchemaViolation(f"unknown verdict kind: {self.kind}")
        if self.kind == "revise" and (
                self.proposal is None or
                (not self.proposal.writes and not self.proposal.params)):
            raise SchemaViolation("revise verdict requires a nonempty proposal")


@dataclass(frozen=True)
class ActionRecord:
    stage: str
    iteration: int
    proposal_digest: str
    report_digest: str
    verdict: str
    wall_time: float

    def as_dict(self, include_wall_time: bool = True) -> dict:
        d = dict(vars(self))
        if not include_wall_time:
            del d["wall_time"]
        return d


# ActionRecord's fields, as a checkpoint's history record must hold them
RECORD_RULES = {"stage": Rule(str, allowed=STAGES, required=True), "iteration": Rule(int, lo=0, required=True),
                "proposal_digest": Rule(str, required=True), "report_digest": Rule(str, required=True),
                "verdict": Rule(str, allowed=VERDICTS, required=True), "wall_time": Rule(float, required=True)}
# FlowState's statuses, one per stage, and paths, each a digest as _write_artifact records it
STATE_RULES = {"statuses": Rule(dict, fields={s: Rule(str, allowed=STATUSES, required=True) for s in STAGES}),
               "paths": Rule(dict, each=Rule(str))}


@dataclass
class FlowState:
    """What resume reads; artifact contents live only in the workdir."""
    statuses: dict = field(
        default_factory=lambda: {s: "pending" for s in STAGES})
    paths: dict = field(default_factory=dict)       # rel path -> digest
    history: list = field(default_factory=list)     # ActionRecords
    pending_proposal: Proposal | None = None        # carried Revise payload

    def as_dict(self, since: int = 0) -> dict:  # history from record since on
        return {
            "statuses": self.statuses,
            "paths": self.paths,
            "history": [r.as_dict() for r in self.history[since:]],
            "pending_proposal": (
                self.pending_proposal.as_dict() if self.pending_proposal else None),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FlowState":
        check_fields({k: d[k] for k in STATE_RULES}, STATE_RULES, "checkpoint state")  # other keys: an old layout
        st = cls(
            statuses=dict(d["statuses"]),
            paths=dict(d["paths"]),
            history=[ActionRecord(**check_fields(r, RECORD_RULES, "checkpoint record")) for r in d["history"]],
        )
        if d.get("pending_proposal"):
            st.pending_proposal = Proposal.from_dict(d["pending_proposal"])
        return st


@dataclass
class FlowResult:
    statuses: dict
    overall: str  # success | partial | failed
    artifacts: dict  # rel path -> digest
    history: list

    def to_json(self) -> str:
        # wall times are excluded so results compare byte-for-byte
        return json.dumps({
            "overall": self.overall,
            "statuses": self.statuses,
            "artifacts": self.artifacts,
            "history": [r.as_dict(include_wall_time=False) for r in self.history],
        }, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# reasoners
# ---------------------------------------------------------------------------

class ScriptedReasoner:
    """Table-driven reasoner: proposals indexed by (stage, iteration).

    The script maps stage names to ordered proposal lists.  propose(i)
    returns entry i; reflect on a failing report revises with entry i+1
    when one exists and aborts otherwise, so every entry after a stage's
    first must carry writes or params (else ConfigInvalid).
    """

    def __init__(self, script: dict) -> None:
        self.script = {
            stage: [Proposal.from_dict(p) for p in entries]
            for stage, entries in script.items()
        }
        for stage, entries in self.script.items():
            for i, p in enumerate(entries[1:], 1):
                if not p.writes and not p.params:
                    raise ConfigInvalid(f"script {stage} entry {i} is a revision, so it needs writes or params")

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedReasoner":
        try:
            return cls(check_fields(json.loads(Path(path).read_text()), SCRIPT_RULES, f"script {path}"))
        except SchemaViolation as exc:
            raise ConfigInvalid(f"script {path}: {exc}") from exc

    def propose(self, context: dict) -> Proposal:
        stage = context["stage"]
        i = context["iteration"]
        entries = self.script.get(stage, [])
        if i >= len(entries):
            raise ScriptExhausted(f"no scripted entry for ({stage}, {i})")
        return entries[i]

    def reflect(self, context: dict, report: ToolReport) -> Verdict:
        if report.status == "pass":
            return Verdict(kind="accept")
        stage = context["stage"]
        nxt = context["iteration"] + 1
        entries = self.script.get(stage, [])
        if nxt < len(entries):
            return Verdict(kind="revise", proposal=entries[nxt])
        return Verdict(kind="abort", reason=f"script exhausted after {report.status}")


def _extract_fenced_json(text: str) -> dict:
    """The single fenced JSON block a remote reply must contain."""
    lines = text.splitlines()
    fences = [i for i, line in enumerate(lines) if line.strip().startswith("```")]
    blocks = ["\n".join(lines[i + 1:j]) for i, j in zip(fences[::2], fences[1::2])]
    if len(blocks) != 1:
        raise SchemaViolation(f"expected exactly one fenced block, got {len(blocks)}")
    try:
        obj = json.loads(blocks[0])
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"fenced block is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaViolation("fenced payload must be a JSON object")
    return obj


def _parse_verdict(obj: dict) -> Verdict:
    fields = {k: v for k, v in obj.items() if k != "proposal" or v is not None}  # null reads as absent
    try:
        check_fields(fields, VERDICT_RULES, "verdict")
    except ConfigInvalid as exc:  # a remote reply retries on a SchemaViolation
        raise SchemaViolation(str(exc)) from exc
    prop = Proposal.from_dict(fields["proposal"]) if fields.get("proposal") else None
    return Verdict(kind=fields["kind"], proposal=prop, reason=fields.get("reason", ""))


class RemoteReasoner:
    """Chat-endpoint reasoner; strict fenced-JSON reply schema.

    Each propose/reflect is one POST of a chat-style message list.  The
    reply body's text must contain exactly one fenced block holding the
    Proposal or Verdict JSON.  Transport errors retry up to 3 times
    with exponential backoff, then raise RemoteProtocolError; schema
    errors likewise, then raise SchemaViolation, including a body that is
    not chat JSON and a reply that does not parse as a Proposal or
    Verdict.  An accept verdict on a failing report is rejected without
    retrying.
    """

    RETRIES = 3

    def __init__(self, endpoint: str, model: str = "default",
                 timeout_s: float = 60.0, backoff_s: float = 1.0) -> None:
        self.endpoint = endpoint
        self.model = model
        self.timeout_s = timeout_s
        self.backoff_s = backoff_s

    def _post(self, messages: list[dict]) -> str:
        import urllib.request  # here, so that `import kwsflow` skips the HTTP stack, 1.7 MB of RSS
        body = json.dumps({"model": self.model, "messages": messages}).encode()
        headers = {"Content-Type": "application/json"}
        key = os.environ.get("AIEDA_LLM_API_KEY")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        req = urllib.request.Request(self.endpoint, data=body, headers=headers)
        with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
            reply = resp.read()
        try:
            content = json.loads(reply.decode("utf-8"))["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # ValueError: not UTF-8/JSON
            raise SchemaViolation(f"malformed chat response: {exc}") from exc
        if not isinstance(content, str):
            raise SchemaViolation(f"chat content must be text, got {type(content).__name__}")
        return content

    def _round_trip(self, reply_shape: str, request: dict, parse):
        """parse(payload) of the first reply that parses; schema errors retry.

        The system message asks for one fenced block shaped as reply_shape;
        the user message is request as sorted JSON.
        """
        import http.client  # here, as urllib.request is in _post
        import urllib.error
        messages = [{"role": "system", "content": f"Reply with exactly one fenced JSON block: {reply_shape}."},
                    {"role": "user", "content": json.dumps(request, sort_keys=True)}]
        last: Exception | None = None
        for attempt in range(self.RETRIES):
            try:
                return parse(_extract_fenced_json(self._post(messages)))
            except (SchemaViolation, urllib.error.URLError, OSError,
                    http.client.HTTPException) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an error reply holds its response open
                last = exc
            if attempt + 1 < self.RETRIES:
                time.sleep(self.backoff_s * (2 ** attempt))
        if isinstance(last, SchemaViolation):
            raise last
        raise RemoteProtocolError(f"endpoint failed after {self.RETRIES} attempts: {last}")

    def propose(self, context: dict) -> Proposal:
        return self._round_trip('{"writes": {path: text}, "params": {}, "rationale": ""}',
                                context, Proposal.from_dict)

    def reflect(self, context: dict, report: ToolReport) -> Verdict:
        verdict = self._round_trip('{"kind": "accept"|"revise"|"abort", "proposal": {...}, "reason": ""}',
                                   {"context": context, "report": report.as_dict()}, _parse_verdict)
        if verdict.kind == "accept" and report.status != "pass":
            raise SchemaViolation("accept verdict on a non-passing report")
        return verdict


# ---------------------------------------------------------------------------
# stage execution
# ---------------------------------------------------------------------------

def _safe_join(root: Path, rel: str) -> Path:
    """root / rel, refused unless it lies inside root (already resolved).

    Only a ".." or a symlink among rel's components can take a path that
    starts with root outside it, so the path is resolved only then.
    """
    target = root / rel
    path = root
    for part in Path(rel).parts:
        path = path / part
        if part == ".." or path.is_symlink():
            target = target.resolve()
            break
    if not str(target).startswith(str(root) + os.sep):
        raise ConfigInvalid(f"write escapes the workspace: {rel}")
    return target


def _write_artifact(state: FlowState, root: Path, rel: str, content: str) -> None:
    """The one way an artifact is written: a file under root, the resolved
    workdir, plus its digest."""
    path = _safe_join(root, rel)
    path.parent.mkdir(parents=True, exist_ok=True)
    # written over in place, then cut to length: ext4 flushes a file truncated to zero
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as f:
        f.write(content)
        f.truncate()
    state.paths[rel] = _digest(content)


def run_stage(
    state: FlowState,
    reasoner,
    adapter,
    budget: int,
    stage: str,
    workdir: Path,
    on_record=None,
) -> FlowState:
    """Iterate propose/apply/run/reflect until accept, abort, or budget."""
    if budget < 1:
        raise ConfigInvalid("stage budget must be >= 1")
    state.statuses[stage] = "running"
    root = Path(workdir).resolve()
    proposal = state.pending_proposal
    start = len([r for r in state.history if r.stage == stage])
    for iteration in range(start, budget):
        t0 = time.monotonic()
        context = {
            "stage": stage,
            "iteration": iteration,
            "artifacts": dict(state.paths),
            "history": [r.as_dict(include_wall_time=False)
                        for r in state.history[-HISTORY_WINDOW:]],
        }
        if proposal is None:
            proposal = reasoner.propose(context)
        for rel, content in proposal.writes.items():
            _write_artifact(state, root, rel, content)
        report = adapter(proposal, workdir)
        verdict = reasoner.reflect(context, report)
        state.history.append(ActionRecord(
            stage=stage,
            iteration=iteration,
            proposal_digest=proposal.digest(),
            report_digest=report.digest(),
            verdict=verdict.kind,
            wall_time=time.monotonic() - t0,
        ))
        if verdict.kind == "accept":
            state.statuses[stage] = "passed"
        elif verdict.kind == "abort" or iteration + 1 >= budget:
            state.statuses[stage] = "failed"
        state.pending_proposal = (
            verdict.proposal
            if verdict.kind == "revise" and state.statuses[stage] == "running"
            else None)
        if on_record is not None:
            on_record(state)
        if verdict.kind != "revise":
            return state
        proposal = verdict.proposal
    if state.statuses[stage] == "running":
        state.statuses[stage] = "failed"
        state.pending_proposal = None
    return state


# ---------------------------------------------------------------------------
# whole-flow orchestration
# ---------------------------------------------------------------------------

_TOOL_STAGE_RULES = {"adapter": Rule(str, allowed=("real", "mock")), "scenario": Rule(str),
                     "budget": Rule(int, lo=1), "timeout_s": POSITIVE}
STAGE_RULES = {
    "architecture": {"corpus": Rule(str), "dse": Rule(dict, fields=THRESHOLD_RULES)},
    "rtl": _TOOL_STAGE_RULES,
    "synthesis": {**_TOOL_STAGE_RULES, "liberty": Rule(str), "sdc": Rule(str)},
    "physical": {"command": Rule(str), "timeout_s": POSITIVE},
}
REASONER_RULES = {"kind": Rule(str, allowed=("scripted", "remote"), required=True),
                  "script": Rule(str), "endpoint": Rule(str), "model": Rule(str),
                  "timeout_s": POSITIVE}
FLOW_RULES = {
    "workdir": Rule(str, required=True),
    "stages": Rule(dict, required=True, fields={
        name: Rule(dict, fields=rules) for name, rules in STAGE_RULES.items()}),
    "reasoner": Rule(dict, fields=REASONER_RULES),
}


def validate_config(config: dict) -> None:
    """FLOW_RULES, then the rules that tie one key to another."""
    check_fields(config, FLOW_RULES, "config")
    stages = config["stages"]
    if not stages:
        raise ConfigInvalid("config requires a nonempty stages object")
    for name, sc in stages.items():
        if sc.get("adapter") == "mock" and "scenario" not in sc:
            raise ConfigInvalid(f"{name} mock adapter requires a scenario file")
    rcfg = config.get("reasoner", {"kind": "scripted"})
    if rcfg["kind"] == "scripted" and "script" not in rcfg and {"rtl", "synthesis"} & set(stages):
        raise ConfigInvalid("scripted reasoner requires a script file")
    if rcfg["kind"] == "remote" and "endpoint" not in rcfg:
        raise ConfigInvalid("remote reasoner requires an endpoint")


def _build_reasoner(rcfg: dict):
    if rcfg["kind"] == "scripted":
        return ScriptedReasoner.from_file(rcfg["script"])
    return RemoteReasoner(rcfg["endpoint"], **{k: rcfg[k] for k in ("model", "timeout_s") if k in rcfg})


def _build_adapter(stage_cfg: dict, stage: str, skip: int = 0):
    if stage_cfg.get("adapter", "real") == "mock":
        mock = MockAdapter.from_file(stage_cfg["scenario"])
        mock.calls = skip  # scenario entries consumed before a resume
        return mock
    # the tools' own defaults apply unless the stage sets timeout_s
    limit = {"timeout": stage_cfg["timeout_s"]} if "timeout_s" in stage_cfg else {}

    if stage == "rtl":
        def sim_adapter(proposal: Proposal, workdir: Path) -> ToolReport:
            files = sorted(proposal.writes)
            tbs = [f for f in files if f.endswith("_tb.v")]
            rtl = [f for f in files if f not in tbs]
            if not tbs:
                return ToolReport(status="compile_error",
                                  failures=("proposal contains no testbench",))
            return run_simulation(rtl, tbs[0], workdir, **limit)
        return sim_adapter

    def synth_adapter(proposal: Proposal, workdir: Path) -> ToolReport:
        rtl = sorted(f for f in proposal.writes if f.endswith(".v"))
        report = run_synthesis(rtl, workdir, liberty=stage_cfg.get("liberty"), **limit)
        if report.status != "pass":
            return report
        if stage_cfg.get("liberty") and stage_cfg.get("sdc"):
            sta = run_sta("netlist.v", stage_cfg["sdc"], stage_cfg["liberty"], workdir, **limit)
            if sta.status != "pass":  # the parser passes only slack >= 0
                return sta
            return ToolReport(status="pass", cell_count=report.cell_count,
                              worst_slack_ns=sta.worst_slack_ns,
                              raw_capture=report.raw_capture + sta.raw_capture)
        return report
    return synth_adapter


def _record_once(state: FlowState, stage: str, proposal: str, report: str,
                 ok: bool, t0: float) -> None:
    """The single history record of a stage that runs without a reasoner."""
    state.history.append(ActionRecord(
        stage=stage, iteration=0, proposal_digest=_digest(proposal),
        report_digest=_digest(report), verdict="accept" if ok else "abort",
        wall_time=time.monotonic() - t0))
    state.statuses[stage] = "passed" if ok else "failed"


def _run_architecture(state: FlowState, acfg: dict, workdir: Path) -> None:
    state.statuses["architecture"] = "running"
    t0 = time.monotonic()
    try:
        report, ok = run_dse(acfg.get("corpus"), acfg.get("dse")), True
    except DseStageError as exc:
        report, ok = exc.report, False
    root = workdir.resolve()
    if ok:
        _write_artifact(state, root, "design_point.json", json.dumps(
            report.chosen_point.as_dict(), indent=2, sort_keys=True) + "\n")
    report_json = report.to_json()
    _write_artifact(state, root, "dse_report.json", report_json)
    _record_once(state, "architecture", "run_dse", report_json, ok, t0)


def _run_physical(state: FlowState, pcfg: dict, workdir: Path) -> None:
    if not pcfg.get("command"):
        state.statuses["physical"] = "skipped"
        return
    t0 = time.monotonic()
    report = run_command(["/bin/sh", "-c", pcfg["command"]], workdir,
                         pcfg.get("timeout_s", 3600.0),
                         lambda cap: ToolReport(status="pass", raw_capture=cap),
                         "physical command")
    _record_once(state, "physical", "external", report.raw_capture,
                 report.status == "pass", t0)


def _finish(state: FlowState) -> FlowResult:
    ran = {s: st for s, st in state.statuses.items() if st != "pending"}
    if any(st == "failed" for st in ran.values()):
        overall = "failed"
    elif any(st == "skipped" for st in ran.values()):
        overall = "partial"
    else:
        overall = "success"
    return FlowResult(
        statuses=dict(state.statuses),
        overall=overall,
        artifacts=dict(state.paths),
        history=list(state.history),
    )


class _StopRequested(Exception):
    pass


def _execute(config: dict, state: FlowState,
             checkpoint_path: str | Path | None,
             stop_after: int | None = None) -> FlowResult:
    stages_cfg = config["stages"]
    # every input file is read before the workdir is made
    adapters = {s: _build_adapter(stages_cfg[s], s, skip=sum(r.stage == s for r in state.history))
                for s in ("rtl", "synthesis") if s in stages_cfg}
    reasoner = _build_reasoner(config.get("reasoner", {"kind": "scripted"})) if adapters else None
    workdir = Path(config["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    journal = None if checkpoint_path is None else _Journal(checkpoint_path, config)

    def after_record(st: FlowState) -> None:
        if journal is not None:
            journal.save(st)
        if stop_after is not None and len(st.history) >= stop_after:
            raise _StopRequested

    try:
        for stage in (s for s in STAGES if s in stages_cfg):
            if state.statuses[stage] in ("passed", "skipped"):
                continue
            if stage in adapters:
                run_stage(state, reasoner, adapters[stage], stages_cfg[stage].get("budget", 4),
                          stage, workdir, on_record=after_record)
            else:
                run_once = _run_architecture if stage == "architecture" else _run_physical
                run_once(state, stages_cfg[stage], workdir)
                after_record(state)
            if state.statuses[stage] == "failed":
                break
    except _StopRequested:
        pass
    # the file at rest is one document, unless this run's one save already wrote it
    if journal is not None and (journal.lines or journal.records is None):
        save_checkpoint(state, config, checkpoint_path)
    return _finish(state)


def run_flow(config: dict, checkpoint_path: str | Path | None = None,
             stop_after: int | None = None) -> FlowResult:
    """Run the flow from scratch.

    stop_after halts the run once that many history records exist (the
    checkpoint, if configured, is saved first), which lets callers
    exercise resume at any iteration boundary.
    """
    validate_config(config)
    return _execute(config, FlowState(), checkpoint_path, stop_after)


def resume_flow(config: dict, checkpoint_path: str | Path) -> FlowResult:
    validate_config(config)
    state = load_checkpoint(checkpoint_path, config)
    return _execute(config, state, checkpoint_path)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(state: FlowState, config: dict, path: str | Path) -> None:
    """The whole state as one JSON document line; a run appends to it."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": _canonical_digest(config),
        "state": state.as_dict(),
    }
    # A crash leaves a whole checkpoint at path, or, between the unlink and
    # the rename, at <path>.tmp, which load_checkpoint reads when path is
    # missing.  Renaming over the old file would make ext4 start writeback
    # of every checkpoint.  No fsync: this guards against a crashed
    # process, not against power loss.
    tmp = Path(f"{path}.tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True) + "\n")
    Path(path).unlink(missing_ok=True)
    os.replace(tmp, path)


class _Journal:
    """One run's checkpoint writes: a full save at the run's first record,
    then one appended line per record holding what changed since the last
    save.  _execute saves in full again when the run returns."""

    def __init__(self, path: str | Path, config: dict) -> None:
        self.path, self.config = Path(path), config
        self.records, self.paths, self.lines = None, {}, 0  # what the file holds

    def save(self, state: FlowState) -> None:
        if self.records is None:
            save_checkpoint(state, self.config, self.path)
        else:
            changed = {k: v for k, v in state.paths.items() if self.paths.get(k) != v}
            line = json.dumps(dict(state.as_dict(since=self.records), paths=changed), sort_keys=True)
            with self.path.open("a", encoding="utf-8") as f:  # no rename, no truncate: no ext4 writeback
                f.write(line + "\n")
            self.lines += 1
        self.records, self.paths = len(state.history), dict(state.paths)


def load_checkpoint(path: str | Path, config: dict) -> FlowState:
    """The first line's document, then each complete journal line after it
    applied in order; text after the last newline is a torn append."""
    ck = Path(path)
    if not ck.exists() and Path(f"{path}.tmp").exists():
        ck = Path(f"{path}.tmp")  # a save stopped before its rename
    try:
        first, *journal = ck.read_text().split("\n")
        doc = json.loads(first)
        if not isinstance(doc, dict):
            raise CheckpointCorrupt("checkpoint is not a JSON object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise CheckpointCorrupt(
                f"unsupported schema_version {doc.get('schema_version')}")
        if doc["config_hash"] != _canonical_digest(config):
            raise ConfigMismatch("checkpoint was produced under a different config")
        state = FlowState.from_dict(doc["state"])
        for line in journal[:-1]:
            step = FlowState.from_dict(json.loads(line))
            state.history += step.history
            state.paths.update(step.paths)
            state.statuses, state.pending_proposal = step.statuses, step.pending_proposal
    except (OSError, ValueError, KeyError, TypeError, SchemaViolation) as exc:
        raise CheckpointCorrupt(f"unreadable checkpoint: {exc}") from exc
    return state
