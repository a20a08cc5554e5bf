"""README's config tables against the rule tables they document."""

import inspect
import json
import re
from dataclasses import fields
from pathlib import Path

from kwsflow.dse import THRESHOLDS
from kwsflow.flow import REASONER_RULES, STAGE_RULES, RemoteReasoner
from kwsflow.frontend import PIPELINE_RULES, PipelineConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def table(header: str) -> list[list[str]]:
    """Cells of each row of the README table whose header row starts with header."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def code(cell: str) -> str:
    return re.fullmatch(r"`([^`]*)`", cell).group(1)


def test_pipeline_table_lists_every_field_and_its_default():
    rows = table("| Field | Default |")
    assert [code(r[0]) for r in rows] == list(PIPELINE_RULES)
    assert {code(r[0]): json.loads(r[1].strip("`")) for r in rows} == {
        f.name: f.default for f in fields(PipelineConfig)}


def test_dse_table_lists_every_threshold_and_its_default():
    rows = table("| Name | Default |")
    assert {code(r[0]): float(r[1]) for r in rows} == THRESHOLDS


def test_stage_table_lists_every_key_of_every_stage():
    documented = {stage: set() for stage in STAGE_RULES}
    for key, stages, *_ in table("| Key | Stages |"):
        for stage in stages.split(", "):
            documented[stage].add(code(key))
    assert documented == {stage: set(rules) for stage, rules in STAGE_RULES.items()}


def test_reasoner_table_lists_every_key_and_the_remote_defaults():
    rows = {code(r[0]): r[1] for r in table("| Reasoner key |")}
    assert set(rows) == set(REASONER_RULES)
    defaults = inspect.signature(RemoteReasoner).parameters
    assert json.loads(code(rows["model"])) == defaults["model"].default
    assert float(rows["timeout_s"].removesuffix(" s")) == defaults["timeout_s"].default
