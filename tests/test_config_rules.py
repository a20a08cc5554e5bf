"""Property tests derived from the config rule tables: a valid config with one
key broken is rejected by the library and by the CLI, before any side effect."""

import contextlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kwsflow.cli import EXIT_BAD_INPUT, dispatch  # noqa: E402
from kwsflow.dse import POINT_RULES, THRESHOLD_RULES, THRESHOLDS, DesignPoint, dse_thresholds  # noqa: E402
from kwsflow.errors import ConfigInvalid, KwsflowError, Rule, check_fields  # noqa: E402
from kwsflow.flow import FLOW_RULES, run_flow, validate_config  # noqa: E402
from kwsflow.frontend import PIPELINE_RULES, PipelineConfig  # noqa: E402
from kwsflow.signal import gen_signal, write_wav  # noqa: E402

SCRATCH = Path(tempfile.gettempdir()) / f"kwsflow-config-rules-{os.getpid()}"
WORKDIR = SCRATCH / "work"
OUT = SCRATCH / "out.json"

# a valid config per surface, holding every key its table names
BASES = {
    "pipeline": {f.name: f.default for f in fields(PipelineConfig)},
    "design_point": {f.name: f.default for f in fields(DesignPoint)},
    "thresholds": dict(THRESHOLDS),
    "flow": {
        "workdir": str(WORKDIR),
        "stages": {
            "architecture": {"corpus": "corpus", "dse": dict(THRESHOLDS)},
            "rtl": {"adapter": "mock", "scenario": "scen.json", "budget": 2, "timeout_s": 5},
            "synthesis": {"adapter": "real", "scenario": "scen.json", "budget": 3,
                          "timeout_s": 0.5, "liberty": "cells.lib", "sdc": "top.sdc"},
            "physical": {"command": "true", "timeout_s": 60},
        },
        "reasoner": {"kind": "scripted", "script": "script.json",
                     "endpoint": "http://127.0.0.1:9", "model": "m", "timeout_s": 1},
    },
}
RULES = {"pipeline": PIPELINE_RULES, "design_point": POINT_RULES,
         "thresholds": THRESHOLD_RULES, "flow": FLOW_RULES}
# each surface through the library; the dataclasses take keywords, so only
# their values are broken there
LIBRARY = {
    "pipeline": lambda cfg: PipelineConfig(**cfg),
    "design_point": lambda cfg: DesignPoint(**cfg),
    "thresholds": dse_thresholds,
    "flow": run_flow,
}

NULLS = st.one_of(st.none(), st.booleans(), st.lists(st.integers(), max_size=2))
NON_OBJECTS = st.one_of(NULLS, st.integers(), st.text(max_size=4))


def bad_values(rule: Rule):
    """Values rule does not admit: wrong types, bools, NaN, infinities, out-of-range numbers."""
    if rule.kind is dict:
        return NON_OBJECTS
    if rule.kind is str:
        wrong = st.one_of(st.just(""), st.integers(), st.floats(), NULLS)
        return st.one_of(wrong, st.text(min_size=1, max_size=8).filter(
            lambda v: v not in rule.allowed)) if rule.allowed else wrong
    options = [NULLS, st.text(max_size=4), st.sampled_from([float("nan"), float("inf"), float("-inf")])]
    if rule.kind is int:
        options.append(st.floats())  # 32.0 is not an integer either
        if rule.allowed:
            options.append(st.integers().filter(lambda v: v not in rule.allowed))
    if rule.lo > float("-inf"):
        options.append(st.floats(max_value=rule.lo, exclude_max=True))
        options.append(st.integers(max_value=int(rule.lo) - (int(rule.lo) == rule.lo)))
    if rule.hi < float("inf"):
        options.append(st.integers(min_value=int(rule.hi) + 1))
    return st.one_of(options)


def broken(rules: dict, base: dict, values_only: bool = False):
    """base with one key broken, at any depth of nested tables; unless
    values_only, also with an unknown key, a required key dropped, or base
    replaced by a non-object."""
    def break_key(key):
        rule = rules[key]
        inner = broken(rule.fields, base[key]) if rule.fields is not None else bad_values(rule)
        return inner.map(lambda v: {**base, key: v})

    options = [st.sampled_from(sorted(rules)).flatmap(break_key)]
    if not values_only:
        options.append(st.text(min_size=1, max_size=8).filter(lambda k: k not in rules)
                       .map(lambda k: {**base, k: 1}))
        options.append(NON_OBJECTS)
        required = [k for k, rule in rules.items() if rule.required]
        if required:
            options.append(st.sampled_from(required).map(
                lambda k: {key: v for key, v in base.items() if key != k}))
    return st.one_of(options)


def _keys(rules: dict) -> set:
    return {(k, *sub) for k, rule in rules.items()
            for sub in (_keys(rule.fields) if rule.fields else {()}) | {()}}


def _base_keys(obj) -> set:
    return {(k, *sub) for k, v in obj.items()
            for sub in (_base_keys(v) if isinstance(v, dict) else set()) | {()}}


@pytest.mark.parametrize("surface", sorted(BASES))
def test_bases_are_valid_and_hold_every_key(surface):
    assert _base_keys(BASES[surface]) == _keys(RULES[surface])
    if surface == "flow":
        validate_config(BASES[surface])
    else:
        LIBRARY[surface](BASES[surface])


def test_config_invalid_is_a_value_error():
    assert issubclass(ConfigInvalid, KwsflowError) and issubclass(ConfigInvalid, ValueError)


@pytest.mark.parametrize("rule, good, bad", [
    (Rule("text"), ["", "x"], [None, 1, True, ["x"]]),
    (Rule(list, each=Rule("text")), [[], ["", "x"]], [None, ("x",), ["x", 1], {"a": "x"}]),
    (Rule(dict, each=Rule(str)), [{}, {"a": "x"}], [{"a": ""}, {"a": "x", "b": 5}, ["x"]]),
    (Rule(list, each=Rule(int, lo=0)), [[0, 3]], [[-1], [True], [1.0]]),
], ids=["text", "list-of-text", "object-of-str", "list-of-int"])
def test_rule_each_checks_every_item(rule, good, bad):
    assert all(map(rule.admits, good)) and not any(map(rule.admits, bad))


def test_rule_each_names_its_items():
    with pytest.raises(ConfigInvalid, match="whose writes is an object whose every item is a string, got"):
        check_fields({"writes": {"a.v": 1}}, {"writes": Rule(dict, each=Rule("text"))}, "proposal")


def _library_case(surface):
    cases = broken(RULES[surface], BASES[surface], values_only=surface in ("pipeline", "design_point"))
    # dse_thresholds(None) means the defaults
    return cases.filter(lambda cfg: cfg is not None) if surface == "thresholds" else cases


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BASES)).flatmap(lambda s: st.tuples(st.just(s), _library_case(s))))
def test_broken_config_raises_config_invalid(case):
    surface, cfg = case
    with pytest.raises(ConfigInvalid):
        LIBRARY[surface](cfg)
    assert not WORKDIR.exists()


def _argv(surface: str, path: Path) -> list[str]:
    if surface == "pipeline":
        return ["mfcc", "--in", str(SCRATCH / "clip.wav"), "--config", str(path), "--out", str(OUT)]
    if surface == "thresholds":
        return ["dse", "--config", str(path), "--out", str(OUT)]
    return ["flow", "run", "--config", str(path), "--out", str(OUT)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["flow", "pipeline", "thresholds"]).flatmap(
    lambda s: st.tuples(st.just(s), broken(RULES[s], BASES[s]))))
def test_broken_config_exits_two_without_side_effects(case):
    surface, cfg = case
    clip = SCRATCH / "clip.wav"
    if not clip.exists():
        SCRATCH.mkdir(exist_ok=True)
        write_wav(clip, gen_signal("speechlike", seed=1, n=4000))
    path = SCRATCH / "config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch(_argv(surface, path))
    assert code == EXIT_BAD_INPUT, err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not WORKDIR.exists() and not OUT.exists()


def teardown_module():
    shutil.rmtree(SCRATCH, ignore_errors=True)
