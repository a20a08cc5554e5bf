"""Exception types, and the one config checker, shared across the package."""

import math
import numbers
from dataclasses import dataclass


class KwsflowError(Exception):
    """Base class for all package errors."""


class UnsupportedFormat(KwsflowError):
    """WAV file is not 16-bit PCM mono little-endian, or fixed-mode frames are not raw sample words."""


class InvalidParams(KwsflowError):
    """Signal generator parameters out of range."""


class EmptySignal(KwsflowError):
    """Operation requires a nonempty signal."""


class InvalidFactor(KwsflowError):
    """Decimation factor must be a positive integer."""


class DegenerateWindow(KwsflowError):
    """Window is all zeros."""


class SignalTooShort(KwsflowError):
    """Signal shorter than one analysis frame."""


class DimensionMismatch(KwsflowError):
    """Operand shapes do not agree."""


class NegativeInput(KwsflowError):
    """Mel map requires non-negative frequency or mel value."""


class TooManyFilters(KwsflowError):
    """More mel filters than usable spectrum bins."""


class InvalidSize(KwsflowError):
    """FFT size not in the supported set."""


class ZeroReference(KwsflowError):
    """Reference spectrogram has zero norm."""


class NoFeasiblePoint(KwsflowError):
    """No candidate satisfies the selection criterion."""


class DegenerateInput(KwsflowError):
    """Corpus energy below the measurable floor."""


class ConfigInvalid(KwsflowError, ValueError):
    """A configuration failed validation."""


class ConfigMismatch(KwsflowError):
    """Checkpoint was produced under a different configuration."""


class CheckpointCorrupt(KwsflowError):
    """Checkpoint file is unreadable or truncated."""


class ScriptExhausted(KwsflowError):
    """Scripted reasoner has no entry for this (stage, iteration)."""


class ScenarioExhausted(KwsflowError):
    """Mock adapter scenario has no report for this call."""


class SchemaViolation(KwsflowError):
    """Remote reasoner response does not match the expected schema."""


class RemoteProtocolError(KwsflowError):
    """Remote reasoner endpoint failed after bounded retries."""


# each Rule kind: the type a value must have, and how a message names it
_KINDS = {str: (str, "a nonempty string"), "text": (str, "a string"), list: (list, "a list"),
          dict: (dict, "an object"), int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number")}


@dataclass(frozen=True)
class Rule:
    """What one config key takes: a value of kind str, "text" (a str, maybe
    empty), list, dict, int or float, never a bool.  A str is nonempty; a dict
    (an object) is checked against the fields table if given; a number is
    finite and in lo..hi.  With allowed set, only those values pass; with
    each set, only a list whose items or an object whose values it admits."""

    kind: type | str
    lo: float = -math.inf
    hi: float = math.inf
    allowed: tuple = ()
    required: bool = False
    fields: dict | None = None
    each: "Rule | None" = None

    def admits(self, v) -> bool:
        if not isinstance(v, _KINDS[self.kind][0]) or isinstance(v, bool) or (self.kind is str and not v):
            return False
        if self.kind in (int, float) and not (-math.inf < v < math.inf and self.lo <= v <= self.hi):
            return False  # -inf < v < inf is false for NaN too
        if self.each is not None and not all(map(self.each.admits, v.values() if self.kind is dict else v)):
            return False
        return not self.allowed or v in self.allowed

    def __str__(self) -> str:
        bounds = " and ".join(f"{op} {b}" for op, b in ((">=", self.lo), ("<=", self.hi)) if math.isfinite(b))
        text = f"one of {self.allowed}" if self.allowed else f"{_KINDS[self.kind][1]} {bounds}".rstrip()
        return text if self.each is None else f"{text} whose every item is {self.each}"


POSITIVE = Rule(float, lo=math.ulp(0.0))  # the least positive float: any number > 0


def check_fields(obj, rules: dict[str, Rule], where: str) -> dict:
    """obj, if it is an object with every required key of rules and no other
    keys, each value admitted by its rule; ConfigInvalid naming the key if not."""
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{where} must be an object, got {obj!r}")
    if not obj.keys() <= rules.keys():
        unknown = sorted(map(str, obj.keys() - rules.keys()))
        raise ConfigInvalid(f"unknown {where} key(s) {unknown}; known: {sorted(rules)}")
    if any(rule.required and k not in obj for k, rule in rules.items()):
        missing = [k for k, rule in rules.items() if rule.required and k not in obj]
        raise ConfigInvalid(f"{where} requires {missing}")
    for key, value in obj.items():
        rule = rules[key]
        if rule.fields is not None:
            check_fields(value, rule.fields, f"{where}.{key}")
        elif not rule.admits(value):
            raise ConfigInvalid(f"{where} must be an object whose {key} is {rule}, got {value!r}")
    return obj
