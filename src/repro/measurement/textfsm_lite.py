"""textfsm-lite: a from-scratch template-based text parser (§5.7).

The paper parses measurement output with Google's TextFSM.  This module
implements the subset of the TextFSM template language the measurement
system needs, from scratch:

* ``Value [Filldown,Required,List] NAME (regex)`` declarations;
* named states with ordered rules (``Start`` required, ``EOF`` optional);
* rule actions: ``Record``, ``NoRecord``, ``Clear``, ``Error``, line
  operations ``Next`` (default) and ``Continue``, combined forms such
  as ``Continue.Record``, and state transitions (``-> Record Done``);
* implicit end-of-input record of a partially filled row.

Templates look exactly like TextFSM's::

    Value HOP (\\d+)
    Value ADDRESS (\\d+\\.\\d+\\.\\d+\\.\\d+)

    Start
      ^\\s*${HOP}\\s+${ADDRESS} -> Record
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.exceptions import TemplateParseError

_VALUE_LINE = re.compile(r"^Value(?:\s+(?P<options>[A-Za-z,]+))?\s+(?P<name>\w+)\s+\((?P<regex>.*)\)\s*$")
_KNOWN_OPTIONS = {"Filldown", "Required", "List"}
_RECORD_OPS = {"Record", "NoRecord", "Clear", "Error"}
_LINE_OPS = {"Next", "Continue"}


@dataclass
class ValueDef:
    name: str
    regex: str
    filldown: bool = False
    required: bool = False
    is_list: bool = False


@dataclass
class Rule:
    pattern: re.Pattern
    line_op: str = "Next"
    record_op: str = "NoRecord"
    new_state: str | None = None


class TextFsm:
    """A compiled template, reusable across many parses."""

    def __init__(self, template: str):
        self.values: list[ValueDef] = []
        self.states: dict[str, list[Rule]] = {}
        self._parse_template(template)
        if "Start" not in self.states:
            raise TemplateParseError("template has no Start state")
        # name -> (is_list, filldown): what a capture does, by name
        self._options = {
            value.name: (value.is_list, value.filldown) for value in self.values
        }
        self._filldown_names = frozenset(
            value.name for value in self.values if value.filldown
        )
        self._required = tuple(value.name for value in self.values if value.required)
        self._lists = tuple(value.name for value in self.values if value.is_list)
        # an empty row in Value order; List columns get a fresh list per row
        self._blank = {value.name: "" for value in self.values}

    # -- template compilation ----------------------------------------------
    def _parse_template(self, template: str) -> None:
        lines = template.splitlines()
        index = 0
        # Value declarations up to the first blank line (or the first
        # non-Value line, which starts the state section).
        while index < len(lines):
            line = lines[index]
            index += 1
            if not line.strip():
                if self.values:
                    break
                continue
            if line.startswith("#"):
                continue
            match = _VALUE_LINE.match(line)
            if match is None:
                if not line.startswith("Value"):
                    index -= 1  # state section begins here
                    break
                raise TemplateParseError("bad Value line: %r" % line)
            options = (match.group("options") or "").split(",")
            options = [option for option in options if option]
            unknown = set(options) - _KNOWN_OPTIONS
            if unknown:
                raise TemplateParseError("unknown Value options: %s" % ", ".join(unknown))
            self.values.append(
                ValueDef(
                    name=match.group("name"),
                    regex=match.group("regex"),
                    filldown="Filldown" in options,
                    required="Required" in options,
                    is_list="List" in options,
                )
            )
        if not self.values:
            raise TemplateParseError("template declares no Values")

        current_state = None
        for line in lines[index:]:
            if not line.strip() or line.strip().startswith("#"):
                continue
            if not line[0].isspace():
                current_state = line.strip()
                if not re.match(r"^\w+$", current_state):
                    raise TemplateParseError("bad state name %r" % current_state)
                self.states[current_state] = []
                continue
            if current_state is None:
                raise TemplateParseError("rule before any state: %r" % line)
            self.states[current_state].append(self._compile_rule(line.strip()))

    def _compile_rule(self, text: str) -> Rule:
        if not text.startswith("^"):
            raise TemplateParseError("rules must start with ^: %r" % text)
        pattern_text, action_text = text, ""
        if " -> " in text:
            pattern_text, action_text = text.split(" -> ", 1)
        substituted = pattern_text
        for value in self.values:
            substituted = substituted.replace(
                "${%s}" % value.name, "(?P<%s>%s)" % (value.name, value.regex)
            )
            substituted = substituted.replace(
                "$%s" % value.name, "(?P<%s>%s)" % (value.name, value.regex)
            )
        leftover = re.search(r"\$\{(\w+)\}", substituted)
        if leftover:
            raise TemplateParseError("undeclared value %r in rule" % leftover.group(1))
        try:
            pattern = re.compile(substituted)
        except re.error as exc:
            raise TemplateParseError("bad rule regex %r: %s" % (substituted, exc)) from exc
        declared = {value.name for value in self.values}
        stray = sorted(set(pattern.groupindex) - declared)
        if stray:
            raise TemplateParseError("undeclared named group %r in rule" % stray[0])

        rule = Rule(pattern=pattern)
        action = action_text.strip()
        if action:
            head, _, state = action.partition(" ")
            if "." in head:
                line_op, _, record_op = head.partition(".")
                if line_op not in _LINE_OPS or record_op not in _RECORD_OPS:
                    raise TemplateParseError("bad action %r" % action)
                rule.line_op, rule.record_op = line_op, record_op
            elif head in _LINE_OPS:
                rule.line_op = head
            elif head in _RECORD_OPS:
                rule.record_op = head
            elif head:
                # Bare state transition.
                state = ("%s %s" % (head, state)).strip()
            if state:
                if rule.line_op == "Continue":
                    raise TemplateParseError("Continue cannot change state: %r" % action)
                rule.new_state = state.strip()
        return rule

    # -- parsing -------------------------------------------------------------
    def header(self) -> list[str]:
        return [value.name for value in self.values]

    def parse_text(self, text: str) -> list[list]:
        """Parse input text into rows (lists in Value order)."""
        return [list(row.values()) for row in self._rows(text)]

    def parse_text_to_dicts(self, text: str) -> list[dict]:
        """Parse input text into rows (dicts keyed in Value order)."""
        return self._rows(text)

    def _rows(self, text: str) -> list[dict]:
        rows: list[dict] = []
        current: dict = {}
        filldown: dict = {}
        options = self._options
        states = self.states
        state = "Start"
        rules = states["Start"]
        for line in text.splitlines():
            if state == "EOF":
                break
            for rule in rules:
                match = rule.pattern.search(line)
                if match is None:
                    continue
                for name, captured in match.groupdict().items():
                    if captured is None:
                        continue
                    is_list, is_filldown = options[name]
                    if is_list:
                        current.setdefault(name, []).append(captured)
                    else:
                        current[name] = captured
                        if is_filldown:
                            filldown[name] = captured
                record_op = rule.record_op
                if record_op == "Record":
                    self._record(rows, current, filldown)
                    current.clear()
                elif record_op == "Clear":
                    current.clear()
                elif record_op == "Error":
                    raise TemplateParseError("Error action hit on line %r" % line)
                if rule.new_state is not None:
                    state = rule.new_state
                    rules = states.get(state, ())
                if rule.line_op != "Continue":
                    break  # Next: move to the following line
        if state != "EOF":
            # Implicit EOF: record a partially assembled row.
            self._record(rows, current, filldown)
        return rows

    def _record(self, rows: list, current: dict, filldown: dict) -> None:
        # A row needs at least one freshly captured non-Filldown value;
        # otherwise end-of-input would emit a residual row holding only
        # carried-over Filldown state.
        if current.keys() <= self._filldown_names:
            return
        for name in self._required:
            if name not in current and name not in filldown:
                return
        row = dict(self._blank)
        row.update(filldown)
        row.update(current)
        for name in self._lists:
            if name not in current:
                row[name] = []
        rows.append(row)


def parse(template: str, text: str) -> list[dict]:
    """One-shot convenience: compile and parse to dicts."""
    return TextFsm(template).parse_text_to_dicts(text)
