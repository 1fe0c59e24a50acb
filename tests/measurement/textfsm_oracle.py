"""The textfsm-lite row loop as it was before the precompiled one.

Kept verbatim as the differential oracle for
``tests/property/test_textfsm_differential.py``: it re-derives every
value's options by a linear search on each capture and re-scans all
values on every record, which is the obviously-correct reading of the
template language the fast :class:`~repro.measurement.TextFsm` must
reproduce row for row.
"""

from __future__ import annotations

from repro.exceptions import TemplateParseError
from repro.measurement.textfsm_lite import TextFsm


class OracleTextFsm(TextFsm):
    """Same template compilation; the original text loop."""

    def parse_text(self, text: str) -> list[list]:
        """Parse input text into rows (lists in Value order)."""
        rows: list[list] = []
        current: dict = {}
        filldown: dict = {}
        state = "Start"

        def record() -> None:
            merged = dict(filldown)
            merged.update(current)
            # A row needs at least one freshly captured non-Filldown
            # value; otherwise end-of-input would emit a residual row
            # holding only carried-over Filldown state.
            fresh = any(
                value.name in current and not value.filldown for value in self.values
            )
            if not fresh:
                return
            for value in self.values:
                if value.required and value.name not in merged:
                    return
            rows.append(
                [
                    merged.get(value.name, [] if value.is_list else "")
                    for value in self.values
                ]
            )

        def clear() -> None:
            current.clear()

        for line in text.splitlines():
            if state == "EOF":
                break
            rule_index = 0
            state_rules = self.states.get(state, [])
            while rule_index < len(state_rules):
                rule = state_rules[rule_index]
                match = rule.pattern.search(line)
                if match is None:
                    rule_index += 1
                    continue
                for name, captured in match.groupdict().items():
                    if captured is None:
                        continue
                    value_def = next(v for v in self.values if v.name == name)
                    if value_def.is_list:
                        current.setdefault(name, []).append(captured)
                    else:
                        current[name] = captured
                        if value_def.filldown:
                            filldown[name] = captured
                if rule.record_op == "Record":
                    record()
                    clear()
                elif rule.record_op == "Clear":
                    clear()
                elif rule.record_op == "Error":
                    raise TemplateParseError("Error action hit on line %r" % line)
                if rule.new_state is not None:
                    state = rule.new_state
                if rule.line_op == "Continue":
                    rule_index += 1
                    continue
                break  # Next: move to the following line
        if state != "EOF":
            # Implicit EOF: record a partially assembled row.
            record()
        return rows

    def parse_text_to_dicts(self, text: str) -> list[dict]:
        header = self.header()
        return [dict(zip(header, row)) for row in self.parse_text(text)]

