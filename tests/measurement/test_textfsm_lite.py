"""Unit tests for the from-scratch textfsm-lite engine (§5.7)."""

import pytest

from repro.exceptions import TemplateParseError
from repro.measurement import TextFsm, parse

BASIC = """\
Value HOP (\\d+)
Value ADDRESS (\\d+\\.\\d+\\.\\d+\\.\\d+)

Start
  ^\\s*${HOP}\\s+${ADDRESS} -> Record
"""


class TestTemplateCompilation:
    def test_header_order(self):
        fsm = TextFsm(BASIC)
        assert fsm.header() == ["HOP", "ADDRESS"]

    def test_missing_start_state(self):
        with pytest.raises(TemplateParseError, match="Start"):
            TextFsm("Value X (\\d+)\n\nOther\n  ^${X} -> Record\n")

    def test_no_values(self):
        with pytest.raises(TemplateParseError, match="no Values"):
            TextFsm("\nStart\n  ^x\n")

    def test_bad_value_line(self):
        with pytest.raises(TemplateParseError, match="bad Value"):
            TextFsm("Value X \\d+\n\nStart\n  ^a\n")

    def test_unknown_value_option(self):
        with pytest.raises(TemplateParseError, match="unknown Value option"):
            TextFsm("Value Sticky X (\\d+)\n\nStart\n  ^${X}\n")

    def test_undeclared_value_in_rule(self):
        with pytest.raises(TemplateParseError, match="undeclared"):
            TextFsm("Value X (\\d+)\n\nStart\n  ^${Y} -> Record\n")

    def test_undeclared_named_group_in_rule(self):
        with pytest.raises(TemplateParseError, match="undeclared named group 'Y'"):
            TextFsm("Value X (\\d+)\n\nStart\n  ^(?P<Y>a) ${X} -> Record\n")

    def test_rule_must_start_with_caret(self):
        with pytest.raises(TemplateParseError, match="must start"):
            TextFsm("Value X (\\d+)\n\nStart\n  ${X} -> Record\n")

    def test_bad_action(self):
        with pytest.raises(TemplateParseError, match="bad action"):
            TextFsm("Value X (\\d+)\n\nStart\n  ^${X} -> Bogus.Thing\n")

    def test_continue_cannot_change_state(self):
        with pytest.raises(TemplateParseError, match="Continue"):
            TextFsm("Value X (\\d+)\n\nStart\n  ^${X} -> Continue Other\nOther\n  ^x\n")


class TestParsing:
    def test_basic_records(self):
        rows = TextFsm(BASIC).parse_text(" 1  10.0.0.1\n 2  10.0.0.5\n")
        assert rows == [["1", "10.0.0.1"], ["2", "10.0.0.5"]]

    def test_parse_to_dicts(self):
        rows = parse(BASIC, " 3  10.0.0.9\n")
        assert rows == [{"HOP": "3", "ADDRESS": "10.0.0.9"}]

    def test_non_matching_lines_skipped(self):
        rows = TextFsm(BASIC).parse_text("header junk\n 1  10.0.0.1\ntrailer\n")
        assert len(rows) == 1

    def test_filldown(self):
        template = (
            "Value Filldown GROUP (\\w+)\n"
            "Value ITEM (\\d+)\n\n"
            "Start\n"
            "  ^group ${GROUP}\n"
            "  ^item ${ITEM} -> Record\n"
        )
        rows = parse(template, "group alpha\nitem 1\nitem 2\ngroup beta\nitem 3\n")
        assert rows == [
            {"GROUP": "alpha", "ITEM": "1"},
            {"GROUP": "alpha", "ITEM": "2"},
            {"GROUP": "beta", "ITEM": "3"},
        ]

    def test_required_suppresses_partial_rows(self):
        template = (
            "Value Required ADDRESS (\\d+\\.\\d+\\.\\d+\\.\\d+)\n"
            "Value NAME (\\w+)\n\n"
            "Start\n"
            "  ^${NAME}$$ -> Record\n"
            "  ^${NAME} ${ADDRESS} -> Record\n"
        )
        rows = parse(template, "onlyname\nhost 10.0.0.1\n")
        assert rows == [{"NAME": "host", "ADDRESS": "10.0.0.1"}]

    def test_list_values_accumulate(self):
        template = (
            "Value NAME (\\w+)\n"
            "Value List MEMBERS (\\w+)\n\n"
            "Start\n"
            "  ^group ${NAME}\n"
            "  ^member ${MEMBERS}\n"
            "  ^end -> Record\n"
        )
        rows = parse(template, "group g1\nmember a\nmember b\nend\n")
        assert rows == [{"NAME": "g1", "MEMBERS": ["a", "b"]}]

    def test_state_transition(self):
        template = (
            "Value X (\\d+)\n\n"
            "Start\n"
            "  ^BEGIN -> Data\n"
            "Data\n"
            "  ^x=${X} -> Record\n"
        )
        rows = parse(template, "x=1\nBEGIN\nx=2\n")
        assert rows == [{"X": "2"}]

    def test_eof_state_stops_parsing(self):
        template = (
            "Value X (\\d+)\n\n"
            "Start\n"
            "  ^x=${X} -> Record\n"
            "  ^STOP -> EOF\n"
        )
        rows = parse(template, "x=1\nSTOP\nx=2\n")
        assert rows == [{"X": "1"}]

    def test_implicit_eof_records_partial_row(self):
        template = "Value X (\\d+)\n\nStart\n  ^x=${X}\n"
        rows = parse(template, "x=9\n")
        assert rows == [{"X": "9"}]

    def test_continue_runs_multiple_rules_on_one_line(self):
        template = (
            "Value A (\\d+)\n"
            "Value B (\\d+)\n\n"
            "Start\n"
            "  ^${A}- -> Continue\n"
            "  ^\\d+-${B} -> Record\n"
        )
        rows = parse(template, "12-34\n")
        assert rows == [{"A": "12", "B": "34"}]

    def test_clear_action(self):
        template = (
            "Value X (\\d+)\n\n"
            "Start\n"
            "  ^reset -> Clear\n"
            "  ^x=${X}\n"
            "  ^done -> Record\n"
        )
        rows = parse(template, "x=5\nreset\ndone\n")
        assert rows == []

    def test_error_action_raises(self):
        template = "Value X (\\d+)\n\nStart\n  ^bad -> Error\n  ^x=${X} -> Record\n"
        with pytest.raises(TemplateParseError, match="Error action"):
            parse(template, "bad\n")

    def test_empty_columns_for_unset_values(self):
        template = (
            "Value A (\\d+)\n"
            "Value B (\\d+)\n\n"
            "Start\n"
            "  ^a=${A} -> Record\n"
        )
        fsm = TextFsm(template)
        assert fsm.parse_text("a=1\n") == [["1", ""]]

    def test_reuse_across_parses(self):
        fsm = TextFsm(BASIC)
        assert fsm.parse_text(" 1  10.0.0.1\n")
        assert fsm.parse_text(" 2  10.0.0.2\n") == [["2", "10.0.0.2"]]
