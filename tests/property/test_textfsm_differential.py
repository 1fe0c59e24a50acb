"""Differential test: the precompiled textfsm-lite loop ≡ the original one.

``OracleTextFsm`` (``tests/measurement/textfsm_oracle.py``) keeps the
row loop :class:`~repro.measurement.TextFsm` used before it precompiled
the per-value options and the record bookkeeping.  Both share template
compilation, so every input below runs the same rules through the two
loops: the six bundled templates over lines the emulated VMs really
print (shuffled, repeated, mixed with noise), and generated templates
that use Filldown, Required and List values, ``Continue``, ``Clear``,
``Error`` and state changes (``EOF`` included) over generated text.
Rows — as lists and as dicts — or the raised error must be equal.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import TemplateParseError
from repro.measurement import TEMPLATES, TextFsm
from tests.measurement.textfsm_oracle import OracleTextFsm

COMMANDS = [
    "traceroute -n 192.168.1.1",
    "ping -c 3 192.168.1.1",
    "show ip ospf neighbor",
    "show ip bgp summary",
    "show ip bgp",
    "show ip route",
]


def _outcome(fsm: TextFsm, text: str):
    try:
        return ("rows", fsm.parse_text(text), fsm.parse_text_to_dicts(text))
    except TemplateParseError as exc:
        return ("error", str(exc))


def _both(template: str, text: str):
    return _outcome(TextFsm(template), text), _outcome(OracleTextFsm(template), text)


@pytest.fixture(scope="module")
def vm_lines(si_lab):
    """Every line a few Small-Internet VMs print for the bundled commands."""
    lines = set()
    for machine in ("as100r1", "as20r2", "as300r3", "as1r1"):
        vm = si_lab.vm(machine)
        for address in ("192.168.1.1", str(si_lab.vm("as40r1").intent.loopback)):
            for command in COMMANDS:
                lines.update(vm.run(command.replace("192.168.1.1", address)).splitlines())
    return sorted(lines)


_noise = st.text(alphabet=" .0123456789abBCOS*>()/-:\t", max_size=40)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(sorted(TEMPLATES)))
def test_bundled_templates_equal_the_oracle(vm_lines, data, kind):
    lines = data.draw(st.lists(st.one_of(st.sampled_from(vm_lines), _noise), max_size=30))
    new, old = _both(TEMPLATES[kind], "\n".join(lines))
    assert new == old


_OPTIONS = [
    [], [], [], ["Filldown"], ["List"], ["Required"],
    ["Filldown", "Required"], ["List", "Required"], ["Filldown", "List"],
]
#: value regex -> tokens it matches
_REGEXES = {
    "\\S+": ["1", "x", "q9", "a.b"],
    "\\w+": ["22", "yz", "q9"],
    "\\d+": ["1", "22"],
    "[a-z]+": ["x", "yz"],
    "[a-z]\\d": ["q9"],
}
_WORDS = ["a", "b", "c", "d", ""]


@st.composite
def cases(draw):
    """A generated template and text made mostly of lines its rules match."""
    count = draw(st.integers(min_value=1, max_value=4))
    regexes = {}
    lines = []
    for index in range(count):
        name = "V%d" % index
        regexes[name] = draw(st.sampled_from(sorted(_REGEXES)))
        options = draw(st.sampled_from(_OPTIONS))
        prefix = "Value %s" % ",".join(options) if options else "Value"
        lines.append("%s %s (%s)" % (prefix, name, regexes[name]))
    lines.append("")
    states = ["Start"] + ["S%d" % index for index in
                          range(draw(st.integers(min_value=0, max_value=2)))]
    targets = states + ["EOF", "Nowhere"]
    shapes = []  # (head word, captured names) of every rule
    for state in states:
        lines.append(state)
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            names = sorted(draw(st.sets(st.sampled_from(sorted(regexes)), max_size=3)))
            head = draw(st.sampled_from(_WORDS if names else _WORDS[:-1]))
            shapes.append((head, names))
            pattern = "^" + head + "".join("\\s*${%s}" % name for name in names)
            line_op = draw(st.sampled_from(["", "Next", "Continue"]))
            record_op = draw(st.sampled_from(
                ["", "Record", "Record", "Record", "NoRecord", "Clear", "Error"]
            ))
            action = line_op or record_op
            if line_op and record_op:
                action = "%s.%s" % (line_op, record_op)
            if line_op != "Continue" and draw(st.integers(0, 2)) == 0:
                action = ("%s %s" % (action, draw(st.sampled_from(targets)))).strip()
            lines.append("  %s -> %s" % (pattern, action) if action else "  " + pattern)
    template = "\n".join(lines) + "\n"

    text = []
    for _ in range(draw(st.integers(min_value=2, max_value=16))):
        if draw(st.integers(0, 4)) == 0:  # noise
            text.append(" ".join(draw(st.lists(st.sampled_from(["z", "7", "b", "x"]),
                                               max_size=3))))
            continue
        head, names = draw(st.sampled_from(shapes))
        tokens = [draw(st.sampled_from(_REGEXES[regexes[name]])) for name in names]
        text.append(" ".join([head] + tokens).strip())
    return template, "\n".join(text)


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_generated_templates_equal_the_oracle(case):
    template, text = case
    new, old = _both(template, text)
    assert new == old


_EVERY_BRANCH = (
    "Value Filldown,Required V0 (\\d+)\nValue List V1 ([a-z]+)\nValue V2 (\\S+)\n\n"
    "Start\n  ^a\\s*${V0} -> Continue\n  ^a\\s*${V1} -> Continue.Record\n"
    "  ^b -> Clear S1\nS1\n  ^c\\s*${V2} -> Record Start\n  ^d -> EOF\n"
)


def test_one_template_through_every_branch():
    text = "a 1\na x\nb\nc zz\na 2\nb\nd\na 3\n"
    new, old = _both(_EVERY_BRANCH, text)
    assert new == old
    assert new == (
        "rows",
        [["1", ["x"], ""], ["1", [], "zz"]],
        [{"V0": "1", "V1": ["x"], "V2": ""}, {"V0": "1", "V1": [], "V2": "zz"}],
    )
