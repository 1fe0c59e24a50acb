"""Command-line interface: the whole workflow from a shell.

The original system is driven as a console tool; this module exposes
the same stages as subcommands::

    repro info      topology.graphml            # overlay summaries
    repro build     topology.graphml -o out/    # design + compile + render
    repro verify    topology.graphml            # static checks + stability
    repro deploy    topology.graphml            # ... + boot the emulation
    repro measure   topology.graphml -c "traceroute -naU 192.168.0.1" -H r1 r2
    repro visualize topology.graphml --overlay ebgp -o view.html
    repro whatif    topology.graphml --fail-link r1 r2 --fail-node r9
    repro chaos     topology.graphml --schedule incidents.fault
    repro diff      before.graphml after.graphml
    repro campaign  run spec.json -j4           # a whole experiment matrix
    repro campaign  status spec.json            # completed / failed / pending
    repro campaign  report results_dir/         # cross-trial tables
    repro traffic   run --topology nren --profile ramp.json --seed 7

Every subcommand accepts a GraphML/GML/JSON topology path or one of the
built-in topology names (``small_internet``, ``fig5``, ``bad_gadget``,
``nren``).

Every run records into a :class:`~repro.observability.Telemetry`; the
observability flags work on all subcommands:

* ``--trace out.jsonl`` — write the full run record as JSON lines;
* ``--chrome-trace out.json`` — write a Chrome ``trace_event`` file;
* ``--metrics`` — print the metrics registry after the command;
* ``--timings`` — print the span timing tree after the command;
* ``--quiet`` — suppress normal output (exit code still reports);
* ``--json`` — machine-readable: one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.design import DEFAULT_RULES
from repro.exceptions import ReproError, TerminationRequested
from repro.observability import INFO, Telemetry


class CliOutput:
    """Routes all CLI output: console text, structured events, JSON.

    Every message goes into the telemetry's event log; the console copy
    is suppressed by ``--quiet``/``--json``.  In ``--json`` mode the
    structured payload accumulated by the handlers (plus metrics and
    phase timings) is printed as one document at the end.
    """

    def __init__(self, telemetry: Telemetry, command: str,
                 quiet: bool = False, json_mode: bool = False):
        self.telemetry = telemetry
        self.command = command
        self.quiet = quiet
        self.json_mode = json_mode
        self.payload: dict = {"command": command}

    @property
    def console(self) -> bool:
        return not self.quiet and not self.json_mode

    def emit(self, message: str, **fields) -> None:
        """An output line: event-logged always, printed in console mode."""
        self.telemetry.events.emit(INFO, self.command, message, **fields)
        if self.console:
            print(message)

    def progress(self, event) -> None:
        """Deployment ProgressEvent callback (monitor already logs it)."""
        if self.console:
            print(event)

    def result(self, **data) -> None:
        """Merge structured results into the ``--json`` payload."""
        self.payload.update(data)

    def finish(self, exit_code: int) -> None:
        if self.json_mode:
            self.payload["exit_code"] = exit_code
            self.payload["metrics"] = self.telemetry.metrics.snapshot()
            root = self.telemetry.root_span()
            if root is not None:
                self.payload["timings"] = {
                    child.name: child.duration for child in root.children
                }
            print(json.dumps(self.payload, indent=2, default=str))


def _load(source: str):
    from repro.loader import BUILTIN_TOPOLOGIES, builtin_topology
    from repro.workflow import load_topology

    if source in BUILTIN_TOPOLOGIES:
        return builtin_topology(source)
    return load_topology(source)


# -- shared option groups ----------------------------------------------------
def _add_topology_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("topology", help="topology file or built-in name")
    parser.add_argument(
        "--platform",
        default="netkit",
        choices=["netkit", "dynagen", "junosphere", "cbgp"],
    )
    parser.add_argument(
        "--rules",
        nargs="+",
        default=list(DEFAULT_RULES),
        help="design rules to apply (default: %(default)s)",
    )
    parser.add_argument("-o", "--output", default=None, help="output directory")


def _add_resilience_options(
    parser: argparse.ArgumentParser, strict_default: bool = True
) -> None:
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=strict_default,
        help="--no-strict quarantines failed-parse devices instead of "
        "aborting the boot (default: %s)"
        % ("strict" if strict_default else "no-strict"),
    )
    resilience.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry transient deploy/measure errors up to N times "
        "(default 0: fail fast)",
    )
    resilience.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole command; it also bounds "
        "each retry loop and each per-host measurement (default: "
        "unlimited)",
    )


def _add_observability_options(
    parser: argparse.ArgumentParser, include_profiler: bool = True
) -> None:
    observability = parser.add_argument_group("observability")
    observability.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the run's spans/metrics/events as JSON lines",
    )
    observability.add_argument(
        "--chrome-trace", default=None, metavar="PATH",
        help="write the run's spans in Chrome trace_event format",
    )
    if include_profiler:
        # `repro traffic` claims --profile for its workload spec, so it
        # opts out of the profiler flags
        observability.add_argument(
            "--profile", nargs="?", const="profile", default=None,
            metavar="PREFIX",
            help="profile the command: print per-span and hot-function "
            "tables, write collapsed stacks to PREFIX.collapsed "
            "(default prefix: 'profile')",
        )
        observability.add_argument(
            "--profile-interval", type=float, default=0.001, metavar="SECONDS",
            help="sampling interval for the stack sampler (default 1ms)",
        )
    observability.add_argument(
        "--metrics", action="store_true",
        help="print the metrics registry after the command",
    )
    observability.add_argument(
        "--timings", action="store_true",
        help="print the span timing tree after the command",
    )
    observability.add_argument(
        "--quiet", action="store_true", help="suppress normal output"
    )
    observability.add_argument(
        "--json", action="store_true", dest="json_mode",
        help="print one machine-readable JSON document instead of text",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_topology_options(parser)
    _add_resilience_options(parser)
    _add_observability_options(parser)


def _add_emulation_options(sub: argparse.ArgumentParser) -> None:
    """Boot knobs shared by the deploy-family commands."""
    emulation = sub.add_argument_group("emulation")
    emulation.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="fan config parsing and per-VM bring-up over N workers "
        "(default 1: serial)",
    )


# -- per-subcommand extras ---------------------------------------------------
def _add_build_options(sub: argparse.ArgumentParser) -> None:
    engine_group = sub.add_argument_group("build engine")
    engine_group.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="render cache misses over N worker processes (default 1: serial)",
    )
    engine_group.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persist the artifact cache here across invocations",
    )
    engine_group.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed artifact cache",
    )
    engine_group.add_argument(
        "--incremental", action="store_true",
        help="reuse the previous build recorded in --cache-dir and "
        "prune outputs of devices that left the topology",
    )


def _add_measure_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-c", "--command", required=True, dest="measure_command")
    sub.add_argument(
        "-H", "--hosts", nargs="+", default=None, help="machines to run on"
    )
    traffic = sub.add_argument_group("traffic")
    traffic.add_argument(
        "--traffic", default=None, metavar="PROFILE", dest="traffic_profile",
        help="also offer this traffic profile (JSON path) to the lab and "
        "report per-class latency percentiles",
    )
    traffic.add_argument(
        "--traffic-seed", type=int, default=0, metavar="N",
        help="seed for the traffic engine's workload generators (default 0)",
    )


def _add_visualize_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--overlay", default="phy")


def _add_diff_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("topology_b", help="second topology file or built-in name")
    plan = sub.add_argument_group("live update")
    plan.add_argument(
        "--plan", action="store_true", dest="diff_plan",
        help="emit a structured DiffPlan of per-device change commands "
        "(diffed from the rendered config trees) instead of the NIDB "
        "device diff",
    )
    plan.add_argument(
        "--plan-out", default=None, metavar="FILE",
        help="write the DiffPlan as canonical JSON to FILE (implies --plan)",
    )


def _add_apply_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "topology_b", nargs="?", default=None,
        help="target topology file or built-in name (or use --delta)",
    )
    live = sub.add_argument_group("live update")
    live.add_argument(
        "--delta", default=None, metavar="EDITS",
        help="design edits as a JSON file or inline JSON list "
        "(e.g. '[{\"kind\": \"cost\", \"link\": [\"r1\", \"r2\"], "
        "\"value\": 20}]'); the target design is the source topology "
        "with these edits applied",
    )
    live.add_argument(
        "--live", action="store_true",
        help="boot the source design and apply the plan against the "
        "running lab (default: dry run, print the plan only)",
    )
    live.add_argument(
        "--verify", action="store_true",
        help="after applying, boot the target design fresh and check the "
        "live lab is equivalent (routes, fabric, verdict); "
        "implies --live",
    )
    live.add_argument(
        "--rollback", action="store_true",
        help="after applying (and verifying), apply the inverse plan and "
        "check the original state is restored; implies --live",
    )
    live.add_argument(
        "--journal", default=None, metavar="DIR", dest="journal_dir",
        help="write-ahead journal each operation into DIR (checkpointed "
        "on interrupt, campaign journal format)",
    )
    live.add_argument(
        "--apply-deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the live apply itself (the common "
        "--deadline bounds the whole command instead)",
    )
    live.add_argument(
        "--plan-out", default=None, metavar="FILE",
        help="write the DiffPlan as canonical JSON to FILE",
    )


def _add_whatif_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--fail-link",
        nargs=2,
        action="append",
        metavar=("SRC", "DST"),
        default=[],
        help="fail the link between two machines (repeatable)",
    )
    sub.add_argument(
        "--fail-node",
        action="append",
        default=[],
        help="power a machine off (repeatable)",
    )


def _add_chaos_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--schedule", default=None, metavar="PATH",
        help="fault schedule file ('at <round> <kind> <targets>' per line)",
    )
    sub.add_argument(
        "--event", action="append", default=[], metavar="SPEC",
        help="inline schedule line, e.g. 'at 2 link_down r1 r2' (repeatable)",
    )


def _add_campaign_options(sub: argparse.ArgumentParser) -> None:
    """The campaign subcommand has its own shape: no single topology."""
    sub.add_argument(
        "action", choices=["run", "status", "report"],
        help="run the pending trials, show progress, or aggregate results",
    )
    sub.add_argument(
        "spec",
        help="campaign spec JSON; status/report also accept a campaign "
        "results directory",
    )
    sub.add_argument(
        "-o", "--campaign-dir", default=None, metavar="PATH",
        help="results directory (default: the spec's 'directory', else "
        "<name>.campaign in the working directory)",
    )
    runner = sub.add_argument_group("runner")
    runner.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="trials to execute in parallel (default 1: inline; above 1: "
        "one process pool)",
    )
    runner.add_argument(
        "--shard", default=None, metavar="I/N",
        help="run only shard I of N (deterministic slice of the matrix)",
    )
    runner.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="shared artifact cache (default: <campaign-dir>/cache)",
    )
    runner.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="execute at most N pending trials this invocation",
    )
    runner.add_argument(
        "--retry-failed", action="store_true",
        help="re-execute trials whose last record is a failure",
    )
    runner.add_argument(
        "--trial-deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per trial; an overrunning trial is "
        "abandoned and recorded as timed_out (default: the spec's "
        "trial_deadline_s, else unlimited)",
    )
    runner.add_argument(
        "--stall-after", type=float, default=None, metavar="SECONDS",
        help="watchdog window per trial: a trial silent (no supervision "
        "checkpoints) for this long is reaped (default: the spec's "
        "stall_after_s, else off)",
    )
    runner.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry transient per-trial errors up to N times",
    )
    runner.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="--strict exits non-zero when any executed trial failed "
        "(default: quarantine failures and exit 0)",
    )
    report = sub.add_argument_group("report")
    report.add_argument(
        "--format", default="markdown", dest="report_format",
        choices=["markdown", "csv", "json"],
        help="report output format (default: markdown)",
    )
    report.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="compare against another campaign's index and flag regressions",
    )
    _add_observability_options(sub)


def _add_traffic_options(sub: argparse.ArgumentParser) -> None:
    """`repro traffic` drives a workload profile over a deployed lab.

    Wires itself fully: the topology is a flag (not a positional) and
    ``--profile`` means the *traffic* profile, so the profiler flags are
    omitted.
    """
    sub.add_argument(
        "action", choices=["run", "show"],
        help="run the profile against the topology, or just print the "
        "parsed profile",
    )
    sub.add_argument(
        "--topology", required=True,
        help="topology file or built-in name",
    )
    sub.add_argument(
        "--platform",
        default="netkit",
        choices=["netkit", "dynagen", "junosphere", "cbgp"],
    )
    sub.add_argument(
        "--rules",
        nargs="+",
        default=list(DEFAULT_RULES),
        help="design rules to apply (default: %(default)s)",
    )
    sub.add_argument("-o", "--output", default=None, help="output directory")
    sub.add_argument(
        "--profile", required=True, metavar="PATH", dest="traffic_profile",
        help="traffic profile JSON (classes, duration, link model)",
    )
    sub.add_argument(
        "--seed", type=int, default=0,
        help="workload generator seed; same seed + profile reproduces "
        "the report bit-for-bit (default 0)",
    )
    sub.add_argument(
        "--scale", type=float, default=1.0, metavar="FACTOR",
        help="multiply every class's offered rate (load sweeps)",
    )
    sub.add_argument(
        "--schedule", default=None, metavar="PATH",
        help="fault schedule applied on the traffic clock "
        "(round N fires at N * round_seconds)",
    )
    sub.add_argument(
        "--event", action="append", default=[], metavar="SPEC",
        help="inline schedule line, e.g. 'at 3 link_down a b' (repeatable)",
    )
    sub.add_argument(
        "--max-links", type=int, default=10, metavar="N",
        help="busiest links to show/emit (default 10)",
    )
    _add_resilience_options(sub)
    _add_emulation_options(sub)
    _add_observability_options(sub, include_profiler=False)


def _add_serve_options(sub: argparse.ArgumentParser) -> None:
    """`repro serve` runs the campaign service, not a single topology."""
    sub.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: %(default)s)",
    )
    sub.add_argument(
        "--port", type=int, default=8351,
        help="listen port (default: %(default)s; 0 picks a free port)",
    )
    sub.add_argument(
        "--data-dir", default="service.data", metavar="PATH",
        help="service state root: job journal, SQLite index, shared "
        "artifact cache, one results directory per campaign "
        "(default: %(default)s)",
    )
    sub.add_argument(
        "--db", default=None, metavar="PATH",
        help="SQLite result index (default: <data-dir>/service.db)",
    )
    scheduler = sub.add_argument_group("scheduler")
    scheduler.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="campaigns to run concurrently (default 2)",
    )
    scheduler.add_argument(
        "--quota", type=int, default=2, metavar="N",
        help="max concurrently running campaigns per client (default 2)",
    )
    scheduler.add_argument(
        "--aging", type=float, default=30.0, metavar="SECONDS",
        help="priority aging period: a queued job gains one effective "
        "priority level per SECONDS waited (default 30)",
    )
    runner = sub.add_argument_group("runner")
    runner.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="trial parallelism within each campaign (default 1)",
    )
    runner.add_argument(
        "--trial-deadline", type=float, default=None, metavar="SECONDS",
        help="default wall-clock budget per trial (submissions may "
        "override via options.trial_deadline_s)",
    )
    runner.add_argument(
        "--base-dir", default=None, metavar="PATH",
        help="resolve relative paths in submitted specs against PATH "
        "(default: the service's working directory)",
    )
    _add_observability_options(sub)


#: (name, help text, extra-options wiring); campaign wires itself fully.
_SUBCOMMANDS = [
    ("info", "print the designed overlay topologies", None),
    ("build", "design, compile and render configurations", _add_build_options),
    ("verify", "static checks and iBGP stability detection", None),
    ("deploy", "build then boot the lab in the emulation substrate", None),
    ("measure", "deploy then run a measurement command", _add_measure_options),
    ("visualize", "export an overlay as self-contained HTML/JSON",
     _add_visualize_options),
    ("whatif", "deploy, inject failures, compare reachability",
     _add_whatif_options),
    ("chaos", "deploy, then run a timed fault schedule against the lab",
     _add_chaos_options),
    ("diff", "compare the compiled device state of two topologies",
     _add_diff_options),
    ("apply", "diff two designs and apply the delta to a running lab",
     _add_apply_options),
    ("campaign", "run a whole experiment matrix with resume and reports",
     _add_campaign_options),
    ("traffic", "offer a workload profile to a deployed lab and measure it",
     _add_traffic_options),
    ("serve", "run the long-running campaign service with a live dashboard",
     _add_serve_options),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="automated configuration of emulated network experiments",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_options in _SUBCOMMANDS:
        sub = commands.add_parser(name, help=help_text)
        if name in ("campaign", "traffic", "serve"):
            add_options(sub)
            continue
        _add_common(sub)
        if name in ("deploy", "measure", "whatif", "chaos", "apply"):
            _add_emulation_options(sub)
        if add_options is not None:
            add_options(sub)
    return parser


def _install_sigterm_handler() -> None:
    """Turn SIGTERM into :class:`TerminationRequested`.

    SIGTERM gets the same orderly treatment as ctrl-C: the campaign
    runner checkpoints its journal, stores flush (they are fsync'd per
    append anyway), and the process exits 143.  ``TerminationRequested``
    derives from ``BaseException`` so no quarantine layer can swallow
    it on the way out.
    """
    import signal

    def _raise_termination(signum, frame):
        raise TerminationRequested(signum)

    try:
        signal.signal(signal.SIGTERM, _raise_termination)
    except ValueError:
        pass  # not the main thread (embedded use): leave signals alone


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _install_sigterm_handler()
    try:
        return _dispatch(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # a half-finished campaign (or any run) must exit cleanly: the
        # result stores are append-only, so interrupt-and-resume is a
        # supported workflow, not a crash
        print("interrupted", file=sys.stderr)
        return 130
    except TerminationRequested:
        # same contract as ctrl-C, via SIGTERM (orchestrators, timeouts)
        print("terminated", file=sys.stderr)
        return 143
    except BrokenPipeError:
        # `repro apply | head` closing a long plan listing early is
        # normal use.  Point stdout at /dev/null *before* closing so the
        # interpreter's shutdown flush cannot raise a second
        # BrokenPipeError and override the clean exit code with noise.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except OSError:
            pass
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    handler = {
        "info": _cmd_info,
        "build": _cmd_build,
        "verify": _cmd_verify,
        "deploy": _cmd_deploy,
        "measure": _cmd_measure,
        "visualize": _cmd_visualize,
        "whatif": _cmd_whatif,
        "chaos": _cmd_chaos,
        "diff": _cmd_diff,
        "apply": _cmd_apply,
        "campaign": _cmd_campaign,
        "traffic": _cmd_traffic,
        "serve": _cmd_serve,
    }[args.command]
    telemetry = Telemetry()
    out = CliOutput(
        telemetry,
        args.command,
        quiet=args.quiet,
        json_mode=args.json_mode,
    )
    # `campaign` takes a spec, not a single topology
    subject = getattr(args, "topology", None) or getattr(args, "spec", None)
    profiler = None
    if getattr(args, "profile", None):
        from repro.observability import Profiler

        profiler = Profiler(interval=args.profile_interval)
    def run_handler():
        # the command span opens on the thread doing the work: under
        # --deadline that is a supervised worker thread, and the span
        # stack is thread-local
        with telemetry.span(args.command, topology=subject):
            if profiler is not None:
                with profiler:
                    return handler(args, out)
            return handler(args, out)

    deadline = getattr(args, "deadline", None)
    try:
        with telemetry.activate():
            if deadline is not None:
                from repro.supervision import run_with_deadline

                exit_code = run_with_deadline(
                    run_handler, deadline, operation=args.command
                )
            else:
                exit_code = run_handler()
    except Exception as exc:
        # a failure trace is the one most worth keeping: the root span
        # carries status="error" and the exception text
        try:
            _write_trace_files(telemetry, args, out)
            if profiler is not None:
                _write_profile_files(profiler, telemetry, args, out)
        except OSError as trace_exc:
            print("error: could not write trace: %s" % trace_exc, file=sys.stderr)
        if args.json_mode:
            out.result(error="%s" % exc)
            out.finish(2)
        raise
    _write_trace_files(telemetry, args, out)
    if profiler is not None:
        _write_profile_files(profiler, telemetry, args, out)
    if args.timings and out.console:
        print(telemetry.timing_tree())
    if args.metrics and out.console:
        print(telemetry.metrics.format())
    out.finish(exit_code)
    return exit_code


def _write_trace_files(telemetry: Telemetry, args, out: "CliOutput") -> None:
    if args.trace:
        telemetry.write_trace(args.trace)
        out.result(trace_file=args.trace)
    if args.chrome_trace:
        telemetry.write_chrome_trace(args.chrome_trace)


def _write_profile_files(profiler, telemetry: Telemetry, args,
                         out: "CliOutput") -> None:
    """--profile epilogue: tables to the console, stacks to disk."""
    from repro.observability import format_span_table, span_hotspots

    report = profiler.report()
    collapsed_path = "%s.collapsed" % args.profile
    report.write_collapsed(collapsed_path)
    if out.console:
        print()
        print("-- span hotspots (self time) " + "-" * 34)
        print(format_span_table(telemetry))
        print()
        print("-- hot functions " + "-" * 46)
        print(report.format_table())
        print()
        print(
            "collapsed stacks: %s (%d samples, %d unique stacks; feed to "
            "flamegraph.pl or speedscope)"
            % (collapsed_path, report.sample_count, len(report.stacks))
        )
    profile_payload = report.to_dict()
    profile_payload["collapsed_file"] = collapsed_path
    profile_payload["span_hotspots"] = span_hotspots(telemetry)[:15]
    out.result(profile=profile_payload)


def _retry_policy(args):
    import dataclasses

    from repro.resilience import DEFAULT_RETRY, NO_RETRY

    policy = (
        DEFAULT_RETRY.with_retries(args.retries)
        if getattr(args, "retries", 0) > 0
        else NO_RETRY
    )
    deadline = getattr(args, "deadline", None)
    if deadline is not None:
        # the command budget also caps each retry loop and each
        # per-host measurement, so no inner layer can outlive it
        policy = dataclasses.replace(policy, deadline=deadline)
    return policy


def _designed(args):
    from repro.design import design_network
    from repro.observability import span

    with span("load_build"):
        return design_network(_load(args.topology), rules=tuple(args.rules))


def _built(args):
    from repro.compilers import platform_compiler
    from repro.observability import span
    from repro.render import render_nidb

    anm = _designed(args)
    with span("compile", platform=args.platform):
        nidb = platform_compiler(args.platform, anm).compile()
    output_dir = args.output or tempfile.mkdtemp(prefix="repro_")
    with span("render"):
        result = render_nidb(nidb, output_dir)
    return anm, nidb, result


def _cmd_info(args, out: CliOutput) -> int:
    from repro.visualization import overlay_summary

    anm = _designed(args)
    summaries = []
    for overlay_id in anm.overlays():
        if overlay_id == "input":
            continue
        summary = overlay_summary(anm[overlay_id])
        summaries.append({"overlay": overlay_id, "summary": summary})
        out.emit(summary, overlay=overlay_id)
        out.emit("")
    out.result(overlays=summaries)
    return 0


def _cmd_build(args, out: CliOutput) -> int:
    from repro.engine import BuildEngine

    if args.incremental and not args.cache_dir:
        print("error: --incremental requires --cache-dir", file=sys.stderr)
        return 2
    engine = BuildEngine(
        platform=args.platform,
        rules=tuple(args.rules),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        strict=args.strict,
        retry_policy=_retry_policy(args) if args.retries > 0 else None,
    )
    output_dir = args.output or tempfile.mkdtemp(prefix="repro_")
    report = engine.build(
        _load(args.topology),
        output_dir=output_dir,
        manifest_name="%s@%s" % (args.topology, args.platform),
        prune_stale=args.incremental,
    )
    engine.shutdown()
    result = report.render_result
    nidb = engine.nidb
    if not report.ok:
        for task_id, error in sorted(report.failed_tasks.items()):
            out.emit("task %s FAILED: %s" % (task_id, error),
                     task=task_id, error=error)
        out.result(failed_tasks=report.failed_tasks)
    if nidb is None or result is None:
        out.emit("build failed before compile completed")
        return 1
    out.emit(
        "rendered %d files (%d bytes) for %d devices in %.2fs"
        % (result.n_files, result.total_bytes, len(nidb), result.elapsed_seconds),
        n_files=result.n_files,
        total_bytes=result.total_bytes,
        devices=len(nidb),
    )
    out.emit(
        "engine: %s" % report.summary(),
        jobs=report.jobs,
        cache_hits=report.cache_hits,
        cache_misses=report.cache_misses,
    )
    if report.removed_devices:
        out.emit(
            "pruned stale outputs of: %s" % ", ".join(report.removed_devices),
            removed_devices=report.removed_devices,
        )
    out.emit("lab directory: %s" % result.lab_dir)
    out.result(
        n_files=result.n_files,
        total_bytes=result.total_bytes,
        devices=len(nidb),
        elapsed_seconds=result.elapsed_seconds,
        lab_dir=result.lab_dir,
        jobs=report.jobs,
        cache_hits=report.cache_hits,
        cache_misses=report.cache_misses,
        rendered_devices=report.rendered_devices,
        cached_devices=report.cached_devices,
    )
    return 0 if report.ok else 1


def _cmd_verify(args, out: CliOutput) -> int:
    from repro.verification import check_ibgp_stability, verify_nidb

    anm, nidb, _ = _built(args)
    report = verify_nidb(nidb)
    out.emit(report.summary())
    for finding in report.findings:
        out.emit("  %s" % finding)
    stability = check_ibgp_stability(anm)
    out.emit(stability.summary())
    out.result(
        static_ok=report.ok,
        findings=[str(finding) for finding in report.findings],
        stable=stability.stable,
    )
    return 0 if report.ok and stability.stable else 1


def _cmd_deploy(args, out: CliOutput) -> int:
    from repro.deployment import ProgressMonitor, deploy
    from repro.observability import span

    _, _, result = _built(args)
    monitor = ProgressMonitor(callbacks=[out.progress])
    with span("deploy"):
        record = deploy(
            result.lab_dir,
            monitor=monitor,
            retry_policy=_retry_policy(args),
            strict=args.strict,
            jobs=args.jobs,
        )
    lab = record.lab
    status = (
        "converged"
        if lab.converged
        else ("OSCILLATING period %d" % lab.bgp_result.period if lab.oscillating else "running")
    )
    out.emit(
        "lab up: %d machines, BGP %s" % (len(lab.network), status),
        machines=len(lab.network),
        bgp_status=status,
    )
    if lab.degraded:
        for name, diagnostic in sorted(lab.quarantined.items()):
            out.emit("quarantined: %s" % diagnostic, machine=name)
        out.result(
            quarantined={
                name: diagnostic.to_dict()
                for name, diagnostic in lab.quarantined.items()
            }
        )
    out.result(machines=len(lab.network), bgp_status=status)
    return 0


def _cmd_measure(args, out: CliOutput) -> int:
    from repro.deployment import deploy
    from repro.measurement import MeasurementClient
    from repro.observability import span

    anm, nidb, result = _built(args)
    with span("deploy"):
        record = deploy(
            result.lab_dir,
            retry_policy=_retry_policy(args),
            strict=args.strict,
            jobs=args.jobs,
        )
    client = MeasurementClient(record.lab, nidb, retry_policy=_retry_policy(args))
    hosts = args.hosts or [str(device.node_id) for device in nidb.routers()]
    run = client.send(args.measure_command, hosts)
    measurements = []
    failures = []
    for measurement in run.results:
        out.emit("=== %s ===" % measurement.machine, machine=measurement.machine)
        if measurement.ok:
            out.emit(measurement.output)
            if measurement.mapped_path:
                out.emit("mapped: %s" % " -> ".join(measurement.mapped_path))
                out.emit("AS path: %s" % measurement.as_path)
        else:
            out.emit("FAILED: %s" % measurement.error)
            failures.append(measurement.machine)
        out.emit("")
        measurements.append(
            {
                "machine": measurement.machine,
                "ok": measurement.ok,
                "error": measurement.error,
                "output": measurement.output,
                "parsed": measurement.parsed,
                "mapped_path": measurement.mapped_path,
                "as_path": measurement.as_path,
            }
        )
    if failures:
        out.emit(
            "%d/%d measurements failed: %s"
            % (len(failures), len(measurements), ", ".join(failures))
        )
    out.result(
        measure_command=args.measure_command,
        results=measurements,
        failures=failures,
    )
    # the traffic section appears in text and --json output only when
    # --traffic was passed — an unrequested key would imply a run
    if getattr(args, "traffic_profile", None):
        from repro.traffic import (
            coerce_profile,
            link_overrides_from_anm,
            run_traffic,
        )

        with span("traffic"):
            traffic_report = run_traffic(
                record.lab,
                coerce_profile(args.traffic_profile),
                seed=args.traffic_seed,
                link_overrides=link_overrides_from_anm(anm),
            )
        for line in traffic_report.format_lines():
            out.emit(line)
        out.result(traffic=traffic_report.to_dict(max_links=10))
    return 0 if not failures else 1


def _cmd_whatif(args, out: CliOutput) -> int:
    from repro.deployment import deploy
    from repro.emulation import (
        compare_reachability,
        fail_links,
        fail_node,
        reachability_matrix,
    )
    from repro.observability import span

    if not args.fail_link and not args.fail_node:
        print("error: nothing to fail (use --fail-link / --fail-node)", file=sys.stderr)
        return 2
    _, _, result = _built(args)
    with span("deploy"):
        lab = deploy(
            result.lab_dir,
            retry_policy=_retry_policy(args),
            strict=args.strict,
            jobs=args.jobs,
        ).lab
    with span("whatif.compare"):
        before = reachability_matrix(lab)
        degraded = lab
        if args.fail_link:
            degraded = fail_links(degraded, [tuple(pair) for pair in args.fail_link])
        for machine in args.fail_node:
            degraded = fail_node(degraded, machine)
        survivors = sorted(degraded.network.machines)
        after = reachability_matrix(degraded, survivors)
        delta = compare_reachability(
            {pair: ok for pair, ok in before.items() if set(pair) <= set(survivors)},
            after,
        )
    out.emit("reachable pairs kept: %d" % len(delta["kept"]))
    out.emit("reachable pairs lost: %d" % len(delta["lost"]))
    for pair in sorted(delta["lost"])[:20]:
        out.emit("  lost %s -> %s" % pair)
    out.result(
        pairs_kept=len(delta["kept"]),
        pairs_lost=len(delta["lost"]),
        lost=[list(pair) for pair in sorted(delta["lost"])],
    )
    return 0 if not delta["lost"] else 1


def _cmd_chaos(args, out: CliOutput) -> int:
    from repro.deployment import deploy
    from repro.observability import span
    from repro.resilience import FaultSchedule, apply_schedule

    if not args.schedule and not args.event:
        print(
            "error: nothing to inject (use --schedule and/or --event)",
            file=sys.stderr,
        )
        return 2
    schedule = FaultSchedule()
    if args.schedule:
        schedule = FaultSchedule.load(args.schedule)
    if args.event:
        inline = FaultSchedule.parse("\n".join(args.event))
        schedule = FaultSchedule(list(schedule) + list(inline))
    _, _, result = _built(args)
    with span("deploy"):
        lab = deploy(
            result.lab_dir,
            retry_policy=_retry_policy(args),
            strict=args.strict,
            jobs=args.jobs,
        ).lab
    report = apply_schedule(lab, schedule)
    for line in report.summary().splitlines():
        out.emit(line)
    if lab.degraded:
        for name, diagnostic in sorted(lab.quarantined.items()):
            out.emit("quarantined: %s" % diagnostic, machine=name)
    out.result(chaos=report.to_dict())
    return 0 if report.settled else 1


def _cmd_traffic(args, out: CliOutput) -> int:
    from repro.deployment import deploy
    from repro.observability import span
    from repro.resilience import FaultSchedule
    from repro.traffic import (
        coerce_profile,
        link_overrides_from_anm,
        run_traffic,
    )

    profile = coerce_profile(args.traffic_profile)
    if args.scale != 1.0:
        profile = profile.scaled(args.scale)
    if args.action == "show":
        text = json.dumps(profile.to_dict(), indent=2)
        out.emit(text)
        out.result(profile=profile.to_dict())
        return 0

    schedule = None
    if args.schedule or args.event:
        schedule = FaultSchedule()
        if args.schedule:
            schedule = FaultSchedule.load(args.schedule)
        if args.event:
            inline = FaultSchedule.parse("\n".join(args.event))
            schedule = FaultSchedule(list(schedule) + list(inline))

    anm, _, result = _built(args)
    with span("deploy"):
        lab = deploy(
            result.lab_dir,
            retry_policy=_retry_policy(args),
            strict=args.strict,
            jobs=args.jobs,
        ).lab
    out.emit(
        "lab up: %d machines; offering profile %r for %.1fs (seed %d)"
        % (len(lab.network), profile.name, profile.duration, args.seed),
        machines=len(lab.network),
    )
    with span("traffic"):
        report = run_traffic(
            lab,
            profile,
            seed=args.seed,
            schedule=schedule,
            link_overrides=link_overrides_from_anm(anm),
        )
    for line in report.format_lines(max_links=args.max_links):
        out.emit(line)
    out.emit(
        "simulated %d flows in %.2fs (%.0f flows/sec)"
        % (
            report.offered_flows,
            report.elapsed_seconds,
            report.offered_flows / report.elapsed_seconds
            if report.elapsed_seconds
            else 0.0,
        )
    )
    out.result(traffic=report.to_dict(max_links=args.max_links))
    return 0


def _emit_plan(out: CliOutput, plan, plan_out=None) -> None:
    """Shared DiffPlan presentation for `repro diff --plan` / `repro apply`."""
    out.emit("plan: %s" % plan.summary())
    for line in plan.describe():
        out.emit("  %s" % line)
    for change in plan.file_changes:
        out.emit(
            "  file %s %s" % (change["status"], change["path"]),
            before_hash=change.get("before_hash"),
            after_hash=change.get("after_hash"),
        )
    if plan_out:
        plan.save(plan_out)
        out.emit("plan written to %s" % plan_out)
    out.result(
        plan_summary=plan.summary(),
        operations=len(plan),
        by_kind=plan.count_by_kind(),
        devices=plan.devices(),
        file_changes=plan.file_changes,
    )


def _cmd_diff(args, out: CliOutput) -> int:
    from repro.compilers import platform_compiler
    from repro.design import design_network
    from repro.nidb import diff_nidbs

    if args.diff_plan or args.plan_out:
        from repro.liveupdate import diff_designs

        delta = diff_designs(
            _load(args.topology),
            _load(args.topology_b),
            platform=args.platform,
            rules=tuple(args.rules),
        )
        _emit_plan(out, delta.plan, plan_out=args.plan_out)
        return 0 if delta.plan.is_empty else 1

    before = platform_compiler(
        args.platform, design_network(_load(args.topology), rules=tuple(args.rules))
    ).compile()
    after = platform_compiler(
        args.platform, design_network(_load(args.topology_b), rules=tuple(args.rules))
    ).compile()
    diff = diff_nidbs(before, after)
    out.emit(diff.summary())
    for device in diff.added_devices:
        out.emit("  + %s" % device)
    for device in diff.removed_devices:
        out.emit("  - %s" % device)
    for device, changes in sorted(diff.changed.items()):
        out.emit("  ~ %s" % device)
        for change in changes[:10]:
            out.emit("      %s" % change)
        if len(changes) > 10:
            out.emit("      ... %d more" % (len(changes) - 10))
    out.result(
        identical=diff.unchanged,
        added=[str(device) for device in diff.added_devices],
        removed=[str(device) for device in diff.removed_devices],
        changed={
            str(device): [str(change) for change in changes]
            for device, changes in sorted(diff.changed.items())
        },
    )
    return 0 if diff.unchanged else 1


def _cmd_apply(args, out: CliOutput) -> int:
    from repro.emulation import EmulatedLab
    from repro.exceptions import LiveUpdateError
    from repro.liveupdate import (
        apply_edits,
        apply_plan,
        diff_designs,
        parse_edits,
        verify_equivalence,
    )
    from repro.observability import span

    graph_a = _load(args.topology)
    if args.delta:
        edits = parse_edits(args.delta)
        for edit in edits:
            out.emit("edit: %s" % edit.describe())
        graph_b = apply_edits(graph_a, edits)
    elif args.topology_b:
        graph_b = _load(args.topology_b)
    else:
        raise LiveUpdateError(
            "apply needs a target design: TOPOLOGY_B or --delta EDITS"
        )

    delta = diff_designs(
        graph_a, graph_b, platform=args.platform, rules=tuple(args.rules),
    )
    plan = delta.plan
    _emit_plan(out, plan, plan_out=args.plan_out)

    live = args.live or args.verify or args.rollback
    if not live:
        out.emit("dry run: pass --live to apply against a booted lab")
        out.result(applied=False)
        return 0

    # The trees render on first read, under their own experiment spans.
    # Render both before any lab is up, so each boot span below times
    # the boot alone and rendering runs on a small heap.
    old_dir = delta.old_dir
    new_dir = delta.new_dir if args.verify or args.rollback else None
    with span("liveupdate.boot_source"):
        lab = EmulatedLab.boot(old_dir, strict=args.strict, jobs=args.jobs)
    report = apply_plan(
        lab, plan,
        journal_dir=args.journal_dir,
        deadline_s=args.apply_deadline,
    )
    out.emit("apply: %s" % report.summary())
    out.result(applied=True, apply=report.to_dict())

    exit_code = 0
    if args.verify or args.rollback:
        with span("liveupdate.boot_oracle"):
            fresh = EmulatedLab.boot(
                new_dir, strict=args.strict, jobs=args.jobs
            )
        equivalence = verify_equivalence(lab, fresh)
        out.emit("verify: %s" % equivalence.summary())
        out.result(equivalent=equivalence.ok, mismatches=equivalence.mismatches)
        if not equivalence.ok:
            exit_code = 1
    if args.rollback:
        rollback_report = apply_plan(
            lab, plan.inverse(),
            journal_dir=args.journal_dir,
            deadline_s=args.apply_deadline,
        )
        out.emit("rollback: %s" % rollback_report.summary())
        with span("liveupdate.boot_original"):
            original = EmulatedLab.boot(
                old_dir, strict=args.strict, jobs=args.jobs
            )
        restored = verify_equivalence(lab, original)
        out.emit("rollback verify: %s" % restored.summary())
        out.result(rollback=rollback_report.to_dict(), restored=restored.ok)
        if not restored.ok:
            exit_code = 1
    return exit_code


def _campaign_directory(args, spec) -> str:
    """CLI flag beats the spec's 'directory'; last resort is <name>.campaign."""
    if args.campaign_dir:
        return args.campaign_dir
    if spec.directory:
        directory = str(spec.directory)
        if os.path.isabs(directory):
            return directory
        return spec.resolve_path(directory)
    return os.path.join(os.getcwd(), "%s.campaign" % spec.name)


def _parse_shard(token):
    from repro.exceptions import CampaignError

    if token is None:
        return None
    try:
        index_text, count_text = token.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise CampaignError("--shard expects I/N (e.g. 0/4), got %r" % token)
    if count < 1 or not 0 <= index < count:
        raise CampaignError("--shard needs 0 <= I < N, got %r" % token)
    return index, count


def _cmd_campaign(args, out: CliOutput) -> int:
    from repro.campaign import CampaignRunner, CampaignSpec
    from repro.exceptions import CampaignError

    if args.action == "report":
        return _campaign_report(args, out)
    if os.path.isdir(args.spec):
        if args.action != "status":
            raise CampaignError(
                "campaign %s needs the spec JSON, not a directory" % args.action
            )
        # status on a results directory: the runner stores the expanded
        # matrix (spec.json) beside the index, so pending trials are
        # known without the original spec file
        from repro.campaign import ResultStore

        return _campaign_status(
            ResultStore(args.spec).load_spec(), args.spec, out
        )
    spec = CampaignSpec.load(args.spec)
    directory = _campaign_directory(args, spec)
    if args.action == "status":
        return _campaign_status(spec, directory, out)

    runner = CampaignRunner(
        spec,
        directory=directory,
        jobs=args.jobs,
        shard=_parse_shard(args.shard),
        retry_policy=_retry_policy(args),
        retry_failed=args.retry_failed,
        limit=args.limit,
        cache_dir=args.cache_dir,
        profile=bool(args.profile),
        trial_deadline_s=args.trial_deadline,
        stall_after_s=args.stall_after,
    )
    result = runner.run()
    for record in result.records:
        out.emit(
            "%s %s" % (record.trial_id, record.outcome()),
            trial=record.trial_id,
            status=record.status,
        )
    out.emit(result.summary())
    out.result(
        campaign=spec.name,
        directory=result.directory,
        executed=result.executed,
        resumed=result.skipped,
        failed=[record.trial_id for record in result.failed],
        timed_out=[record.trial_id for record in result.timed_out],
        recovered=result.recovered,
        deferred=result.deferred,
        degraded_to=result.degraded_to,
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
        trials=[record.to_dict() for record in result.records],
    )
    # failed trials are quarantined in the index, not fatal -- a matrix
    # with a known-broken cell should still complete and report
    if args.strict and not result.ok:
        return 1
    return 0


def _campaign_status(spec, directory, out: CliOutput) -> int:
    from repro.campaign import ResultStore
    from repro.supervision import TrialJournal

    status = ResultStore(directory).status(spec)
    out.emit(
        "campaign %s: %d/%d trials complete (%d ok, %d failed, "
        "%d timed out, %d pending)"
        % (
            status["campaign"],
            status["completed"],
            status["total"],
            status["ok"],
            status["failed"],
            status["timed_out"],
            status["pending"],
        )
    )
    for trial_id in status["failed_trials"]:
        out.emit("  failed: %s" % trial_id, trial=trial_id)
    for trial_id in status["timed_out_trials"]:
        out.emit("  timed out: %s" % trial_id, trial=trial_id)
    for trial_id in status["pending_trials"]:
        out.emit("  pending: %s" % trial_id, trial=trial_id)

    # -- health: what supervision knows about the last run(s) ---------------
    journal = TrialJournal(directory)
    open_intents = journal.open_intents()
    last_checkpoint = journal.last_checkpoint()
    health = {
        "timed_out": status["timed_out"],
        "interrupted": status["interrupted"],
        "torn_index_lines": status["torn_lines"],
        "torn_journal_lines": journal.torn_lines,
        "open_intents": sorted(
            entry.trial_id for entry in open_intents.values()
        ),
        "last_checkpoint": (
            {"reason": last_checkpoint.reason, "at": last_checkpoint.at}
            if last_checkpoint is not None
            else None
        ),
    }
    concerns = []
    if health["open_intents"]:
        concerns.append(
            "%d trial(s) were cut off mid-flight and will re-execute: %s"
            % (len(health["open_intents"]), ", ".join(health["open_intents"]))
        )
    if status["interrupted"]:
        concerns.append(
            "%d interrupted trial(s) pending re-execution" % status["interrupted"]
        )
    if status["timed_out"]:
        concerns.append(
            "%d trial(s) overran their deadline or stalled (timed out)"
            % status["timed_out"]
        )
    if health["torn_index_lines"] or health["torn_journal_lines"]:
        concerns.append(
            "unclean stop detected (%d torn index line(s), %d torn journal "
            "line(s))"
            % (health["torn_index_lines"], health["torn_journal_lines"])
        )
    if last_checkpoint is not None:
        concerns.append(
            "last run stopped on %s" % (last_checkpoint.reason or "checkpoint")
        )
    if concerns:
        out.emit("health:")
        for concern in concerns:
            out.emit("  %s" % concern)
    else:
        out.emit("health: clean (no crash evidence, no overruns)")
    out.result(directory=directory, health=health, **status)
    return 0 if status["pending"] == 0 else 3


def _campaign_report(args, out: CliOutput) -> int:
    from repro.campaign import (
        CampaignSpec,
        campaign_summary,
        compare_campaigns,
        load_records,
        render_report,
    )

    token = args.spec
    spec = None
    if os.path.isdir(token) or token.endswith(".jsonl"):
        source = token  # a results directory or the index itself
    else:
        spec = CampaignSpec.load(token)
        source = _campaign_directory(args, spec)
    records = load_records(source)
    if args.baseline:
        comparison = compare_campaigns(load_records(args.baseline), records)
        out.emit(comparison.format())
        out.result(comparison=comparison.to_dict())
        return 0 if comparison.ok else 1
    title = spec.name if spec is not None else ""
    text = render_report(records, fmt=args.report_format, title=title)
    out.emit(text)
    out.result(
        format=args.report_format,
        report=text,
        summary=campaign_summary(records),
    )
    return 0


def _cmd_serve(args, out: CliOutput) -> int:
    from repro.service import CampaignService, serve

    service = CampaignService(
        args.data_dir,
        workers=args.workers,
        quota=args.quota,
        db_path=args.db,
        jobs=args.jobs,
        trial_deadline_s=args.trial_deadline,
        aging_s=args.aging,
        base_dir=args.base_dir,
    )

    def banner(server):
        host, port = server.server_address[:2]
        out.emit(
            "serving on http://%s:%d (workers %d, quota %d/client, data %s)"
            % (host, port, args.workers, args.quota, service.data_dir),
            host=host,
            port=port,
            data_dir=service.data_dir,
        )
        for job_id in service.recovered:
            out.emit("  recovered pending campaign %s" % job_id, job=job_id)

    exit_code = serve(service, host=args.host, port=args.port, banner=banner)
    out.emit("service stopped")
    out.result(data_dir=service.data_dir, exit_code=exit_code)
    return exit_code


def _cmd_visualize(args, out: CliOutput) -> int:
    from repro.visualization import overlay_to_d3, write_html, write_json

    anm = _designed(args)
    data = overlay_to_d3(anm[args.overlay])
    output = args.output or "%s.html" % args.overlay
    if output.endswith(".json"):
        write_json(data, output)
    else:
        write_html(data, output, title="Overlay %s" % args.overlay)
    out.emit("wrote %s" % output, output=output)
    out.result(output=output, overlay=args.overlay)
    return 0


if __name__ == "__main__":
    sys.exit(main())
