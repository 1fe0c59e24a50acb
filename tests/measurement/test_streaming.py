"""The streamed measurement fan-out.

``MeasurementClient.send`` is ``list(iter_results(...))``: the same
results, failure records, metrics and spans.  Validation consumes the
stream and holds one VM's result at a time, yet builds the same
designed and measured sets as the collect-everything loop it replaced
(kept below as ``collected_*``).
"""

import dataclasses
import re
import weakref

import networkx as nx
import pytest

from repro.emulation import EmulatedLab
from repro.measurement import (
    MeasurementClient,
    measured_ospf_graph,
    validate_bgp_sessions,
    validate_ospf,
)
from repro.measurement import client as client_module
from repro.measurement.mapping import IpMapper
from repro.observability import Telemetry
from repro.resilience import RetryPolicy, inject_sleepy_vm

BOUNDED = RetryPolicy(max_attempts=1, base_delay=0.0, deadline=0.3)
LABS = ["small_internet", "fig5", "rpki"]


def collected_ospf_graph(lab, nidb):
    """measured_ospf_graph over a collected ``send`` run."""
    client = MeasurementClient(lab, nidb)
    mapper = IpMapper(nidb)
    graph = nx.Graph()
    routers = [device for device in nidb.routers() if device.ospf]
    run = client.send("show ip ospf neighbor", [str(d.node_id) for d in routers])
    for result in run.results:
        graph.add_node(result.machine)
        for row in result.parsed:
            neighbor = mapper.device_for(row["NEIGHBOR_ID"]) or mapper.device_for(
                row["ADDRESS"]
            )
            if neighbor is not None:
                graph.add_edge(result.machine, neighbor)
    return graph


def collected_bgp_sessions(lab, nidb):
    """validate_bgp_sessions' (designed, measured) over a collected run."""
    client = MeasurementClient(lab, nidb)
    mapper = IpMapper(nidb)
    routers = [device for device in nidb.routers() if device.bgp]
    run = client.send("show ip bgp summary", [str(d.node_id) for d in routers])
    half_sessions = set()
    for result in run.results:
        for row in result.parsed:
            peer = mapper.device_for(row["NEIGHBOR"])
            if peer is not None:
                half_sessions.add((result.machine, peer))
    measured = {
        tuple(sorted(pair))
        for pair in half_sessions
        if (pair[1], pair[0]) in half_sessions
    }
    designed = set()
    for device in routers:
        for neighbor in list(device.bgp.ebgp_neighbors or []) + list(
            device.bgp.ibgp_neighbors or []
        ):
            designed.add(tuple(sorted((str(device.node_id), neighbor.neighbor))))
    return designed, measured


def _span_shape(telemetry):
    by_id = {span.span_id: span for span in telemetry.tracer.all_spans()}
    return [
        (
            span.name,
            by_id[span.parent_id].name if span.parent_id else None,
            span.attributes,
            span.status,
            span.error,
        )
        for span in by_id.values()
    ]


def _untimed(result):
    """A result with the wall-clock of a timeout taken out of its error."""
    error = result.error and re.sub(r"\(ran [\d.]+s\)", "(ran -)", result.error)
    return dataclasses.replace(result, error=error)


def _fan_out(si_render, si_nidb, collect):
    lab = EmulatedLab.boot(si_render.lab_dir)
    inject_sleepy_vm(lab, "as100r1", sleep_s=2.0, hangs=1)
    client = MeasurementClient(lab, si_nidb, retry_policy=BOUNDED)
    tap_ip = next(
        str(interface.ip_address)
        for interface in lab.vm("as20r1").intent.interfaces
        if interface.is_management
    )
    hosts = ["as100r1", "as100r2", "no_such_machine", tap_ip]
    telemetry = Telemetry()
    with telemetry.activate():
        results = collect(client, "show ip bgp summary", hosts)
    return results, telemetry


def test_send_is_the_collected_stream(si_render, si_nidb):
    sent, sent_telemetry = _fan_out(
        si_render, si_nidb, lambda client, *args: client.send(*args).results
    )
    streamed, streamed_telemetry = _fan_out(
        si_render, si_nidb, lambda client, *args: list(client.iter_results(*args))
    )
    assert [(result.reason, result.ok) for result in sent] == [
        ("timeout", False), ("", True), ("error", False), ("", True)
    ]
    assert [_untimed(result) for result in streamed] == [
        _untimed(result) for result in sent
    ]
    counters = sent_telemetry.metrics.snapshot()["counters"]
    assert counters["measure.failures"] == 2
    assert counters["measure.rows_parsed"] > 0
    assert streamed_telemetry.metrics.snapshot()["counters"] == counters
    assert _span_shape(streamed_telemetry) == _span_shape(sent_telemetry)
    assert [event.stage for event in streamed_telemetry.events.events] == [
        event.stage for event in sent_telemetry.events.events
    ]


def test_iter_results_yields_before_the_next_host_runs(si_lab, si_nidb):
    client = MeasurementClient(si_lab, si_nidb)
    telemetry = Telemetry()
    with telemetry.activate():
        stream = client.iter_results("hostname", ["as100r1", "as100r2"])
        first = next(stream)
        assert first.machine == "as100r1"
        assert telemetry.metrics.snapshot()["counters"]["measure.commands_sent"] == 1
        assert [result.machine for result in stream] == ["as100r2"]


@pytest.fixture
def live_results(monkeypatch):
    """Track how many MeasurementResults are alive at any one time."""
    live = weakref.WeakSet()
    stats = {"created": 0, "peak": 0}

    class Spy(client_module.MeasurementResult):
        __hash__ = object.__hash__  # by identity, for the WeakSet

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live.add(self)
            stats["created"] += 1
            stats["peak"] = max(stats["peak"], len(live))

    monkeypatch.setattr(client_module, "MeasurementResult", Spy)
    return stats


@pytest.mark.parametrize("name", LABS)
@pytest.mark.parametrize(
    "validate, protocol",
    [(validate_bgp_sessions, "bgp"), (measured_ospf_graph, "ospf")],
)
def test_validation_holds_one_result_at_a_time(
    measured_labs, live_results, name, validate, protocol
):
    result = measured_labs[name]
    routers = [device for device in result.nidb.routers() if getattr(device, protocol)]
    validate(result.lab, result.nidb)
    assert live_results["created"] == len(routers)
    assert live_results["peak"] == min(len(routers), 1)


@pytest.mark.parametrize("name", LABS)
def test_validation_sets_equal_the_collected_run(measured_labs, name):
    result = measured_labs[name]
    lab, nidb = result.lab, result.nidb

    designed, measured = collected_bgp_sessions(lab, nidb)
    report = validate_bgp_sessions(lab, nidb)
    assert report.designed_edges == designed
    assert report.measured_edges == measured
    assert report.ok and measured

    graph = measured_ospf_graph(lab, nidb)
    collected = collected_ospf_graph(lab, nidb)
    assert list(graph.nodes) == list(collected.nodes)
    assert list(graph.edges) == list(collected.edges)
    ospf = validate_ospf(lab, nidb, result.anm["ospf"])
    assert ospf.measured_edges == {
        tuple(sorted((str(u), str(v)))) for u, v in collected.edges
    }
    assert ospf.ok
