"""Forwarding work is proportional to what a probe or a flow needs.

A trace probes each hop's compiled FIB (no ``IPv4Network`` membership
test per route), each machine's FIB is compiled once per
:class:`Dataplane`, and a traffic run resolves each ``(class, src,
dst)`` path once.
"""

from __future__ import annotations

import ipaddress
from collections import Counter

from repro.emulation import Dataplane
from repro.emulation import dataplane as dataplane_module
from repro.traffic import TrafficProfile
from repro.traffic.engine import TrafficEngine


def _fresh(lab) -> Dataplane:
    return Dataplane(lab.network, lab.igp, lab.bgp_result)


def test_a_trace_makes_no_network_membership_tests(si_lab, monkeypatch):
    dataplane = _fresh(si_lab)
    for machine in si_lab.network.machines:
        si_lab.igp.routes(machine)  # the IGP's own work is not counted
    calls = Counter()
    contains = ipaddress.IPv4Network.__contains__

    def counting(self, other):
        calls["contains"] += 1
        return contains(self, other)

    monkeypatch.setattr(ipaddress.IPv4Network, "__contains__", counting)
    trace = dataplane.trace("as1r1", si_lab.network.device("as300r3").loopback)
    assert trace.reached and len(trace.hops) >= 3
    assert calls["contains"] == 0


def test_each_fib_is_built_once_per_dataplane(si_lab, monkeypatch):
    built = Counter()
    original = dataplane_module._Fib.__init__

    def counting(self, dataplane, machine):
        built[(id(dataplane), machine)] += 1
        original(self, dataplane, machine)

    monkeypatch.setattr(dataplane_module._Fib, "__init__", counting)
    machines = sorted(si_lab.network.machines)
    dataplanes = [_fresh(si_lab), _fresh(si_lab)]
    for dataplane in dataplanes:
        for source in machines:
            for target in machines:
                dataplane.trace(source, si_lab.network.device(target).loopback)
                dataplane.ping(source, "198.51.100.1")
    assert built and max(built.values()) == 1
    assert len(built) == 2 * len(machines)


def test_a_traffic_run_traces_each_path_once(si_lab, monkeypatch):
    profile = TrafficProfile.from_dict({
        "name": "work",
        "duration": 2.0,
        "classes": [
            {"name": "web", "kind": "request_response", "qps": 400, "pair_count": 12},
            {"name": "bulk", "kind": "bulk", "flows": 40, "pair_count": 6},
        ],
    })
    traced = []
    trace = si_lab.dataplane.trace
    monkeypatch.setattr(
        si_lab.dataplane, "trace", lambda src, dst: traced.append((src, dst)) or trace(src, dst)
    )
    engine = TrafficEngine(si_lab, profile, seed=3)
    report = engine.run()
    keys = set(engine._paths)
    assert report.offered_flows > len(keys)
    assert len(traced) == len(keys)
    for class_index in range(len(profile.classes)):
        pairs = [(src, dst) for index, src, dst in keys if index == class_index]
        assert len(pairs) == len(set(pairs))
