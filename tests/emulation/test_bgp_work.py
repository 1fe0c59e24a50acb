"""A cold BGP convergence resolves each fact once, by integer.

Counted on the Small Internet: no ``IPv4Address`` is hashed while the
schedule runs (next-hop costs, owners and route hashes key addresses by
their integer), no route is built through ``dataclasses.replace``, each
eBGP session's address is resolved once per ``rebuild`` and never while
the schedule runs, and ``IPv4Network`` hashes stay within a few per
final selection (one per selection change or new route plus a handful
per prefix and round; the per-machine reads are prefix first).
"""

from __future__ import annotations

import dataclasses
import ipaddress
from collections import Counter

from repro.emulation import bgp_engine
from repro.emulation.bgp_engine import BgpSimulation
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpState

#: IPv4Network hashes allowed per final selection; the schedule used
#: about 15 when it read selections machine first.
NETWORK_HASHES_PER_SELECTION = 8


def _count(monkeypatch, calls, label, owner, name, original=None):
    """Count calls of ``owner.name`` under ``label``; ``original`` stands
    in for an attribute the owner may not have."""
    raising = original is None
    original = original or getattr(owner, name)

    def counting(*args, **kwargs):
        calls[label] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting, raising=raising)


def _ebgp_sessions(simulation) -> int:
    return sum(
        session.is_ebgp for sessions in simulation.sessions.values() for session in sessions
    )


def test_a_cold_convergence_resolves_each_fact_once(si_lab, monkeypatch):
    calls = Counter()
    _count(monkeypatch, calls, "session address", BgpSimulation, "_session_address")
    network = EmulatedNetwork(si_lab.intent)
    simulation = BgpSimulation(network, IgpState(network))
    assert calls["session address"] == _ebgp_sessions(simulation) > 0
    calls.clear()

    _count(monkeypatch, calls, "address hash", ipaddress.IPv4Address, "__hash__")
    _count(monkeypatch, calls, "network hash", ipaddress.IPv4Network, "__hash__")
    # an engine module that imported the name would bypass the patch below
    _count(monkeypatch, calls, "replace", bgp_engine, "replace", dataclasses.replace)
    _count(monkeypatch, calls, "replace", dataclasses, "replace")
    result = simulation.run()
    monkeypatch.undo()
    assert result.converged
    assert calls["session address"] == 0
    assert calls["replace"] == 0
    assert calls["address hash"] == 0
    selections = sum(len(table) for table in result.selected.values())
    assert calls["network hash"] <= NETWORK_HASHES_PER_SELECTION * selections, (
        calls,
        selections,
    )

    calls.clear()
    _count(monkeypatch, calls, "session address", BgpSimulation, "_session_address")
    simulation.rebuild(EmulatedNetwork(si_lab.intent))
    assert calls["session address"] == _ebgp_sessions(simulation)
