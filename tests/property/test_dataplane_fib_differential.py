"""The compiled per-machine FIB ≡ the linear-scan lookup it replaced.

Every case builds a :class:`Dataplane` and, over exactly its state, the
scanning oracle of ``tests/emulation/dataplane_oracle.py``; hypothesis
then draws (case, machine, address) and requires equal
``ForwardingDecision``s, traceroutes and pings.  The cases cover the
booted small_internet, fig5 and Bad-Gadget labs, labs with a link or a
node failed, Bad-Gadget's per-round BGP snapshots, a BGP selection
crafted to tie connected and IGP prefixes at equal length (with
blackhole, self, segment, IGP, neighbour-loopback and unresolvable next
hops), and a hand-built fabric where two segments share one subnet.
"""

from __future__ import annotations

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compilers import platform_compiler
from repro.emulation import Dataplane, EmulatedLab, fail_links, fail_node
from repro.emulation.bgp_engine import BgpRoute
from repro.emulation.intent import DeviceIntent, InterfaceIntent, LabIntent
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpState
from repro.render import render_nidb
from tests.emulation.dataplane_oracle import scan_dataplane

UNROUTED = ipaddress.ip_address("198.51.100.1")


def _route(prefix, next_hop) -> BgpRoute:
    return BgpRoute(prefix=prefix, as_path=(65000,), next_hop=next_hop, local_pref=100)


def _tied_selection(dataplane: Dataplane) -> dict:
    """BGP routes at the very prefixes of each machine's connected and IGP
    entries, cycling through every kind of next hop."""
    network = dataplane.network
    names = sorted(network.machines)
    loopbacks = [network.device(name).loopback for name in names]
    selected = {}
    for position, machine in enumerate(names):
        own = network.device(machine).addresses()
        neighbours = network.neighbors_of(machine)
        candidates = [
            None,  # blackhole aggregate
            own[0] if own else None,  # next hop is self
            network.address_on_segment_with(neighbours[0], machine) if neighbours else None,
            loopbacks[(position + 3) % len(loopbacks)],  # resolved through the IGP
            network.device(neighbours[-1]).loopback if neighbours else None,
            UNROUTED,  # unresolvable
        ]
        table = dict(dataplane.bgp_selected.get(machine, {}))
        prefixes = list(network.connected_networks(machine))
        prefixes += list(dataplane.igp.routes(machine))[:8]
        for index, prefix in enumerate(prefixes):
            table[prefix] = _route(prefix, candidates[index % len(candidates)])
        # and one BGP-only prefix per next-hop kind, so each resolution runs
        for index, next_hop in enumerate(candidates):
            prefix = ipaddress.ip_network("203.0.113.%d/29" % (8 * index))
            table[prefix] = _route(prefix, next_hop)
        selected[machine] = table
    return selected


def _shared_subnet_dataplane() -> Dataplane:
    """``a`` sits on two segments numbered from one /24."""

    def interface(name, address, domain):
        return InterfaceIntent(
            name=name, ip_address=ipaddress.ip_address(address), prefixlen=24,
            collision_domain=domain,
        )

    def loopback(address):
        return InterfaceIntent(
            name="lo", ip_address=ipaddress.ip_address(address), prefixlen=32,
            is_loopback=True,
        )

    devices = {
        "a": DeviceIntent(name="a", interfaces=[
            loopback("192.0.2.1"),
            interface("eth0", "10.9.0.1", "left"),
            interface("eth1", "10.9.0.3", "right"),
        ]),
        "b": DeviceIntent(name="b", interfaces=[
            loopback("192.0.2.2"), interface("eth0", "10.9.0.2", "left"),
        ]),
        "c": DeviceIntent(name="c", interfaces=[
            loopback("192.0.2.3"), interface("eth0", "10.9.0.4", "right"),
        ]),
    }
    network = EmulatedNetwork(LabIntent(platform="netkit", devices=devices))
    dataplane = Dataplane(network, IgpState(network))
    return dataplane.with_bgp_snapshot({
        "a": {
            ipaddress.ip_network("192.0.2.3/32"): _route(
                ipaddress.ip_network("192.0.2.3/32"), ipaddress.ip_address("10.9.0.4")
            ),
            ipaddress.ip_network("10.9.0.0/24"): _route(
                ipaddress.ip_network("10.9.0.0/24"), None
            ),
        },
    })


@pytest.fixture(scope="module")
def cases(si_lab, fig5_anm, gadget_lab_quagga, tmp_path_factory):
    fig5 = render_nidb(
        platform_compiler("netkit", fig5_anm).compile(), tmp_path_factory.mktemp("fig5_fib")
    )
    dataplanes = [
        si_lab.dataplane,
        EmulatedLab.boot(fig5.lab_dir).dataplane,
        gadget_lab_quagga.dataplane,
        fail_links(si_lab, [("as100r1", "as100r2"), ("as20r1", "as20r2")]).dataplane,
        fail_node(si_lab, "as100r3").dataplane,
        si_lab.dataplane.with_bgp_snapshot(_tied_selection(si_lab.dataplane)),
        _shared_subnet_dataplane(),
    ]
    dataplanes += [gadget_lab_quagga.dataplane_at_round(index) for index in range(4)]
    built = []
    for dataplane in dataplanes:
        machines = sorted(dataplane.network.machines)
        addresses = set()
        for device in dataplane.network.all_machines.values():
            for iface in device.interfaces:
                if iface.ip_address is not None:  # management addresses included
                    addresses.add(iface.ip_address)
        prefixes = set()
        for machine in machines:
            prefixes.update(dataplane.network.connected_networks(machine))
            prefixes.update(dataplane.igp.routes(machine))
            prefixes.update(dataplane.bgp_selected.get(machine, {}))
        built.append((
            dataplane,
            scan_dataplane(dataplane),
            machines,
            sorted(addresses) + [UNROUTED],
            sorted(prefixes),
        ))
    return built


def _assert_same(dataplane, oracle, machine, address):
    assert dataplane.lookup(machine, address) == oracle.lookup(machine, address)
    assert dataplane.trace(machine, address) == oracle.trace(machine, address)
    assert dataplane.ping(machine, address) == oracle.ping(machine, address)


_draw = st.tuples(
    st.integers(min_value=0), st.integers(min_value=0),
    st.sampled_from(["address", "inside", "random"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=400, deadline=None)
@given(draws=st.lists(_draw, min_size=1, max_size=8))
def test_fib_lookup_equals_the_scan(cases, draws):
    for case_index, machine_index, kind, bits in draws:
        dataplane, oracle, machines, addresses, prefixes = cases[case_index % len(cases)]
        machine = machines[machine_index % len(machines)]
        if kind == "address":
            address = addresses[bits % len(addresses)]
        elif kind == "inside":
            prefix = prefixes[bits % len(prefixes)]
            host = (bits * 2654435761) % prefix.num_addresses
            address = prefix.network_address + host
        else:
            address = ipaddress.ip_address(bits)
        _assert_same(dataplane, oracle, machine, address)


def test_every_case_meets_every_address(cases):
    """Exhaustive over the configured addresses: loopbacks, interfaces,
    management, plus one unrouted address, from every machine."""
    for dataplane, oracle, machines, addresses, _prefixes in cases:
        for machine in machines:
            for address in addresses:
                assert dataplane.lookup(machine, address) == oracle.lookup(machine, address)


def test_the_crafted_cases_reach_every_decision_kind(cases):
    """The tie and shared-subnet cases really produce the outcomes the
    first-wins and source-order rules decide between."""
    outcomes = set()
    for dataplane, _oracle, machines, addresses, prefixes in cases[5:7]:
        for machine in machines:
            for address in addresses + [prefix.network_address + 1 for prefix in prefixes]:
                decision = dataplane.lookup(machine, address)
                outcomes.add((decision.action, decision.source, decision.reason.split(" ")[0]))
    assert ("drop", "bgp", "blackhole") in outcomes
    assert ("drop", "", "no") in outcomes  # no route / no host on segment
    assert ("drop", "", "next") in outcomes  # next hop is self
    assert ("drop", "", "unresolvable") in outcomes
    assert {"connected", "igp", "bgp", "local"} <= {source for _a, source, _r in outcomes}


def test_non_ipv4_destination_is_no_route(si_lab):
    decision = si_lab.dataplane.lookup("as100r1", "::1")
    assert decision == scan_dataplane(si_lab.dataplane).lookup("as100r1", "::1")
    assert decision.reason == "no route"
