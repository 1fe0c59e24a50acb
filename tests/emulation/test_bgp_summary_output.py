"""``show ip bgp summary`` counts received prefixes in one pass.

The per-neighbour count used to re-scan the router's selected table
once per neighbour; ``rescanned_summary`` keeps that reading as the
oracle, and every BGP router's output must match it byte for byte.
"""

import pytest


def rescanned_summary(vm) -> str:
    """The summary with one table scan per neighbour."""
    device = vm.intent
    lines = [
        "BGP router identifier %s, local AS number %d"
        % (device.bgp.router_id or device.loopback, device.bgp.asn),
        "Neighbor        V    AS MsgRcvd MsgSent   TblVer  InQ OutQ Up/Down  State/PfxRcd",
    ]
    selected = vm.lab.bgp_result.selected.get(vm.name, {})
    for neighbor in device.bgp.neighbors:
        peer_machine = vm.lab.network.owner_of(neighbor.peer_ip)
        received = sum(
            1 for route in selected.values() if route.learned_from == peer_machine
        )
        lines.append(
            "%-15s 4 %5d %7d %7d %8d %4d %4d %s %8d"
            % (
                neighbor.peer_ip,
                neighbor.remote_asn,
                vm.lab.bgp_result.rounds,
                vm.lab.bgp_result.rounds,
                0,
                0,
                0,
                "00:01:00",
                received,
            )
        )
    return "\n".join(lines)


@pytest.mark.parametrize("name", ["small_internet", "fig5", "rpki"])
def test_summary_equals_the_rescan(measured_labs, name):
    lab = measured_labs[name].lab
    routers = [vm for vm in lab.vms() if vm.intent.bgp is not None]
    assert routers
    sessions = received = 0
    for vm in routers:
        output = vm.run("show ip bgp summary")
        assert output == rescanned_summary(vm)
        rows = output.splitlines()[2:]
        sessions += len(rows)
        received += sum(int(row.split()[-1]) for row in rows)
    assert sessions > 0
    # the RPKI lab's routers originate no prefixes
    assert (received > 0) == (name != "rpki")


def test_summary_with_a_peer_powered_off(measured_labs):
    """Neighbours of a downed router match no machine: they report the
    routes whose learned_from is None, the locally originated ones."""
    lab = measured_labs["small_internet"].lab.fork()
    lab.node_down("as20r2")
    outputs = {vm.name: vm.run("show ip bgp summary") for vm in lab.vms()
               if vm.intent.bgp is not None and vm.name in lab.network.machines}
    for name, output in outputs.items():
        assert output == rescanned_summary(lab.vm(name))
    orphaned = [
        row for name in ("as20r1", "as20r3") for row in outputs[name].splitlines()[2:]
        if lab.network.owner_of(row.split()[0]) is None
    ]
    assert orphaned and all(int(row.split()[-1]) > 0 for row in orphaned)
