"""Emulated network substrate: boots rendered configs into a running lab.

This package is the substitution for the real emulation platforms the
paper deploys onto (Netkit/Dynagen/Junosphere/C-BGP): it parses the
*generated configuration files*, builds the layer-2 fabric, converges
OSPF and BGP (with per-vendor decision-process semantics), and offers
virtual machines that execute measurement commands.  See DESIGN.md.
"""

from repro.emulation.bgp_engine import (
    VENDOR_PROFILES,
    BgpResult,
    BgpRoute,
    BgpSimulation,
    VendorProfile,
)
from repro.emulation.dataplane import Dataplane, ForwardingDecision, TraceResult
from repro.emulation.dns_engine import DnsEngine
from repro.emulation.intent import (
    BgpIntent,
    BgpNeighborIntent,
    DeviceIntent,
    DnsIntent,
    DnsZoneIntent,
    InterfaceIntent,
    IsisIntent,
    LabIntent,
    OspfIntent,
)
from repro.emulation.lab import EmulatedLab, detect_platform
from repro.emulation.network import EmulatedNetwork, Segment
from repro.emulation.ospf_engine import IgpRoute, IgpState
from repro.emulation.snapshot import LabSnapshot
from repro.emulation.vm import VirtualMachine
from repro.emulation.whatif import (
    compare_reachability,
    fail_links,
    fail_node,
    reachability_matrix,
    reachability_summary,
)

__all__ = [
    "BgpIntent",
    "BgpNeighborIntent",
    "BgpResult",
    "BgpRoute",
    "BgpSimulation",
    "Dataplane",
    "DeviceIntent",
    "DnsEngine",
    "DnsIntent",
    "DnsZoneIntent",
    "EmulatedLab",
    "EmulatedNetwork",
    "ForwardingDecision",
    "IgpRoute",
    "IgpState",
    "InterfaceIntent",
    "IsisIntent",
    "LabIntent",
    "LabSnapshot",
    "OspfIntent",
    "Segment",
    "TraceResult",
    "VENDOR_PROFILES",
    "VendorProfile",
    "VirtualMachine",
    "compare_reachability",
    "detect_platform",
    "fail_links",
    "fail_node",
    "reachability_matrix",
    "reachability_summary",
]
