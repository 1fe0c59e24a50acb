"""Differential test: the single-pass ``parse_bgpd`` ≡ the three-pass parser.

``reference_parse_bgpd`` is the parser the lab boot used before it
became one pass over the lines, kept verbatim (with the route-map and
prefix-list scans it ran first) as the oracle.  The generated files
mix route-maps (local-pref, MED, prepend, communities, and deny
blocks whose ``set`` lines fall to the previous permit map),
prefix-lists with deny and permit entries, policy sections before or
after the router block, neighbour statements in permuted order, and
the two error cases: an option before its ``remote-as`` and a file
with no ``router bgp``.
"""

import ipaddress
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulation.intent import BgpIntent, BgpNeighborIntent
from repro.emulation.parsing import parse_bgpd
from repro.exceptions import ConfigParseError


def reference_parse_bgpd(text: str, filename: str = "bgpd.conf") -> BgpIntent:
    """Parse a bgpd.conf: sessions, origination, and route-map policy."""
    route_maps = _route_map_actions(text)
    prefix_lists = _prefix_list_denies(text)
    local_prefs = {name: actions["local_pref"] for name, actions in route_maps.items()
                   if actions.get("local_pref") is not None}
    asn_match = re.search(r"^router bgp\s+(\d+)", text, re.MULTILINE)
    if asn_match is None:
        raise ConfigParseError("no 'router bgp' stanza", filename)
    intent = BgpIntent(asn=int(asn_match.group(1)))
    in_router = False
    neighbors: dict[str, BgpNeighborIntent] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("!"):
            continue
        if line.startswith("router bgp"):
            in_router = True
            continue
        if line.startswith("route-map"):
            in_router = False
        if not in_router:
            continue
        if line.startswith("bgp router-id "):
            intent.router_id = line.split()[-1]
        elif line.startswith("network "):
            intent.networks.append(ipaddress.ip_network(line.split()[1], strict=False))
        elif line.startswith("neighbor "):
            parts = line.split()
            peer = parts[1]
            if parts[2] == "remote-as":
                neighbors[peer] = BgpNeighborIntent(
                    peer_ip=ipaddress.ip_address(peer),
                    remote_asn=int(parts[3]),
                )
            elif peer not in neighbors:
                raise ConfigParseError(
                    "neighbor %s configured before remote-as" % peer, filename, lineno
                )
            elif parts[2] == "description":
                neighbors[peer].description = " ".join(parts[3:])
            elif parts[2] == "update-source":
                neighbors[peer].update_source = parts[3]
            elif parts[2] == "next-hop-self":
                neighbors[peer].next_hop_self = True
            elif parts[2] == "route-reflector-client":
                neighbors[peer].rr_client = True
            elif parts[2] == "route-map" and parts[-1] == "in":
                neighbors[peer].local_pref_in = local_prefs.get(parts[3])
            elif parts[2] == "route-map" and parts[-1] == "out":
                actions = route_maps.get(parts[3], {})
                if actions.get("metric") is not None:
                    neighbors[peer].med_out = actions["metric"]
                neighbors[peer].prepend_out = actions.get("prepend", 0)
                neighbors[peer].communities_out = actions.get("communities", ())
            elif parts[2] == "prefix-list" and parts[-1] == "out":
                neighbors[peer].deny_out = prefix_lists.get(parts[3], ())
            elif parts[2] == "prefix-list" and parts[-1] == "in":
                neighbors[peer].deny_in = prefix_lists.get(parts[3], ())
    intent.neighbors = list(neighbors.values())
    return intent


def _route_map_actions(text: str) -> dict[str, dict]:
    """Mapping of route-map name to its set actions.

    Collected actions: ``local_pref``, ``metric`` (MED), and
    ``prepend`` (number of ASNs in a ``set as-path prepend``).
    """
    actions: dict[str, dict] = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("route-map ") and " permit " in line:
            current = line.split()[1]
            actions[current] = {}
        elif current is None:
            continue
        elif line.startswith("set local-preference "):
            actions[current]["local_pref"] = int(line.split()[-1])
        elif line.startswith("set metric "):
            actions[current]["metric"] = int(line.split()[-1])
        elif line.startswith("set as-path prepend "):
            actions[current]["prepend"] = len(line.split()[3:])
        elif line.startswith("set community "):
            members = [
                token
                for token in line.split()[2:]
                if token != "additive"
            ]
            actions[current]["communities"] = tuple(members)
    return actions


def _prefix_list_denies(text: str) -> dict[str, tuple]:
    """Prefix-list deny entries: {list name: (denied networks, ...)}."""
    denies: dict[str, list] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("ip prefix-list "):
            continue
        parts = line.split()
        # ip prefix-list NAME seq N (deny|permit) CIDR [le N]
        if len(parts) >= 6 and parts[5] == "deny":
            denies.setdefault(parts[2], []).append(
                ipaddress.ip_network(parts[6], strict=False)
            )
        else:
            denies.setdefault(parts[2], [])
    return {name: tuple(entries) for name, entries in denies.items()}


PEERS = ["10.0.0.%d" % index for index in range(1, 6)] + ["192.168.0.9"]
POLICIES = ["rm-a", "rm-b", "rm-c", "pl-a", "pl-b"]
CIDRS = ["10.%d.0.0/16" % index for index in range(4)] + ["172.16.1.0/24"]


@st.composite
def route_map_blocks(draw):
    name = draw(st.sampled_from(POLICIES))
    action = draw(st.sampled_from(["permit", "permit", "deny"]))
    lines = ["route-map %s %s %d" % (name, action, draw(st.integers(1, 30)))]
    sets = [
        " set local-preference %d" % draw(st.integers(50, 300)),
        " set metric %d" % draw(st.integers(0, 500)),
        " set as-path prepend %s" % " ".join(["65000"] * draw(st.integers(1, 4))),
        " set community %s additive" % " ".join(
            draw(st.lists(st.sampled_from(["1:1", "2:20", "65000:7"]),
                          min_size=1, max_size=3))
        ),
    ]
    lines += draw(st.lists(st.sampled_from(sets), max_size=4))
    return lines + ["!"]


@st.composite
def prefix_list_lines(draw):
    name = draw(st.sampled_from(POLICIES))
    action = draw(st.sampled_from(["deny", "permit"]))
    cidr = draw(st.sampled_from(CIDRS + ["0.0.0.0/0 le 32"]))
    return "ip prefix-list %s seq %d %s %s" % (name, draw(st.integers(1, 1000)), action, cidr)


@st.composite
def neighbor_lines(draw):
    peers = draw(st.lists(st.sampled_from(PEERS), min_size=1, max_size=4, unique=True))
    declared = ["neighbor %s remote-as %d" % (peer, draw(st.integers(1, 70000)))
                for peer in peers]
    # now and then an option names a peer that never gets a remote-as
    targets = peers * 4 + [draw(st.sampled_from(PEERS))]
    options = []
    for peer in draw(st.lists(st.sampled_from(targets), max_size=10)):
        option = draw(st.sampled_from([
            "description peer %s" % peer,
            "update-source lo",
            "next-hop-self",
            "route-reflector-client",
            "route-map %s in" % draw(st.sampled_from(POLICIES)),
            "route-map %s out" % draw(st.sampled_from(POLICIES)),
            "prefix-list %s in" % draw(st.sampled_from(POLICIES)),
            "prefix-list %s out" % draw(st.sampled_from(POLICIES)),
            "remote-as %d" % draw(st.integers(1, 70000)),
        ]))
        options.append("neighbor %s %s" % (peer, option))
    if draw(st.integers(0, 2)) == 1:
        return draw(st.permutations(declared + options))
    # every session declared first, options in any order after
    return declared + draw(st.permutations(options))


@st.composite
def bgpd_files(draw):
    router = ["router bgp %d" % draw(st.integers(1, 70000))]
    if draw(st.integers(0, 9)) == 7:
        router = []  # the no-'router bgp' error case
    router += [" bgp router-id 192.168.0.%d" % draw(st.integers(1, 254))]
    router += [" network %s" % cidr for cidr in draw(st.lists(st.sampled_from(CIDRS), max_size=3))]
    router += [" " + line for line in draw(neighbor_lines())]
    router.append("!")
    policy = []
    for block in draw(st.lists(route_map_blocks(), max_size=5)):
        policy += block
    policy += draw(st.lists(prefix_list_lines(), max_size=6))
    header = ["hostname r1", "password 1234", "!"]
    if draw(st.booleans()):
        return "\n".join(header + router + policy) + "\n"
    return "\n".join(header + policy + router) + "\n"


def _outcome(parse, text):
    try:
        return ("ok", parse(text, "bgpd.conf"))
    except ConfigParseError as exc:
        return ("error", type(exc), str(exc), exc.filename, exc.line)


@settings(max_examples=300, deadline=None)
@given(bgpd_files())
def test_single_pass_parse_matches_the_three_pass_parser(text):
    assert _outcome(parse_bgpd, text) == _outcome(reference_parse_bgpd, text)


def test_generated_files_reach_both_error_cases():
    no_router = "hostname r1\n neighbor 10.0.0.1 remote-as 2\n"
    misplaced = "router bgp 1\n neighbor 10.0.0.1 next-hop-self\n"
    for text in (no_router, misplaced):
        expected = _outcome(reference_parse_bgpd, text)
        assert expected[0] == "error"
        assert _outcome(parse_bgpd, text) == expected
