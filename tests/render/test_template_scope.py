"""Contract: a device's rendered files depend on that device alone.

The build engine's cache key and the scoped ``diff_designs`` both treat
a device's files as a function of its compiled subtree, so a device
whose fingerprint did not move renders the same bytes.  That holds only
while every bundled device template reads nothing but ``node``; only
the topology-level templates may read ``devices``/``topology``.
"""

from __future__ import annotations

import jinja2
import pytest
from jinja2 import meta

from repro.compilers import platform_compiler
from repro.design import design_network
from repro.loader import small_internet
from repro.nidb import stable_hash
from repro.render import environment, render_nidb

#: The topology-level outputs, rendered once per lab from every device.
TOPOLOGY_TEMPLATES = {
    "netkit/lab.conf.j2",
    "dynagen/lab.net.j2",
    "junosphere/topology.vmm.j2",
    "cbgp/network.cli.j2",
    "netkit/deploy.expect.j2",
    "netkit/tunnels.sh.j2",
}

BUNDLED = jinja2.PackageLoader("repro", "templates")


def _free_variables(name: str) -> set[str]:
    env = environment()
    source, _, _ = BUNDLED.get_source(env, name)
    return meta.find_undeclared_variables(env.parse(source))


def test_topology_templates_are_bundled():
    assert TOPOLOGY_TEMPLATES <= set(BUNDLED.list_templates())


@pytest.mark.parametrize(
    "name", sorted(set(BUNDLED.list_templates()) - TOPOLOGY_TEMPLATES)
)
def test_device_template_reads_only_node(name):
    assert _free_variables(name) <= {"node"}



@pytest.mark.parametrize("platform", ["netkit", "dynagen", "junosphere", "cbgp"])
def test_render_leaves_the_nidb_unchanged(platform, tmp_path):
    """The engine fingerprints a build's NIDB before rendering it."""
    nidb = platform_compiler(platform, design_network(small_internet())).compile()
    before = nidb.fingerprints()
    topology = stable_hash(nidb.topology)
    render_nidb(nidb, tmp_path)
    assert nidb.fingerprints() == before
    assert stable_hash(nidb.topology) == topology
