"""Booting from the received archive equals booting from the rendered directory.

``LocalEmulationHost.extract`` hands ``lstart`` a tree over the
received archive instead of unpacking it.  On every platform the lab
that boots from that tree must be the lab that boots from the rendered
directory: the same parsed intent, the same forwarding state and the
same running configurations.
"""

import pytest

from repro.compilers import platform_compiler
from repro.deployment import LocalEmulationHost, archive_lab
from repro.design import design_network
from repro.emulation import EmulatedLab, LabSnapshot, detect_platform
from repro.emulation.parsing import LAB_PARSERS
from repro.liveupdate.codec import lab_devices_to_dicts
from repro.loader import small_internet
from repro.render import render_nidb


@pytest.fixture(scope="module", params=["netkit", "dynagen", "junosphere", "cbgp"])
def rendered(request, tmp_path_factory):
    """(platform, rendered lab directory, host, archive received on the host)."""
    platform = request.param
    nidb = platform_compiler(platform, design_network(small_internet())).compile()
    lab_dir = render_nidb(nidb, tmp_path_factory.mktemp("render_" + platform)).lab_dir
    staging = str(tmp_path_factory.mktemp("staging_" + platform))
    host = LocalEmulationHost(str(tmp_path_factory.mktemp("host_" + platform)))
    archive = host.receive(archive_lab(lab_dir, platform, staging), platform)
    return platform, lab_dir, host, archive


@pytest.fixture(scope="module")
def labs(rendered):
    """The lab booted from the directory, and from the extracted tree."""
    platform, lab_dir, host, archive = rendered
    return (
        EmulatedLab.boot(lab_dir, max_rounds=40),
        EmulatedLab.boot(host.extract(archive, platform), max_rounds=40),
    )


def test_parsed_intents_match(rendered):
    platform, lab_dir, host, archive = rendered
    tree = host.extract(archive, platform)
    assert detect_platform(tree) == detect_platform(lab_dir) == platform
    parse = LAB_PARSERS[platform]
    assert lab_devices_to_dicts(parse(tree)) == lab_devices_to_dicts(parse(lab_dir))


def test_snapshots_match(labs):
    from_dir, from_archive = labs
    assert from_archive.converged == from_dir.converged
    assert LabSnapshot.of(from_archive) == LabSnapshot.of(from_dir)


def test_running_configs_match(rendered, labs):
    _, lab_dir, _, archive = rendered
    from_dir, from_archive = labs
    assert (from_dir.source, from_archive.source) == (lab_dir, archive)
    for vm in from_dir.vms():
        config = vm.run("show running-config")
        assert "! file: " in config
        assert from_archive.vm(vm.name).run("show running-config") == config


def test_parse_releases_the_archive(rendered):
    # no decompressed text may outlive the parse: the lab keeps only
    # where it came from and re-reads the archive on demand
    platform, _, host, archive = rendered
    tree = host.extract(archive, platform)
    EmulatedLab.boot(tree, max_rounds=40)
    assert tree._loaded is None


def test_a_fan_out_reads_the_archive_once(rendered, labs, monkeypatch):
    # show running-config on every VM of one send shares a single read of
    # the archive, and drops it when the send is done
    from repro.emulation import labtree
    from repro.measurement import MeasurementClient

    from_dir, from_archive = labs
    reads = []
    decompress = labtree.gzip.decompress
    monkeypatch.setattr(
        labtree.gzip, "decompress", lambda data: reads.append(1) or decompress(data)
    )
    names = sorted(vm.name for vm in from_dir.vms())
    run = MeasurementClient(from_archive).send("show running-config", names)
    assert len(reads) == 1 and from_archive.source_tree is None
    expected = MeasurementClient(from_dir).send("show running-config", names)
    assert [r.output for r in run.results] == [r.output for r in expected.results]
