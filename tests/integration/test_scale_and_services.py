"""Integration: scale (E3/E8), RPKI (E7), IS-IS (E4), Rocketfuel input."""

import inspect
import os

import pytest

from repro import run_experiment
from repro.compilers import platform_compiler
from repro.compilers.base import RouterCompiler
from repro.deployment import LocalEmulationHost, deploy
from repro.design import build_isis, design_network
from repro.loader import (
    attach_servers,
    european_nren_model,
    load_rocketfuel,
    multi_as_topology,
    rpki_topology,
    small_internet,
    write_cch,
)
from repro.render import render_nidb


class TestNrenScaleSlice:
    """A reduced-scale slice of the §3.2 experiment (full scale is the
    ledger's nren_cold row)."""

    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        return run_experiment(
            european_nren_model(scale=0.05),
            output_dir=str(tmp_path_factory.mktemp("nren")),
            deploy=False,
        )

    def test_configuration_pipeline_completes(self, result):
        assert result.render_result.n_files > 100

    def test_every_router_configured(self, result):
        lab_dir = result.render_result.lab_dir
        for device in result.nidb.routers():
            assert os.path.exists(
                os.path.join(lab_dir, device.hostname, "etc", "quagga", "zebra.conf")
            )

    def test_scaled_lab_boots_and_converges(self, result, tmp_path_factory):
        from repro.emulation import EmulatedLab

        lab = EmulatedLab.boot(
            result.render_result.lab_dir, max_rounds=96, keep_history=False
        )
        assert lab.converged
        # Cross-AS reachability spot check between two NREN routers.
        machines = sorted(lab.network.machines)
        source = machines[0]
        target = machines[-1]
        loopback = lab.network.device(target).loopback
        assert lab.dataplane.ping(source, loopback)


class TestServersAtScale:
    def test_routers_plus_servers_compile(self, tmp_path):
        graph = attach_servers(multi_as_topology(n_ases=2, routers_per_as=3), per_router=2)
        result = run_experiment(graph, output_dir=str(tmp_path), deploy=False)
        assert len(result.nidb.servers()) == 12
        # Servers have addresses and resolv.conf but no routing daemons.
        server = result.nidb.servers()[0]
        assert server.physical_interfaces()
        assert server.bgp is None


class TestRpkiDeployment:
    """E7 (§3.3): an RPKI service network deployed as a lab."""

    @pytest.fixture(scope="class")
    def record(self, tmp_path_factory):
        graph = rpki_topology(n_child_cas=3, n_caches=5, n_routers=4)
        anm = design_network(
            graph, rules=("phy", "ipv4", "ospf", "ebgp", "ibgp", "dns", "rpki")
        )
        nidb = platform_compiler("netkit", anm).compile()
        rendered = render_nidb(nidb, tmp_path_factory.mktemp("rpki"))
        host = LocalEmulationHost(work_dir=str(tmp_path_factory.mktemp("rpki_host")))
        return deploy(rendered.lab_dir, host=host, lab_name="rpki")

    def test_all_vms_deploy(self, record):
        # 1 root CA + 3 CAs + 2 pubs + 5 caches + 4 routers = 15 machines.
        assert len(record.lab.network) == 15

    def test_rpki_configs_parsed_on_boot(self, record):
        devices = record.lab.network.machines
        roles = {d.rpki_role for d in devices.values() if d.rpki_role}
        assert roles == {"ca", "publication", "cache", "rtr_client"}

    def test_ca_resources_flow_into_configs(self, record):
        ca_root = record.lab.network.device("ca_root")
        assert ca_root.rpki_config["is_root"] == "True"
        assert ca_root.rpki_config["resources"]
        child = record.lab.network.device("ca1")
        assert child.rpki_config["parent"] == "ca_root"
        assert child.rpki_config["roas"]


class TestIsisExtension:
    """E4 (§7): IS-IS as the extensibility example."""

    @staticmethod
    def _code_lines(func):
        return [
            line.strip()
            for line in inspect.getsource(func).splitlines()
            if line.strip()
            and not line.strip().startswith(("#", '"""', "def ", "@"))
        ]

    def test_design_rule_is_two_essential_statements(self):
        """Paper: "2 lines of design code"; the rest is defaulting."""
        lines = self._code_lines(build_isis)
        assert len(lines) <= 20
        essential = [
            line for line in lines
            if "add_overlay" in line or "add_edges_from" in line
        ]
        assert len(essential) == 2

    def test_compiler_hook_is_about_fifteen_lines(self):
        """Paper: "15 lines in the compiler"."""
        assert len(self._code_lines(RouterCompiler.isis)) <= 20

    def test_isis_end_to_end(self, tmp_path):
        result = run_experiment(
            small_internet(),
            rules=("phy", "ipv4", "isis", "ebgp", "ibgp"),
            output_dir=str(tmp_path),
            deploy=False,
        )
        lab_dir = result.render_result.lab_dir
        path = os.path.join(lab_dir, "as100r1", "etc", "quagga", "isisd.conf")
        text = open(path).read()
        assert "router isis" in text
        assert "net 49." in text
        daemons = open(
            os.path.join(lab_dir, "as100r1", "etc", "quagga", "daemons")
        ).read()
        assert "isisd=yes" in daemons and "ospfd=no" in daemons


class TestRocketfuelInput:
    def test_cch_to_configs(self, tmp_path):
        write_cch(multi_as_topology(n_ases=1, routers_per_as=6, seed=3), tmp_path / "isp.cch")
        graph = load_rocketfuel(tmp_path / "isp.cch", asn=7018)
        result = run_experiment(graph, output_dir=str(tmp_path / "out"))
        assert result.lab.converged
        assert len(result.lab.network) == 6
