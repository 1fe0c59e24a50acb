"""Unit tests for d3 export, highlighting, and rendering (§5.6)."""

import json

import pytest

from repro.measurement import MeasurementClient
from repro.visualization import (
    adjacency_table,
    anm_to_d3,
    highlight,
    highlight_trace,
    overlay_summary,
    overlay_to_d3,
    path_diagram,
    render_svg,
    write_html,
    write_json,
)


@pytest.fixture(scope="module")
def d3(si_anm_module):
    return overlay_to_d3(si_anm_module["ebgp"])


@pytest.fixture(scope="module")
def si_anm_module():
    from repro.design import design_network
    from repro.loader import small_internet

    return design_network(small_internet())


class TestD3Export:
    def test_node_and_link_structure(self, d3):
        assert d3["overlay"] == "ebgp"
        assert d3["directed"] is True
        assert len(d3["nodes"]) == 14
        assert len(d3["links"]) == 16  # 8 sessions, both directions
        sample = d3["nodes"][0]
        assert set(sample) >= {"id", "label", "group", "attributes"}

    def test_grouping_by_asn(self, d3):
        groups = {node["id"]: node["group"] for node in d3["nodes"]}
        assert groups["as100r1"] == 100
        assert groups["as1r1"] == 1

    def test_custom_group_attribute(self, si_anm_module):
        data = overlay_to_d3(si_anm_module["phy"], group_attr="device_type")
        assert all(node["group"] == "router" for node in data["nodes"])

    def test_attribute_selection(self, si_anm_module):
        data = overlay_to_d3(si_anm_module["phy"], attributes=["asn"])
        assert "attributes" not in data["nodes"][0]
        assert data["nodes"][0]["asn"] is not None

    def test_json_serialisable(self, d3, tmp_path):
        write_json(d3, str(tmp_path / "out.json"))
        loaded = json.loads((tmp_path / "out.json").read_text())
        assert loaded["overlay"] == "ebgp"

    def test_anm_export_covers_all_overlays(self, si_anm_module):
        data = anm_to_d3(si_anm_module)
        assert set(data) == set(si_anm_module.overlays())


class TestHighlight:
    def test_nodes_and_paths(self, d3):
        result = highlight_trace(d3, ["as300r2", "as40r1", "as1r1"])
        highlighted_nodes = {n["id"] for n in result["nodes"] if n["highlighted"]}
        assert highlighted_nodes == {"as300r2", "as1r1"}  # endpoints
        highlighted_links = [l for l in result["links"] if l["highlighted"]]
        assert highlighted_links
        assert result["paths"] == [["as300r2", "as40r1", "as1r1"]]

    def test_empty_path(self, d3):
        result = highlight_trace(d3, [])
        assert not any(n["highlighted"] for n in result["nodes"])

    def test_original_untouched(self, d3):
        highlight(d3, nodes=["as1r1"])
        assert "highlighted" not in d3["nodes"][0]

    def test_explicit_edges(self, d3):
        result = highlight(d3, edges=[("as1r1", "as40r1")])
        marked = {
            tuple(sorted((l["source"], l["target"])))
            for l in result["links"]
            if l["highlighted"]
        }
        assert marked == {("as1r1", "as40r1")}



class TestPaperFigures:
    """Figures 1 and 7 come out of this module, as in the paper (§5.6)."""

    def test_figure1_physical_topology(self, si_anm_module):
        data = overlay_to_d3(si_anm_module["phy"])
        assert len(data["nodes"]) == 14 and len(data["links"]) == 18

    def test_figure7_highlighted_traceroute(self, si_anm, si_nidb, si_lab):
        destination = si_nidb.node("as100r2").loopback
        run = MeasurementClient(si_lab, si_nidb).send(
            "traceroute -naU %s" % destination, ["as300r2"]
        )
        path = ["as300r2"] + run.results[0].mapped_path
        assert path[-1] == "as100r2"
        assert run.results[0].as_path[-1] == 100
        data = highlight_trace(overlay_to_d3(si_anm["phy"]), path)
        assert data["paths"] == [path]
        assert sum(link["highlighted"] for link in data["links"]) == len(path) - 1


class TestRendering:
    def test_svg_contains_all_nodes(self, d3):
        svg = render_svg(d3)
        assert svg.count("<circle") == 14
        assert "as100r1" in svg

    def test_svg_highlight_color(self, d3):
        marked = highlight_trace(d3, ["as300r2", "as40r1"])
        svg = render_svg(marked)
        assert "#d62728" in svg

    def test_write_html_self_contained(self, d3, tmp_path):
        path = tmp_path / "view.html"
        write_html(d3, str(path), title="eBGP sessions")
        text = path.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "eBGP sessions" in text
        assert "<svg" in text and "</svg>" in text
        assert "http" not in text.split("</head>")[0]  # no external deps

    def test_empty_overlay_svg(self):
        assert render_svg({"nodes": [], "links": []}) == "<svg/>"


class TestAscii:
    def test_overlay_summary(self, si_anm_module):
        text = overlay_summary(si_anm_module["ospf"])
        assert text.startswith("overlay ospf: 14 nodes, 10 edges")
        assert "asn 100:" in text

    def test_adjacency_table(self, si_anm_module):
        text = adjacency_table(si_anm_module["ospf"])
        assert "as100r1" in text
        assert "(isolated)" in text  # single-router ASes

    def test_path_diagram(self):
        assert path_diagram(["a", "b", "c"]) == "a -> b -> c"
