"""The lab archive's format and the host's extraction guard.

``archive_lab`` builds its own ustar headers (integer mtime, mode,
size, no owner names); these tests pin that the round trip through
``host.extract`` reproduces the rendered tree exactly, and that the
extraction guard (the ``data`` filter's rules, checked without writing
anything) refuses members that would land outside the lab, links and
special files.
"""

import io
import os
import stat
import tarfile

import pytest

from repro.deployment import LocalEmulationHost, archive_lab
from repro.emulation import LabTree
from repro.exceptions import DeploymentError


def _tree(root):
    """{relpath: (bytes, permission bits)} for every file under ``root``."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = (
                    handle.read(),
                    stat.S_IMODE(os.stat(path).st_mode),
                )
    return found


def _texts(tree, directory=""):
    """{relpath: text} for every file of a LabTree."""
    found = {}
    for name in tree.listdir(directory):
        path = directory + "/" + name if directory else name
        text = tree.read(path)
        if text is None:
            found.update(_texts(tree, path))
        else:
            found[path] = text
    return found


def _preorder(root, prefix=""):
    """Relpaths in sorted pre-order, each directory before its contents."""
    names = []
    for name in sorted(os.listdir(root)):
        names.append(prefix + name)
        path = os.path.join(root, name)
        if os.path.isdir(path) and not os.path.islink(path):
            names.extend(_preorder(path, prefix + name + "/"))
    return names


class TestArchiveFormat:
    def test_extract_reproduces_the_rendered_tree(self, si_render, tmp_path):
        archive_path = archive_lab(si_render.lab_dir, "si", str(tmp_path))
        host = LocalEmulationHost(work_dir=str(tmp_path / "host"))
        tree = host.extract(archive_path, "si")
        rendered = _tree(si_render.lab_dir)
        texts = {path: data.decode() for path, (data, _) in rendered.items()}
        assert _texts(tree) == texts
        assert _texts(LabTree(si_render.lab_dir)) == texts
        # the mode archive_lab writes in its own headers is what tar xzf restores
        with tarfile.open(archive_path) as archive:
            modes = {m.name: m.mode for m in archive.getmembers() if m.isreg()}
        assert modes == {path: mode for path, (_, mode) in rendered.items()}
        assert os.listdir(tmp_path / "host") == []

    def test_members_in_sorted_preorder_without_pax_headers(self, si_render, tmp_path):
        archive_path = archive_lab(si_render.lab_dir, "si", str(tmp_path))
        with tarfile.open(archive_path) as archive:
            members = archive.getmembers()
        assert [member.name for member in members] == _preorder(si_render.lab_dir)
        assert all(member.pax_headers == {} for member in members)
        assert all(isinstance(member.mtime, int) for member in members)
        assert all(member.uname == "" and member.gname == "" for member in members)


def _hostile(path, info, payload=b"owned\n"):
    with tarfile.open(path, "w:gz") as archive:
        if info.type == tarfile.REGTYPE:
            info.size = len(payload)
            archive.addfile(info, io.BytesIO(payload))
        else:
            archive.addfile(info)
    return str(path)


def _assert_nothing_written(tmp_path, work_dir):
    assert set(_tree(tmp_path)) == {"hostile.tar.gz"}
    assert os.listdir(work_dir) == []


class TestExtractGuard:
    def _extract(self, tmp_path, info):
        work_dir = tmp_path / "host"
        archive_path = _hostile(tmp_path / "hostile.tar.gz", info)
        host = LocalEmulationHost(work_dir=str(work_dir))
        return host, work_dir, archive_path

    def _refused(self, tmp_path, info, match):
        host, work_dir, archive_path = self._extract(tmp_path, info)
        with pytest.raises(DeploymentError, match=match):
            host.extract(archive_path, "lab")
        _assert_nothing_written(tmp_path, work_dir)

    def test_parent_traversal_is_rejected(self, tmp_path):
        self._refused(tmp_path, tarfile.TarInfo("../../escape"), "outside the destination")

    def test_normalised_traversal_is_rejected(self, tmp_path):
        self._refused(tmp_path, tarfile.TarInfo("a/../../x"), "outside the destination")

    def test_symlink_out_of_the_lab_is_rejected(self, tmp_path):
        info = tarfile.TarInfo("link")
        info.type = tarfile.SYMTYPE
        info.linkname = "../../../outside"
        self._refused(tmp_path, info, "outside the destination")

    def test_symlink_to_an_absolute_path_is_rejected(self, tmp_path):
        info = tarfile.TarInfo("link")
        info.type = tarfile.SYMTYPE
        info.linkname = "/tmp/x"
        self._refused(tmp_path, info, "absolute path")

    def test_hard_link_out_of_the_lab_is_rejected(self, tmp_path):
        info = tarfile.TarInfo("link")
        info.type = tarfile.LNKTYPE
        info.linkname = "../../outside"
        self._refused(tmp_path, info, "outside the destination")

    def test_symlink_inside_the_lab_is_refused(self, tmp_path):
        # the renderer makes no links, so the tree takes none
        info = tarfile.TarInfo("link")
        info.type = tarfile.SYMTYPE
        info.linkname = "lab.conf"
        self._refused(tmp_path, info, "special file")

    def test_character_device_is_rejected(self, tmp_path):
        info = tarfile.TarInfo("tty")
        info.type = tarfile.CHRTYPE
        info.devmajor, info.devminor = 5, 0
        self._refused(tmp_path, info, "special file")

    def test_fifo_is_rejected(self, tmp_path):
        info = tarfile.TarInfo("pipe")
        info.type = tarfile.FIFOTYPE
        self._refused(tmp_path, info, "special file")

    def test_corrupt_archive_is_a_deployment_error(self, tmp_path):
        work_dir = tmp_path / "host"
        archive_path = tmp_path / "hostile.tar.gz"
        archive_path.write_bytes(b"\x1f\x8b" + b"not gzip at all")
        host = LocalEmulationHost(work_dir=str(work_dir))
        with pytest.raises(DeploymentError, match="could not extract"):
            host.extract(str(archive_path), "lab")
        _assert_nothing_written(tmp_path, work_dir)

    def test_absolute_member_stays_inside_the_lab(self, tmp_path):
        # the data filter strips the leading slash rather than refusing
        # the member: it lands inside the lab, never at /tmp/x
        target = str(tmp_path / "x")
        host, work_dir, archive_path = self._extract(tmp_path, tarfile.TarInfo(target))
        tree = host.extract(archive_path, "lab")
        assert not os.path.exists(target)
        assert tree.read(target.lstrip("/")) == "owned\n"
        _assert_nothing_written(tmp_path, work_dir)
