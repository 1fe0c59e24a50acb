"""The lab archive's format and the host's extraction guard.

``archive_lab`` builds its own ustar headers (integer mtime, mode,
size, no owner names); these tests pin that the round trip through
``host.extract`` reproduces the rendered tree exactly, and that the
``data`` extraction filter still refuses members that would land
outside the host's work directory.
"""

import io
import os
import stat
import tarfile

import pytest

from repro.deployment import LocalEmulationHost, archive_lab
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
        lab_dir = host.extract(archive_path, "si")
        assert _tree(lab_dir) == _tree(si_render.lab_dir)

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


def _outside_files(tmp_path, work_dir):
    """Every file under ``tmp_path`` that is not inside ``work_dir``."""
    return {
        path
        for path, _ in _tree(tmp_path).items()
        if not path.startswith(os.path.relpath(work_dir, tmp_path) + os.sep)
        and not path.endswith(".tar.gz")
    }


class TestExtractGuard:
    def _extract(self, tmp_path, info):
        work_dir = tmp_path / "host"
        archive_path = _hostile(tmp_path / "hostile.tar.gz", info)
        host = LocalEmulationHost(work_dir=str(work_dir))
        return host, work_dir, archive_path

    def test_parent_traversal_is_rejected(self, tmp_path):
        host, work_dir, archive_path = self._extract(
            tmp_path, tarfile.TarInfo("../../escape")
        )
        with pytest.raises(DeploymentError, match="outside the destination"):
            host.extract(archive_path, "lab")
        assert _outside_files(tmp_path, work_dir) == set()

    def test_symlink_out_of_the_lab_is_rejected(self, tmp_path):
        info = tarfile.TarInfo("link")
        info.type = tarfile.SYMTYPE
        info.linkname = "../../../outside"
        host, work_dir, archive_path = self._extract(tmp_path, info)
        with pytest.raises(DeploymentError, match="outside the destination"):
            host.extract(archive_path, "lab")
        assert not os.path.lexists(str(work_dir / "lab" / "link"))

    def test_symlink_to_an_absolute_path_is_rejected(self, tmp_path):
        info = tarfile.TarInfo("link")
        info.type = tarfile.SYMTYPE
        info.linkname = "/tmp/x"
        host, work_dir, archive_path = self._extract(tmp_path, info)
        with pytest.raises(DeploymentError, match="absolute path"):
            host.extract(archive_path, "lab")
        assert not os.path.lexists(str(work_dir / "lab" / "link"))

    def test_absolute_member_stays_inside_the_lab(self, tmp_path):
        # the data filter strips the leading slash rather than refusing
        # the member: it lands under the lab directory, never at /tmp/x
        target = str(tmp_path / "x")
        host, work_dir, archive_path = self._extract(tmp_path, tarfile.TarInfo(target))
        lab_dir = host.extract(archive_path, "lab")
        assert not os.path.exists(target)
        assert os.path.isfile(os.path.join(lab_dir, target.lstrip("/")))
        assert _outside_files(tmp_path, work_dir) == set()
