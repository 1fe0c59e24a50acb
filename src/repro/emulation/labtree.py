"""A read-only view of a rendered lab: relative path to text.

The parsers and ``show running-config`` read a lab only through
:class:`LabTree`, so it boots alike from the rendered directory or from
the received ``.tar.gz``, unpacked to memory and checked by the rules of
tarfile's ``data`` filter with path arithmetic alone.  The renderer
makes only files and directories, so links and special files are refused.
"""

from __future__ import annotations

import gzip
import io
import os
import tarfile
import zlib

from repro.exceptions import ConfigParseError


class LabTree:
    """A rendered lab, backed by a directory or by a ``.tar.gz`` archive.

    Paths are relative to the lab root and ``/``-separated.  An archive
    is read on first use and dropped on leaving a ``with`` block; every
    parser leaves one on return, so no decompressed text outlives a parse.
    """

    def __init__(self, source: str | os.PathLike):
        #: Where the tree comes from: the lab directory or the archive.
        self.source = os.fspath(source)
        self.is_archive = os.path.isfile(self.source)
        self._loaded: tuple[memoryview, dict, dict] | None = None

    @classmethod
    def of(cls, source: "str | os.PathLike | LabTree") -> "LabTree":
        """``source`` itself if it is a tree (keeping what it has read), else a new one."""
        return source if isinstance(source, LabTree) else cls(source)

    def __enter__(self) -> "LabTree":
        return self

    def __exit__(self, *_exc) -> None:
        self._loaded = None

    def read(self, path: str) -> str | None:
        """The file's text, None if there is none; ConfigParseError if not UTF-8."""
        if self.is_archive:
            buffer, files, _ = self.load()
            if path not in files:
                return None
            data = buffer[files[path][0] : files[path][1]]
        else:
            try:
                with open(os.path.join(self.source, path), "rb") as handle:
                    data = handle.read()
            except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
                return None
        try:
            return str(data, "utf-8")
        except UnicodeDecodeError as exc:
            line = bytes(data[: exc.start]).count(b"\n") + 1
            raise ConfigParseError("not valid UTF-8: %s" % exc.reason, path, line) from None

    def listdir(self, path: str = "") -> list[str]:
        """Sorted entry names of the directory at ``path``; empty if there is none."""
        if self.is_archive:
            return sorted(self.load()[2].get(path, ()))
        try:
            return sorted(os.listdir(os.path.join(self.source, path)))
        except (FileNotFoundError, NotADirectoryError):
            return []

    def load(self) -> tuple[memoryview, dict, dict]:
        """The archive's (text, files, dirs), checked on first use; TarError if refused."""
        if self._loaded is not None:
            return self._loaded
        with open(self.source, "rb") as handle:
            try:
                data = gzip.decompress(handle.read())
            except (OSError, EOFError, zlib.error) as exc:
                raise tarfile.ReadError("not a gzip archive: %s" % exc) from None
        files, dirs = {}, {}
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:") as archive:
            for member in archive:
                path = _checked(member)
                if member.isreg():
                    files[path] = (member.offset_data, member.offset_data + member.size)
                while path != ".":
                    parent, _, name = path.rpartition("/")
                    dirs.setdefault(parent, set()).add(name)
                    path = parent or "."
        self._loaded = (memoryview(data), files, dirs)
        return self._loaded


def _checked(member: tarfile.TarInfo) -> str:
    """The member's normalised path in the lab, by the ``data`` filter's rules."""
    path = os.path.normpath(member.name.lstrip("/"))
    if path.partition("/")[0] == os.pardir:
        raise tarfile.OutsideDestinationError(member, path)
    if member.islnk() or member.issym():
        if os.path.isabs(member.linkname):
            raise tarfile.AbsoluteLinkError(member)
        base = os.path.dirname(path) if member.issym() else ""
        target = os.path.normpath(os.path.join(base, member.linkname))
        if target.partition("/")[0] == os.pardir:
            raise tarfile.LinkOutsideDestinationError(member, target)
    if not (member.isreg() or member.isdir()) or member.issparse():
        raise tarfile.SpecialFileError(member)
    return path
