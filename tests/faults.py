"""Fault injection for the file writers: a disk that fills up."""

from pathlib import Path

from dermfeat import jsonio


class FullDisk:
    """An open file on a disk with room for `room` writes: the next write
    (or, with `at_close`, the close) raises ENOSPC. `on_disk` holds the
    file's bytes at the moment of the fault."""

    def __init__(self, fh, room: int, at_close: bool):
        self.fh, self.room, self.at_close = fh, room, at_close
        self.on_disk = None

    def _fault(self):
        self.fh.flush()
        self.on_disk = Path(self.fh.name).read_bytes()
        raise OSError(28, "No space left on device")

    def write(self, data):
        if self.room == 0:
            self._fault()
        self.room -= 1
        return self.fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        try:
            if self.at_close and exc_info[0] is None:
                self._fault()
        finally:
            self.fh.close()


def fill_disk(monkeypatch, room: int = -1, at_close: bool = False) -> list:
    """Open every file that `jsonio` opens for writing as a `FullDisk`;
    the returned list collects them. The default room never runs out."""
    opened = []

    def full_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "w" in mode:
            opened.append(fh := FullDisk(fh, room, at_close))
        return fh

    monkeypatch.setattr(jsonio, "open", full_open, raising=False)
    return opened
