"""Binary Netpbm codecs: P5 (16-bit) and P6 (8-bit) share one raster path."""

import numpy as np
import pytest

from dermfeat import netpbm
from faults import fill_disk


def test_p6_round_trip_and_header(tmp_path):
    rgb = np.random.default_rng(0).integers(0, 256, (3, 5, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    netpbm.write_ppm8(path, rgb)
    assert path.read_bytes() == b"P6\n5 3\n255\n" + rgb.tobytes()
    back = netpbm.read_ppm8(path)
    np.testing.assert_array_equal(back, rgb)
    assert back.dtype == np.uint8 and back.flags.writeable


def test_p5_round_trip_keeps_comment(tmp_path):
    values = np.array([[0, 1, 65535], [256, 2, 3]])
    path = tmp_path / "map.pgm"
    netpbm.write_pgm16(path, values, comment="K=4")
    assert path.read_bytes().startswith(b"P5\n# K=4\n3 2\n65535\n")
    back, comments = netpbm.read_pgm16(path)
    np.testing.assert_array_equal(back, values)
    assert back.dtype == np.int64 and comments == ["K=4"]


@pytest.mark.parametrize("write, read, payload", [
    (netpbm.write_ppm8, netpbm.read_ppm8, np.zeros((2, 2, 3), dtype=np.uint8)),
    (lambda p, v: netpbm.write_pgm16(p, v), netpbm.read_pgm16,
     np.zeros((2, 2), dtype=np.int64)),
], ids=["P6", "P5"])
class TestRejects:
    def test_truncated_raster_names_path(self, tmp_path, write, read, payload):
        path = tmp_path / "f"
        write(path, payload)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(netpbm.NetpbmError,
                           match=f"{path}: truncated raster"):
            read(path)

    def test_wrong_maxval_names_path(self, tmp_path, write, read, payload):
        path = tmp_path / "f"
        write(path, payload)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"\n255\n", b"\n254\n", 1)
                         .replace(b"\n65535\n", b"\n65534\n", 1))
        with pytest.raises(netpbm.NetpbmError, match=f"{path}: expected maxval"):
            read(path)

    def test_overlong_header_number_names_path(self, tmp_path, write, read,
                                               payload):
        path = tmp_path / "f"
        write(path, payload)
        data = path.read_bytes()
        path.write_bytes(data[:3] + b"2" * 5000 + data[3:])  # the width
        with pytest.raises(netpbm.NetpbmError, match=(
                f"{path}: header number longer than "
                f"{netpbm.MAX_HEADER_DIGITS} digits")):
            read(path)
        # The longest run accepted: leading zeros, the same width.
        path.write_bytes(data[:3] + b"0" * (netpbm.MAX_HEADER_DIGITS - 1)
                         + data[3:])
        read(path)

    @pytest.mark.parametrize("room, at_close", [(1, False), (-1, True)],
                             ids=["raster-write", "close"])
    def test_full_disk_removes_file_and_names_it(
            self, tmp_path, monkeypatch, write, read, payload, room, at_close):
        path = tmp_path / "f"
        opened = fill_disk(monkeypatch, room, at_close)
        with pytest.raises(OSError) as info:
            write(path, payload)
        assert str(info.value) == f"{path}: [Errno 28] No space left on device"
        assert opened[0].on_disk.startswith(b"P")
        assert list(tmp_path.iterdir()) == []

    def test_other_magic_names_path(self, tmp_path, write, read, payload):
        path = tmp_path / "f"
        write(path, payload)
        data = path.read_bytes()
        path.write_bytes(b"P6" + data[2:] if data[:2] == b"P5" else b"P5" + data[2:])
        with pytest.raises(netpbm.NetpbmError, match=f"{path}: expected magic"):
            read(path)
