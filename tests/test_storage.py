"""Serialization: TNSR tensors and TNSC containers."""

import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tensorpool
from tensorpool import storage
from tensorpool.errors import CapacityError, FileFormatError, InvalidArgumentError
from tensorpool.storage import (
    TNSC_MAX_BYTES,
    TNSC_MAX_RANK,
    TNSR_MAX_BYTES,
    read_container,
    read_tensor,
    write_container,
    write_tensor,
)
from tensorpool.tensor import DenseTensor


@pytest.fixture
def tensor_path(tmp_path):
    return tmp_path / "t.tnsr"


def tnsr_header(order, dim):
    return b"TNSR" + struct.pack("<III", 1, order, dim)


def tnsc_one_section_header(name_bytes, shape):
    """Container header and one section header, without the payload."""
    blob = b"TNSC" + struct.pack("<III", 1, 1, len(name_bytes)) + name_bytes
    return blob + struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)


def read_device_under_a_memory_cap(reader: str, path: str) -> str:
    """What ``reader(path)`` prints as ``FileFormatError`` in a child capped at 512 MiB.

    The child has an address-space cap and a timeout: a reader that reads the device
    whole fails there, not on the machine running the tests.
    """
    pytest.importorskip("resource")
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from tensorpool.errors import FileFormatError\n"
        f"from tensorpool.storage import {reader}\n"
        "try:\n"
        f"    {reader}({path!r})\n"
        "except FileFormatError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(tensorpool.__file__))
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = dict(os.environ, **threads, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestTensorFormat:
    def test_round_trip_bit_exact(self, tensor_path):
        rng = np.random.default_rng(0)
        t = DenseTensor(3, 4, rng.normal(size=64))
        write_tensor(tensor_path, t)
        back = read_tensor(tensor_path)
        assert back.order == 3 and back.dim == 4
        assert np.array_equal(back.data, t.data)
        assert back.data.tobytes() == t.data.tobytes()

    def test_header_layout(self, tensor_path):
        write_tensor(tensor_path, DenseTensor(2, 2, [1.0, 2.0, 3.0, 4.0]))
        raw = tensor_path.read_bytes()
        assert raw[:4] == b"TNSR"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:16], "little") == 2
        assert len(raw) == 16 + 4 * 8

    def test_bad_magic_offset_zero(self, tensor_path):
        tensor_path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FileFormatError) as err:
            read_tensor(tensor_path)
        assert err.value.byte_offset == 0

    def test_bad_version_offset_four(self, tensor_path):
        tensor_path.write_bytes(b"TNSR" + (9).to_bytes(4, "little") + bytes(8))
        with pytest.raises(FileFormatError) as err:
            read_tensor(tensor_path)
        assert err.value.byte_offset == 4

    def test_truncated_payload_offset(self, tensor_path):
        write_tensor(tensor_path, DenseTensor(2, 2, [1.0, 2.0, 3.0, 4.0]))
        raw = tensor_path.read_bytes()
        tensor_path.write_bytes(raw[:-8])
        with pytest.raises(FileFormatError) as err:
            read_tensor(tensor_path)
        assert err.value.byte_offset == len(raw) - 8
        assert "truncated" in str(err.value)

    def test_trailing_bytes_rejected(self, tensor_path):
        write_tensor(tensor_path, DenseTensor(2, 2, [1.0, 2.0, 3.0, 4.0]))
        raw = tensor_path.read_bytes()
        tensor_path.write_bytes(raw + b"xx")
        with pytest.raises(FileFormatError) as err:
            read_tensor(tensor_path)
        assert err.value.byte_offset == len(raw)

    def test_order_above_maximum_rejected_at_offset_eight(self, tensor_path):
        # an order-5, d-3 file with a complete payload
        tensor_path.write_bytes(tnsr_header(5, 3) + bytes(8 * 3**5))
        with pytest.raises(FileFormatError) as err:
            read_tensor(tensor_path)
        assert err.value.byte_offset == 8

    def test_huge_order_rejected_before_size_arithmetic(self, tensor_path):
        tensor_path.write_bytes(tnsr_header(2**20, 2))
        with pytest.raises(FileFormatError) as err:
            read_tensor(tensor_path)
        assert err.value.byte_offset == 8

    def test_dim_above_capacity_rejected_at_offset_twelve(self, tensor_path):
        tensor_path.write_bytes(tnsr_header(3, 25) + bytes(8 * 25**3))
        with pytest.raises(FileFormatError) as err:
            read_tensor(tensor_path)
        assert err.value.byte_offset == 12

    def test_non_finite_coefficient_rejected_at_its_offset(self, tensor_path):
        for bad in (np.nan, np.inf, -np.inf):
            payload = np.array([1.0, 2.0, bad, 4.0], dtype="<f8").tobytes()
            tensor_path.write_bytes(tnsr_header(2, 2) + payload)
            with pytest.raises(FileFormatError) as err:
                read_tensor(tensor_path)
            assert err.value.byte_offset == 16 + 2 * 8

    def test_short_file(self, tensor_path):
        tensor_path.write_bytes(b"TN")
        with pytest.raises(FileFormatError) as err:
            read_tensor(tensor_path)
        assert err.value.byte_offset == 2

    def test_largest_file_reads_and_a_huge_one_is_rejected_unread(self, tensor_path):
        t = DenseTensor(4, 16, np.arange(16.0**4))
        write_tensor(tensor_path, t)
        assert tensor_path.stat().st_size == TNSR_MAX_BYTES
        assert read_tensor(tensor_path) == t
        with open(tensor_path, "r+b") as fh:
            fh.truncate(64 << 20)  # sparse: 64 MiB reported, next to nothing on disk
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError, match="trailing bytes after payload") as err:
                read_tensor(tensor_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.byte_offset == TNSR_MAX_BYTES
        assert peak < 2 * TNSR_MAX_BYTES

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_device_is_rejected_under_a_memory_cap(self):
        printed = read_device_under_a_memory_cap("read_tensor", "/dev/zero")
        assert printed == "bad magic, expected b'TNSR' (byte offset 0)"


class TestContainerFormat:
    def test_round_trip_preserves_order_and_bits(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "c.tnsc"
        sections = {
            "w_p": rng.normal(size=(8, 4)),  # rectangular
            "query": rng.normal(size=(4, 9)),
            "flat": rng.normal(size=5),
        }
        write_container(path, sections)
        back = read_container(path)
        assert list(back) == ["w_p", "query", "flat"]
        for name, arr in sections.items():
            assert back[name].shape == arr.shape
            assert np.array_equal(back[name], arr)

    def test_layout_bytes(self, tmp_path):
        # a scalar is stored at rank 1, strided and big-endian arrays as
        # contiguous little-endian float64, an empty array as its shape alone
        path = tmp_path / "c.tnsc"
        strided = np.arange(8.0).reshape(2, 4)[:, ::2]
        big = np.array([1.5, -2.0], dtype=">f8")
        write_container(path, {"s": np.float64(3.0), "m": strided, "b": big, "e": np.zeros((2, 0))})
        expected = b"TNSC" + struct.pack("<II", 1, 4)
        for name, shape, values in (("s", (1,), [3.0]), ("m", (2, 2), [0.0, 2.0, 4.0, 6.0]),
                                    ("b", (2,), [1.5, -2.0]), ("e", (2, 0), [])):
            expected += struct.pack("<I", 1) + name.encode() + struct.pack("<I", len(shape))
            expected += struct.pack(f"<{len(shape)}I{len(values)}d", *shape, *values)
        assert path.read_bytes() == expected

    def test_unstorable_section_leaves_no_file(self, tmp_path):
        path = tmp_path / "c.tnsc"
        with pytest.raises(UnicodeEncodeError):
            write_container(path, {"a": np.ones(2), "\ud800": np.ones(2)})
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.tnsc"
        path.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(FileFormatError) as err:
            read_container(path)
        assert err.value.byte_offset == 0

    def test_truncated_section(self, tmp_path):
        path = tmp_path / "c.tnsc"
        write_container(path, {"a": np.ones((2, 2))})
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FileFormatError):
            read_container(path)

    def test_payload_truncated_at_the_end_of_the_file(self, tmp_path):
        path = tmp_path / "c.tnsc"
        write_container(path, {"a": np.ones(2), "b": np.ones((2, 2))})
        raw = path.read_bytes()[:-12]  # inside section b's payload
        path.write_bytes(raw)
        match = "^section 'b' payload truncated: expected 32 bytes of coefficients"
        with pytest.raises(FileFormatError, match=match) as err:
            read_container(path)
        assert err.value.byte_offset == len(raw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected_at_its_offset(self, tmp_path, bad):
        path = tmp_path / "c.tnsc"
        payload = np.array([1.0, bad], dtype="<f8").tobytes()
        path.write_bytes(tnsc_one_section_header(b"a", [2]) + payload)
        with pytest.raises(FileFormatError, match="^non-finite coefficient") as err:
            read_container(path)
        assert err.value.byte_offset == 12 + 4 + 1 + 4 + 4 + 8  # the second coefficient: 33


    def test_non_utf8_section_name(self, tmp_path):
        path = tmp_path / "c.tnsc"
        path.write_bytes(tnsc_one_section_header(b"\xff\xfe", [1]) + bytes(8))
        with pytest.raises(FileFormatError) as err:
            read_container(path)
        assert err.value.byte_offset == 16

    def test_duplicate_section_name_rejected_at_its_offset(self, tmp_path):
        # two sections named "a": a dict would keep only the second
        path = tmp_path / "c.tnsc"
        section = struct.pack("<I", 1) + b"a" + struct.pack("<II", 1, 1) + struct.pack("<d", 1.0)
        path.write_bytes(b"TNSC" + struct.pack("<II", 1, 2) + section + section)
        with pytest.raises(FileFormatError, match="duplicate section name 'a'") as err:
            read_container(path)
        assert err.value.byte_offset == 12 + len(section) + 4

    def test_extent_product_beyond_int64_is_truncation(self, tmp_path):
        # eight extents of 2**31 multiply to 0 in wrapping int64 arithmetic
        path = tmp_path / "c.tnsc"
        path.write_bytes(tnsc_one_section_header(b"a", [2**31] * 8))
        with pytest.raises(FileFormatError) as err:
            read_container(path)
        assert "truncated" in str(err.value)
        assert err.value.byte_offset == 12 + 4 + 1 + 4 + 8 * 4


class TestContainerBound:
    """One rule on both sides: rank at most TNSC_MAX_RANK, at most TNSC_MAX_BYTES in all."""

    @pytest.mark.parametrize("shape", [(1,) * (TNSC_MAX_RANK + 1), (2**32, 0)])
    def test_unreadable_section_is_refused_and_writes_nothing(self, tmp_path, shape):
        path = tmp_path / "c.tnsc"
        with pytest.raises(InvalidArgumentError, match="^section 'b' must have rank <= 8 and "):
            write_container(path, {"a": np.ones(2), "b": np.zeros(shape)})
        assert not path.exists()

    def test_largest_rank_round_trips(self, tmp_path):
        path = tmp_path / "c.tnsc"
        arr = np.arange(2.0**TNSC_MAX_RANK).reshape((2,) * TNSC_MAX_RANK)
        write_container(path, {"a": arr})
        assert np.array_equal(read_container(path)["a"], arr)

    def test_container_at_the_bound_round_trips_and_one_byte_more_is_refused(
        self, tmp_path, monkeypatch
    ):
        path, sections = tmp_path / "c.tnsc", {"a": np.ones((3, 4)), "b": np.ones(5)}
        write_container(path, sections)
        size = path.stat().st_size
        assert size == 12 + (8 + 1 + 8 + 96) + (8 + 1 + 4 + 40)
        monkeypatch.setattr(storage, "TNSC_MAX_BYTES", size)
        assert list(read_container(path)) == ["a", "b"]
        monkeypatch.setattr(storage, "TNSC_MAX_BYTES", size - 1)
        with pytest.raises(FileFormatError, match="^container exceeds TNSC_MAX_BYTES") as err:
            read_container(path)
        assert err.value.byte_offset == size - 1
        other = tmp_path / "d.tnsc"
        with pytest.raises(CapacityError, match="^container exceeds TNSC_MAX_BYTES"):
            write_container(other, sections)
        assert not other.exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_above_the_bound_is_rejected_at_the_bound(self, tmp_path, monkeypatch):
        path = tmp_path / "c.tnsc"
        write_container(path, {"a": np.ones(100)})
        raw = path.read_bytes()
        monkeypatch.setattr(storage, "TNSC_MAX_BYTES", 100)
        read_end, write_end = os.pipe()  # a pipe reports no size: only the read bounds it
        try:
            os.write(write_end, raw)
            os.close(write_end)
            with pytest.raises(FileFormatError, match="^container exceeds") as err:
                read_container(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert err.value.byte_offset == 100

    def test_huge_file_is_rejected_unread(self, tmp_path):
        path = tmp_path / "c.tnsc"
        write_container(path, {"a": np.ones(2)})
        with open(path, "r+b") as fh:
            fh.truncate(TNSC_MAX_BYTES + (1 << 20))  # sparse: above 256 MiB, next to nothing on disk
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError, match="^container exceeds") as err:
                read_container(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.byte_offset == TNSC_MAX_BYTES
        assert peak < 1 << 20

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_device_is_rejected_under_a_memory_cap(self):
        printed = read_device_under_a_memory_cap("read_container", "/dev/zero")
        assert printed == "bad magic, expected b'TNSC' (byte offset 0)"
