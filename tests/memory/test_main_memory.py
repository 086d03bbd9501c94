"""Main memory: integer and bulk access, page-crossing, properties."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryError_
from repro.memory.main_memory import MainMemory, PAGE_BYTES


def test_uninitialized_reads_zero():
    memory = MainMemory()
    assert memory.read_int(0x1234, 8) == 0
    assert memory.read_bytes(0x9999, 16) == bytes(16)


def test_reads_never_allocate_pages():
    memory = MainMemory()
    memory.write_int(PAGE_BYTES, 8, 0x0102030405060708)
    assert memory.resident_pages == 1
    # Absent pages, whole or straddled into from a resident one (and
    # from an absent one into a resident one), read as zeros.
    assert memory.read_int(5 * PAGE_BYTES, 8) == 0
    assert memory.read_bytes(7 * PAGE_BYTES + 100, 3 * PAGE_BYTES) == \
        bytes(3 * PAGE_BYTES)
    assert memory.read_int(2 * PAGE_BYTES - 4, 8) == 0
    assert memory.read_bytes(PAGE_BYTES - 4, 12) == \
        bytes(4) + (0x0102030405060708).to_bytes(8, "little")
    assert memory.read_int(PAGE_BYTES - 4, 8) == 0x0506070800000000
    assert memory.resident_pages == 1
    # A snapshot holds only the written page.
    assert len(memory.snapshot()) == 1


@pytest.mark.parametrize("size", [1, 2, 4, 8])
def test_int_roundtrip_sizes(size):
    memory = MainMemory()
    value = (1 << (8 * size)) - 3
    memory.write_int(0x1000, size, value)
    assert memory.read_int(0x1000, size) == value & ((1 << (8 * size)) - 1)


def test_truncation_on_write():
    memory = MainMemory()
    memory.write_int(0x10, 1, 0x1FF)
    assert memory.read_int(0x10, 1) == 0xFF


def test_little_endian_layout():
    memory = MainMemory()
    memory.write_int(0x100, 4, 0x0A0B0C0D)
    assert memory.read_bytes(0x100, 4) == bytes([0x0D, 0x0C, 0x0B, 0x0A])


def test_page_crossing_int():
    memory = MainMemory()
    address = PAGE_BYTES - 4  # 8-byte access straddling a page
    memory.write_int(address, 8, 0x1122334455667788)
    assert memory.read_int(address, 8) == 0x1122334455667788


def test_page_crossing_bulk():
    memory = MainMemory()
    blob = bytes(range(200)) * 30  # 6000 bytes, crosses a page
    memory.write_bytes(PAGE_BYTES - 100, blob)
    assert memory.read_bytes(PAGE_BYTES - 100, len(blob)) == blob


def test_adjacent_writes_do_not_interfere():
    memory = MainMemory()
    memory.write_int(0x100, 8, 0xAAAAAAAAAAAAAAAA)
    memory.write_int(0x108, 8, 0xBBBBBBBBBBBBBBBB)
    assert memory.read_int(0x100, 8) == 0xAAAAAAAAAAAAAAAA


def test_partial_overwrite():
    memory = MainMemory()
    memory.write_int(0x100, 8, 0xFFFFFFFFFFFFFFFF)
    memory.write_int(0x102, 2, 0)
    assert memory.read_int(0x100, 8) == 0xFFFFFFFF0000FFFF


def test_negative_read_length_rejected():
    with pytest.raises(MemoryError_):
        MainMemory().read_bytes(0, -1)


def test_resident_pages_counts_touched():
    memory = MainMemory()
    assert memory.resident_pages == 0
    memory.write_int(0, 1, 1)
    memory.write_int(10 * PAGE_BYTES, 1, 1)
    assert memory.resident_pages == 2
    memory.clear()
    assert memory.resident_pages == 0


def test_sparse_far_addresses():
    memory = MainMemory()
    memory.write_int(1 << 40, 8, 77)
    assert memory.read_int(1 << 40, 8) == 77
    assert memory.resident_pages == 1


@given(address=st.integers(min_value=0, max_value=1 << 32),
       size=st.sampled_from([1, 2, 4, 8]),
       value=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_int_roundtrip_property(address, size, value):
    memory = MainMemory()
    memory.write_int(address, size, value)
    assert memory.read_int(address, size) == value & ((1 << (8 * size)) - 1)


@given(address=st.integers(min_value=0, max_value=1 << 20),
       blob=st.binary(min_size=0, max_size=300))
def test_bulk_roundtrip_property(address, blob):
    memory = MainMemory()
    memory.write_bytes(address, blob)
    assert memory.read_bytes(address, len(blob)) == blob
