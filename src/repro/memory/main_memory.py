"""Sparse, paged, byte-addressable main memory.

Storage is allocated lazily in fixed-size pages (bytearrays) so that a
64-bit address space costs only what the program writes.  A page that
was never written reads as zeros and stays absent: reads never allocate,
so a debugger client dumping unmapped addresses cannot grow the page
directory (or every later snapshot of it).  Accesses that cross a page
boundary take a slower correct path; the common aligned case is a direct
slice of one page.

Integers are stored little-endian.  Loads return unsigned values; the
functional executor applies sign interpretation where an opcode requires
it (comparisons use two's-complement views of the 64-bit value).

Snapshots are copy-on-write at page granularity: :meth:`snapshot` is a
shallow copy of the page directory plus a "frozen" marking on every
resident page.  A frozen page is shared between the live memory and any
number of snapshots; the first store to it clones the page and unfreezes
the clone.  A checkpoint therefore costs O(resident page *count*) to
take and O(dirty pages) in bytes, never O(footprint).
"""

from __future__ import annotations

import hashlib

from repro.errors import MemoryError_

PAGE_BYTES = 4096
_PAGE_SHIFT = 12
_PAGE_MASK = PAGE_BYTES - 1

MASK64 = (1 << 64) - 1

_ZERO_PAGE = bytes(PAGE_BYTES)


class MainMemory:
    """Byte-addressable memory backed by lazily allocated pages."""

    __slots__ = ("_pages", "_frozen")

    def __init__(self):
        self._pages: dict[int, bytearray] = {}
        # Pages shared with at least one snapshot; cloned before mutation.
        self._frozen: set[int] = set()

    def _writable_page(self, page_number: int) -> bytearray:
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(PAGE_BYTES)
            self._pages[page_number] = page
            return page
        if page_number in self._frozen:
            page = bytearray(page)
            self._pages[page_number] = page
            self._frozen.discard(page_number)
        return page

    # -- integer access ----------------------------------------------------

    def read_int(self, address: int, size: int) -> int:
        """Read ``size`` bytes at ``address`` as an unsigned integer."""
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_BYTES:
            page = self._pages.get(address >> _PAGE_SHIFT)
            if page is None:
                return 0
            return int.from_bytes(page[offset:offset + size], "little")
        return int.from_bytes(self.read_bytes(address, size), "little")

    def write_int(self, address: int, size: int, value: int) -> None:
        """Write the low ``size`` bytes of ``value`` at ``address``."""
        value &= (1 << (8 * size)) - 1
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_BYTES:
            page = self._writable_page(address >> _PAGE_SHIFT)
            page[offset:offset + size] = value.to_bytes(size, "little")
            return
        self.write_bytes(address, value.to_bytes(size, "little"))

    # -- bulk access ---------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read ``length`` raw bytes starting at ``address``."""
        if length < 0:
            raise MemoryError_(f"negative read length {length}")
        chunks = []
        remaining = length
        cursor = address
        while remaining:
            offset = cursor & _PAGE_MASK
            take = min(remaining, PAGE_BYTES - offset)
            page = self._pages.get(cursor >> _PAGE_SHIFT, _ZERO_PAGE)
            chunks.append(bytes(page[offset:offset + take]))
            cursor += take
            remaining -= take
        return b"".join(chunks)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write raw ``data`` starting at ``address``."""
        cursor = address
        view = memoryview(data)
        while view:
            offset = cursor & _PAGE_MASK
            take = min(len(view), PAGE_BYTES - offset)
            page = self._writable_page(cursor >> _PAGE_SHIFT)
            page[offset:offset + take] = view[:take]
            cursor += take
            view = view[take:]

    # -- snapshots (copy-on-write) --------------------------------------------

    def snapshot(self) -> dict[int, bytearray]:
        """Capture memory as a shallow page-directory copy.

        Every resident page is marked frozen; both the snapshot and the
        live memory share the page objects until a store clones one.
        The blob is opaque to callers and only meaningful for
        :meth:`restore` on a memory in the same process.
        """
        self._frozen = set(self._pages)
        return dict(self._pages)

    def restore(self, blob: dict[int, bytearray]) -> None:
        """Reset memory to a previously captured :meth:`snapshot`.

        The snapshot stays valid (restoring re-freezes the shared
        pages), so a checkpoint can be restored any number of times.
        """
        self._pages = dict(blob)
        self._frozen = set(blob)

    def state_fingerprint(self) -> str:
        """Content hash of memory, canonical across residency layouts.

        All-zero pages hash identically to absent pages, so a page whose
        writes left only zeros does not perturb the fingerprint.
        """
        digest = hashlib.sha256()
        for page_number in sorted(self._pages):
            page = self._pages[page_number]
            if page == _ZERO_PAGE:
                continue
            digest.update(page_number.to_bytes(8, "little", signed=True))
            digest.update(page)
        return digest.hexdigest()

    @property
    def frozen_pages(self) -> int:
        """Number of pages currently shared with a snapshot."""
        return len(self._frozen)

    # -- introspection ---------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Number of pages that have been written."""
        return len(self._pages)

    def clear(self) -> None:
        """Release every resident page."""
        self._pages.clear()
        self._frozen.clear()
