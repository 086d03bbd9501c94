"""Page-granularity protection, the substrate for VM watchpoints.

The virtual-memory watchpoint implementation (paper Section 2, citing
Appel & Li) removes write permission from the pages holding watched data;
every store to such a page then faults into the debugger.  This module
provides exactly that interface:

* :meth:`PageTable.mprotect` changes page permissions over a range,
* :meth:`PageTable.check_store` is consulted by the machine on every
  store and reports whether the access faults.

All pages are implicitly mapped read+write; only protection state is
tracked.  Fault *delivery* (the expensive debugger transition) is the
machine's job — the page table only detects the condition, mirroring the
hardware/OS split.
"""

from __future__ import annotations

PAGE_READ = 1
PAGE_WRITE = 2


class PageTable:
    """Tracks per-page protection bits.

    For speed the common case (no protections installed at all) is a
    single attribute test; the simulator only pays a dict lookup per
    store once the first page is protected.
    """

    __slots__ = ("page_bytes", "_page_shift", "_protections", "any_protected")

    def __init__(self, page_bytes: int = 4096):
        if page_bytes & (page_bytes - 1):
            raise ValueError(f"page size {page_bytes} is not a power of two")
        self.page_bytes = page_bytes
        self._page_shift = page_bytes.bit_length() - 1
        # page number -> protection bits; absent means READ|WRITE.
        self._protections: dict[int, int] = {}
        self.any_protected = False

    # -- protection manipulation (the debugger's mprotect interface) --------

    def page_number(self, address: int) -> int:
        """Page number containing ``address``."""
        return address >> self._page_shift

    def pages_in_range(self, address: int, length: int) -> range:
        """Page numbers covering [address, address+length)."""
        first = self.page_number(address)
        last = self.page_number(address + max(length, 1) - 1)
        return range(first, last + 1)

    def mprotect(self, address: int, length: int, protection: int) -> None:
        """Set protection bits for all pages covering the range."""
        for page in self.pages_in_range(address, length):
            if protection == (PAGE_READ | PAGE_WRITE):
                self._protections.pop(page, None)
            else:
                self._protections[page] = protection
        self.any_protected = bool(self._protections)

    def protect_page(self, page: int, protection: int) -> None:
        """Set protection bits for a single page."""
        if protection == (PAGE_READ | PAGE_WRITE):
            self._protections.pop(page, None)
        else:
            self._protections[page] = protection
        self.any_protected = bool(self._protections)

    def clear(self) -> None:
        """Restore read+write on every page."""
        self._protections.clear()
        self.any_protected = False

    @property
    def protected_pages(self) -> frozenset[int]:
        return frozenset(self._protections)

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict[int, int]:
        """Capture the protection map."""
        return dict(self._protections)

    def restore(self, blob: dict[int, int]) -> None:
        """Reset protections to a previous :meth:`snapshot`."""
        self._protections = dict(blob)
        self.any_protected = bool(self._protections)

    # -- fault checks (consulted by the machine) ------------------------------

    def check_store(self, address: int, size: int) -> bool:
        """Return True if a ``size``-byte store at ``address`` faults."""
        if not self.any_protected:
            return False
        first = address >> self._page_shift
        last = (address + size - 1) >> self._page_shift
        protections = self._protections
        for page in range(first, last + 1):
            bits = protections.get(page)
            if bits is not None and not (bits & PAGE_WRITE):
                return True
        return False

    def check_load(self, address: int, size: int) -> bool:
        """Return True if a ``size``-byte load at ``address`` faults."""
        if not self.any_protected:
            return False
        first = address >> self._page_shift
        last = (address + size - 1) >> self._page_shift
        protections = self._protections
        for page in range(first, last + 1):
            bits = protections.get(page)
            if bits is not None and not (bits & PAGE_READ):
                return True
        return False
