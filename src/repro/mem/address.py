"""Address arithmetic for x86-64-style paging with multiple page sizes.

The paper's entire mechanism rests on one observation about the address
split: a virtual address is ``[page number | page offset]`` and a VIPT cache
may only index with bits inside the page offset.  With 4KB pages the offset
is 12 bits; 2MB superpages widen it to 21 bits and 1GB superpages to 30 bits
(paper §I, Fig. 1).  Everything in this module is plain integer bit
manipulation so the rest of the simulator can stay allocation-free on the
hot path.
"""

from __future__ import annotations

import enum

#: Base page size on x86-64 (bytes).
PAGE_SIZE_4KB = 4 * 1024
#: 2MB superpage size (bytes); the page size the paper's evaluation uses.
PAGE_SIZE_2MB = 2 * 1024 * 1024
#: 1GB superpage size (bytes); supported by the machinery, unused in eval.
PAGE_SIZE_1GB = 1024 * 1024 * 1024

#: Cache line size assumed throughout the paper (bytes) -> 6 offset bits.
CACHE_LINE_SIZE = 64

#: Width of the modeled virtual address space (bits).
VIRTUAL_ADDRESS_BITS = 64


class PageSize(enum.IntEnum):
    """Page sizes supported by the modeled architecture.

    The enum *value* is the size in bytes so ``int(page_size)`` and
    arithmetic work directly.  ``offset_bits``, ``offset_mask`` and
    ``is_superpage`` are precomputed per member (below the class body):
    the simulator reads them on every reference, so they are plain
    attribute loads rather than properties recomputing ``bit_length``.
    """

    BASE_4KB = PAGE_SIZE_4KB
    SUPER_2MB = PAGE_SIZE_2MB
    SUPER_1GB = PAGE_SIZE_1GB

    # Populated right after the class body; declared here for type checkers.
    offset_bits: int
    offset_mask: int
    is_superpage: bool

    @classmethod
    def from_bytes(cls, size: int) -> "PageSize":
        """Look up the enum member for a size in bytes.

        Raises:
            ValueError: if ``size`` is not a supported page size.
        """
        try:
            return cls(size)
        except ValueError:
            raise ValueError(f"unsupported page size: {size} bytes") from None


for _member in PageSize:
    _member.offset_bits = int(_member).bit_length() - 1
    _member.offset_mask = int(_member) - 1
    _member.is_superpage = _member is not PageSize.BASE_4KB
del _member


def page_offset_bits(page_size: PageSize) -> int:
    """Return the number of offset bits ``p`` for a page size (``2^p`` bytes)."""
    return page_size.offset_bits


def page_number(address: int, page_size: PageSize) -> int:
    """Return the virtual/physical page number of ``address``."""
    return address >> page_size.offset_bits


def page_offset(address: int, page_size: PageSize) -> int:
    """Return the offset of ``address`` within its page."""
    return address & page_size.offset_mask


def page_base(address: int, page_size: PageSize) -> int:
    """Return the base address of the page containing ``address``."""
    return address & ~page_size.offset_mask


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment`` (a power of two)."""
    return value & ~(alignment - 1)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (a power of two)."""
    return (value + alignment - 1) & ~(alignment - 1)


def is_aligned(value: int, alignment: int) -> bool:
    """True if ``value`` is a multiple of ``alignment`` (a power of two)."""
    return (value & (alignment - 1)) == 0


def cache_line_number(address: int) -> int:
    """Return the cache-line number (address without the 6 byte-offset bits)."""
    return address >> (CACHE_LINE_SIZE.bit_length() - 1)


def compose_physical_address(frame_base: int, offset: int) -> int:
    """Combine a physical frame base address with a page offset."""
    return frame_base | offset


def region_2mb(virtual_address: int) -> int:
    """Return the 2MB-region number of a virtual address (VA >> 21).

    This identifies the unique 2MB-aligned region of the virtual address
    space, i.e. the tag the Translation Filter Table stores (paper §IV-A2:
    "hashing bits 64-21 of the virtual address").
    """
    return virtual_address >> PageSize.SUPER_2MB.offset_bits
