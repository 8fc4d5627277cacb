"""Hardware page walker: turns page-table walks into latency and fills.

The walker is the backstop of the TLB hierarchy.  Its cost model charges a
per-level memory reference latency; 2MB leaves need 3 references and 1GB
leaves 2, versus 4 for a 4KB leaf (x86-64 radix walk).  Real walkers hit the
page-walk caches/L2 for most upper levels; we fold that into a configurable
per-reference latency rather than modeling PWCs explicitly, since the paper
does not evaluate walk-latency effects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.page_table import Mapping, PageTable


@dataclass
class WalkResult:
    """Outcome of one page walk."""

    mapping: Mapping
    latency_cycles: int


class PageWalker:
    """Walks a :class:`PageTable` with a simple per-reference cost model.

    Args:
        page_table: the table to walk.
        cycles_per_reference: charged per radix level touched.  The default
            (15) approximates mostly-cached walks on a warm system.
    """

    def __init__(self, page_table: PageTable,
                 cycles_per_reference: int = 15) -> None:
        self.page_table = page_table
        self.cycles_per_reference = cycles_per_reference

    def walk(self, virtual_address: int) -> WalkResult:
        """Walk the table for ``virtual_address``.

        Raises:
            TranslationFault: if the address is unmapped (a page fault the
                OS layer should have prevented via demand paging).
        """
        mapping, references = self.page_table.walk(virtual_address)
        return WalkResult(mapping=mapping, latency_cycles=references
                          * self.cycles_per_reference)
