"""Cache coherence substrate: a MOESI directory and a snoopy bus.

Coherence state lives in the fabric: the directory keeps, per physical
line, a sharer bitmask and the core holding it dirty (the M/O owner), and
the L1s keep only each line's dirty bit.  Coherence lookups are the third
lookup class SEESAW optimizes (paper §I item 3 and §IV-C1): they carry
physical addresses, and under the ``4way`` insertion policy they probe a
single partition instead of the whole set — for base pages and superpages
alike.  The directory variant (the paper's Table II lists MOESI directory
coherence) filters spurious probes through its sharer lists; the snoopy
variant broadcasts, which is why the paper measured an extra 2-5% energy
win for SEESAW under snooping.
"""

from repro.coherence.directory import Directory
from repro.coherence.snoop import SnoopyBus

__all__ = [
    "Directory",
    "SnoopyBus",
]
