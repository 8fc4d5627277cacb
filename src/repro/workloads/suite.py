"""The paper's workload suite, as parameterised synthetic equivalents.

Sixteen workloads (paper §V, Figs. 3, 7, 11, 12, 15): SPEC (astar, cactus,
gems, mcf, omnet, xalanc), PARSEC (canneal), BioBench (mummer, tigr),
CloudSuite (tunkrank), and server/cloud workloads (graph500, gups, nutch,
olio, redis, mongo).  Each spec encodes the properties that drive SEESAW's
behaviour; cached footprints are scaled down from the originals so that
trace-driven simulation reaches steady state within tractable trace
lengths, while remaining far larger than every L1 under study.  Each heap
is spread across many partially used 2MB regions (``region_utilization``)
so superpage allocation, TFT reach, and fragmentation behave at realistic
region counts.

Multi-threaded workloads (canneal, graph500, tunkrank, nutch, olio, mongo)
issue from several cores with a shared heap region — the source of the
coherence traffic behind Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mem.address import CACHE_LINE_SIZE
from repro.workloads.generators import (
    MixedGenerator,
    PatternGenerator,
    PointerChaseGenerator,
    StreamGenerator,
    UniformRandomGenerator,
    ZipfGenerator,
)
from repro.workloads.trace import MemoryTrace

#: Base of the synthetic heap in the virtual address space.
HEAP_BASE = 0x10_0000_0000

#: Pattern mix weights: (zipf, stream, chase, uniform).
PatternMix = Tuple[float, float, float, float]


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one synthetic workload.

    Args:
        name: paper's label.
        footprint_bytes: total heap footprint.
        mix: weights over (zipf, stream, pointer-chase, uniform) patterns.
        zipf_s: skew of the zipf component (higher = tighter hot set).
        write_fraction: stores / references.
        mean_gap: mean non-memory instructions between references.
        threads: issuing cores.
        shared_fraction: fraction of references to the shared region
            (multi-threaded only).
        line_reuse: mean consecutive references landing on the same cache
            line (real code touches several words of a 64B line; pointer
            chasing touches one or two).  This is the workload's temporal
            locality knob and the main driver of L1 hit rate.
        region_utilization: fraction of each 2MB heap region the workload's
            hot data occupies.  Real heaps spread across many partially
            filled huge pages (the well-known THP bloat effect), so a
            modest *cached* footprint still spans many 2MB regions — the
            granularity the OS allocates superpages at and the TFT tracks.
        description: one-line provenance note.
    """

    name: str
    footprint_bytes: int
    mix: PatternMix
    zipf_s: float = 0.9
    write_fraction: float = 0.25
    mean_gap: int = 2
    threads: int = 1
    shared_fraction: float = 0.0
    line_reuse: float = 3.0
    region_utilization: float = 0.0625
    description: str = ""

    @property
    def is_multithreaded(self) -> bool:
        return self.threads > 1


def _mb(n: float) -> int:
    return int(n * 1024 * 1024)


#: The sixteen evaluated workloads (paper Figs. 3/7: astar..mongo order).
WORKLOADS: Dict[str, WorkloadSpec] = {
    "astar": WorkloadSpec("astar", _mb(1), (0.7, 0.1, 0.2, 0.0),
                          zipf_s=1.0, write_fraction=0.25,
                         line_reuse=4.0,
                          description="SPEC: path-finding, skewed reuse"),
    "cactus": WorkloadSpec("cactus", _mb(1.5), (0.2, 0.7, 0.1, 0.0),
                           zipf_s=0.8, write_fraction=0.30,
                         line_reuse=5.0,
                           description="SPEC: stencil sweeps over grids"),
    "cann": WorkloadSpec("cann", _mb(2.5), (0.2, 0.0, 0.8, 0.0),
                         zipf_s=0.8, write_fraction=0.15, threads=4,
                         shared_fraction=0.35,
                         line_reuse=2.0, region_utilization=0.125,
                         description="PARSEC canneal: pointer-chasing, shared netlist"),
    "gems": WorkloadSpec("gems", _mb(1.5), (0.3, 0.6, 0.1, 0.0),
                         zipf_s=0.8, write_fraction=0.30,
                         line_reuse=5.0,
                         description="SPEC: structured-grid solver"),
    "g500": WorkloadSpec("g500", _mb(3), (0.25, 0.0, 0.75, 0.0),
                         zipf_s=0.9, write_fraction=0.10, threads=4,
                         shared_fraction=0.40,
                         line_reuse=2.0, region_utilization=0.125,
                         description="graph500: BFS over a shared graph"),
    "gups": WorkloadSpec("gups", _mb(4), (0.0, 0.0, 0.0, 1.0),
                         write_fraction=0.50,
                         line_reuse=2.0,
                         description="GUPS: uniform random updates"),
    "mcf": WorkloadSpec("mcf", _mb(2), (0.3, 0.0, 0.7, 0.0),
                        zipf_s=0.9, write_fraction=0.20,
                         line_reuse=2.2,
                        description="SPEC: network simplex, pointer-heavy"),
    "mumm": WorkloadSpec("mumm", _mb(1.5), (0.4, 0.5, 0.1, 0.0),
                         zipf_s=0.9, write_fraction=0.10,
                         line_reuse=4.5,
                         description="BioBench mummer: suffix-tree matching"),
    "omnet": WorkloadSpec("omnet", _mb(1), (0.7, 0.1, 0.2, 0.0),
                          zipf_s=1.1, write_fraction=0.30,
                         line_reuse=4.0,
                          description="SPEC: discrete-event simulation"),
    "tigr": WorkloadSpec("tigr", _mb(1.5), (0.3, 0.6, 0.1, 0.0),
                         zipf_s=0.8, write_fraction=0.10,
                         line_reuse=5.0,
                         description="BioBench tigr: sequence assembly"),
    "tunk": WorkloadSpec("tunk", _mb(3), (0.3, 0.0, 0.7, 0.0),
                         zipf_s=0.9, write_fraction=0.15, threads=4,
                         shared_fraction=0.40,
                         line_reuse=2.1, region_utilization=0.125,
                         description="CloudSuite tunkrank: graph ranking"),
    "xalanc": WorkloadSpec("xalanc", _mb(1), (0.75, 0.1, 0.15, 0.0),
                           zipf_s=1.1, write_fraction=0.20,
                         line_reuse=4.5,
                           description="SPEC: XSLT transformation"),
    "nutch": WorkloadSpec("nutch", _mb(1.5), (0.8, 0.1, 0.1, 0.0),
                          zipf_s=1.2, write_fraction=0.20, threads=2,
                          shared_fraction=0.20,
                         line_reuse=4.0,
                          description="Hadoop Nutch: indexing, hot dictionaries"),
    "olio": WorkloadSpec("olio", _mb(2), (0.25, 0.0, 0.75, 0.0),
                         zipf_s=0.8, write_fraction=0.25, threads=2,
                         shared_fraction=0.25,
                         line_reuse=2.1,
                         description="Olio: social-event web service, poor locality"),
    "redis": WorkloadSpec("redis", _mb(1.5), (0.85, 0.05, 0.1, 0.0),
                          zipf_s=1.0, write_fraction=0.35,
                         line_reuse=4.0,
                          description="Redis: skewed key-value GET/SET"),
    "mongo": WorkloadSpec("mongo", _mb(3), (0.6, 0.1, 0.3, 0.0),
                          zipf_s=0.9, write_fraction=0.30, threads=2,
                          shared_fraction=0.25,
                         line_reuse=3.0,
                          description="MongoDB: document store, mixed access"),
}

#: The cloud workloads highlighted in Figs. 12 and 15.
CLOUD_WORKLOADS: List[str] = ["olio", "redis", "nutch", "tunk", "g500",
                              "mongo", "cann", "mcf"]

#: Workloads used in the fragmentation study (Fig. 12).
FRAGMENTATION_WORKLOADS: List[str] = CLOUD_WORKLOADS


def workload_names() -> List[str]:
    """Workload labels in the paper's figure order."""
    return list(WORKLOADS)


def get_workload(name: str) -> WorkloadSpec:
    """Look up a spec by name.

    ``rtrace:<path>`` tokens (ingested real traces — see
    :mod:`repro.ingest`) resolve to a descriptive stub spec built from the
    trace's header, so every caller that validates or labels workloads by
    spec works unchanged; trace *construction* for tokens goes through
    :func:`cached_trace`, never :func:`build_trace`.

    Raises:
        KeyError: for unknown workload names, listing the valid ones.
    """
    from repro.ingest import is_rtrace_token
    if is_rtrace_token(name):
        return _rtrace_spec(name)
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; valid workloads: "
            f"{', '.join(sorted(WORKLOADS))} (or rtrace:<path> for an "
            f"ingested trace)") from None


def _rtrace_spec(token: str) -> WorkloadSpec:
    """A stub :class:`WorkloadSpec` describing an ingested trace file.

    Reads only the trace header (cheap).  The mix/footprint fields are
    informational — nothing generates synthetic references from this spec.
    """
    from repro.ingest import read_header, rtrace_path
    from repro.ingest.rtrace import RECORD_SIZE
    from repro.resilience.errors import RtraceError

    path = rtrace_path(token)
    try:
        header = read_header(path)
    except RtraceError as exc:
        raise KeyError(str(exc)) from exc
    except OSError as exc:
        raise KeyError(
            f"{path}: cannot read ingested trace "
            f"({exc.strerror or exc})") from exc
    return WorkloadSpec(
        name=header["name"],
        footprint_bytes=header["payload_bytes"] // RECORD_SIZE * 64,
        mix=(0.0, 0.0, 0.0, 0.0),
        description=(f"ingested {header.get('format', 'unknown')} trace, "
                     f"{header['records']} references ({path})"))


def _make_generator(spec: WorkloadSpec, num_lines: int, seed: int,
                    rng: Optional[np.random.Generator] = None
                    ) -> PatternGenerator:
    """Build the (possibly mixed) pattern generator for one region.

    With ``rng`` set, every component draws from that one shared stream;
    otherwise each seeds its own from ``seed`` (the historical layout).
    """
    components = []
    zipf_w, stream_w, chase_w, uniform_w = spec.mix
    if zipf_w:
        components.append((ZipfGenerator(num_lines, s=spec.zipf_s,
                                         seed=seed + 1, rng=rng), zipf_w))
    if stream_w:
        components.append((StreamGenerator(num_lines, seed=seed + 2,
                                           rng=rng), stream_w))
    if chase_w:
        components.append((PointerChaseGenerator(num_lines, seed=seed + 3,
                                                 rng=rng), chase_w))
    if uniform_w:
        components.append((UniformRandomGenerator(num_lines, seed=seed + 4,
                                                  rng=rng), uniform_w))
    if len(components) == 1:
        return components[0][0]
    return MixedGenerator(num_lines, components, seed=seed, rng=rng)


def _expand_reuse(lines: np.ndarray, mean_reuse: float, target_length: int,
                  rng: np.random.Generator,
                  scatter: float = 0.4) -> np.ndarray:
    """Repeat each line index ~``mean_reuse`` times (geometric), producing
    exactly ``target_length`` references.

    A ``scatter`` fraction of references is displaced a few positions so
    that reuse is *near* rather than strictly back-to-back — real code
    revisits a line after touching a few others.  This is what gives the
    MRU way predictor its realistic (imperfect) accuracy: with perfectly
    adjacent repeats, a per-set MRU predictor would never mispredict on a
    hit.
    """
    if mean_reuse <= 1.0:
        reps = np.ones(len(lines), dtype=np.int64)
    else:
        reps = rng.geometric(1.0 / mean_reuse, size=len(lines))
    expanded = np.repeat(lines, reps)
    if len(expanded) < target_length:
        tiles = -(-target_length // max(len(expanded), 1))
        expanded = np.tile(expanded, tiles)
    expanded = expanded[:target_length].copy()
    if scatter > 0 and len(expanded) > 16:
        n = len(expanded)
        sources = np.nonzero(rng.random(n) < scatter)[0]
        offsets = rng.integers(1, 12, size=len(sources))
        targets = np.minimum(sources + offsets, n - 1)
        expanded[sources], expanded[targets] = (expanded[targets],
                                                expanded[sources])
    return expanded


def build_trace(spec: WorkloadSpec, length: int = 100_000,
                seed: int = 42,
                rng: Optional[np.random.Generator] = None) -> MemoryTrace:
    """Generate a :class:`MemoryTrace` for a workload spec.

    The heap is laid out as [shared region | thread-0 region | thread-1
    region | ...]; each thread draws ``shared_fraction`` of its references
    from the shared region and the rest from its own.  References from the
    threads are interleaved round-robin, approximating concurrent execution.

    Determinism: with the default ``rng=None``, every random stream is
    derived from ``seed`` (per-thread sub-seeds), so the same
    ``(spec, length, seed)`` always yields a bit-identical trace.  Passing
    ``rng`` instead threads that *single* generator through every draw —
    generators, reuse expansion, arena placement, writes, and gaps — for
    callers that manage one experiment-wide RNG.  The two modes produce
    different (but each fully reproducible) traces.
    """
    shared_rng = rng
    rng = rng if rng is not None else np.random.default_rng(seed)
    total_lines = spec.footprint_bytes // CACHE_LINE_SIZE
    shared_lines = (int(total_lines * spec.shared_fraction)
                    if spec.is_multithreaded else 0)
    private_lines = (total_lines - shared_lines) // spec.threads
    per_thread = length // spec.threads
    # Each distinct line is referenced ~line_reuse times in a row (multiple
    # word accesses per 64B line), so fewer unique lines are drawn.
    unique_per_thread = max(1, int(per_thread / spec.line_reuse) + 8)

    thread_streams: List[np.ndarray] = []
    for thread in range(spec.threads):
        thread_seed = seed + 1000 * (thread + 1)
        private_gen = _make_generator(spec, max(private_lines, 64),
                                      thread_seed, rng=shared_rng)
        private_base = shared_lines + thread * private_lines
        lines = private_gen.generate(unique_per_thread) + private_base
        if shared_lines:
            shared_gen = _make_generator(spec, shared_lines,
                                         thread_seed + 500, rng=shared_rng)
            mask_rng = (shared_rng if shared_rng is not None
                        else np.random.default_rng(thread_seed + 7))
            shared_mask = (mask_rng.random(unique_per_thread)
                           < spec.shared_fraction)
            shared_stream = shared_gen.generate(int(shared_mask.sum()))
            lines[shared_mask] = shared_stream
        lines = _expand_reuse(lines, spec.line_reuse, per_thread,
                              shared_rng if shared_rng is not None
                              else np.random.default_rng(thread_seed + 13))
        thread_streams.append(lines)

    # Map line indices to virtual addresses, spreading the heap across
    # partially used 2MB regions (see WorkloadSpec.region_utilization).
    # Layout mirrors real allocators: each thread's heap (and the shared
    # region) is one *contiguous arena* of 2MB regions — consecutive region
    # numbers, so they do not alias in the TFT's ``region mod entries``
    # hash — while the arenas themselves sit at scattered mmap bases.
    region_bytes = 2 * 1024 * 1024
    lines_per_region = max(
        1, int(region_bytes * spec.region_utilization) // CACHE_LINE_SIZE)
    arena_line_bounds = [0, shared_lines] if shared_lines else [0]
    for thread in range(spec.threads):
        arena_line_bounds.append(arena_line_bounds[-1] + private_lines)
    n_arenas = len(arena_line_bounds) - 1
    # Arena bases stride by 67 regions (134MB): arenas never overlap (no
    # arena spans more than 67 regions at these footprints) and 67 mod 16
    # != 0, so different arenas land at varying TFT-slot phases.
    base_rng = (shared_rng if shared_rng is not None
                else np.random.default_rng(seed + 99))
    arena_bases = (base_rng.choice(61, size=n_arenas, replace=False) + 1) * 67
    bounds = np.array(arena_line_bounds)
    va_streams: List[np.ndarray] = []
    for lines in thread_streams:
        arena = np.searchsorted(bounds, lines, side="right") - 1
        arena = np.clip(arena, 0, n_arenas - 1)
        arena_local = lines - bounds[arena]
        regions = arena_bases[arena] + arena_local // lines_per_region
        offsets = arena_local % lines_per_region
        va_streams.append(HEAP_BASE + regions * region_bytes
                          + offsets * CACHE_LINE_SIZE)

    # Round-robin interleave the threads: reference i of every thread,
    # in thread order, then reference i + 1.
    addresses = np.stack(va_streams, axis=1).reshape(-1)
    n = addresses.size
    cores = np.tile(np.arange(spec.threads), per_thread)
    writes = rng.random(n) < spec.write_fraction
    gaps = rng.poisson(spec.mean_gap, size=n)
    return MemoryTrace(spec.name, addresses.tolist(), writes.tolist(),
                       cores.tolist(), gaps.tolist())


# -------------------------------------------------------------- trace memo

#: Memoized traces for :func:`cached_trace`, keyed by (workload, length,
#: seed).  Small: a sweep visits designs consecutively per workload, so one
#: or two live entries cover the reuse pattern.
_TRACE_MEMO: Dict[Tuple[str, int, int], MemoryTrace] = {}
_TRACE_MEMO_MAX = 4


def cached_trace(workload: str, length: int, seed: int = 42) -> MemoryTrace:
    """Memoized :func:`build_trace` for a *named* workload.

    ``build_trace`` is deterministic in ``(spec, length, seed)`` and the
    simulator treats traces as read-only, so sweep cells that differ only
    in cache design (the same row of a workload x design matrix) can share
    one trace object instead of regenerating it.  Callers that mutate the
    trace — e.g. the fault injector's ``trace-truncate`` — must use
    :func:`build_trace` directly.

    ``rtrace:<path>`` tokens load the ingested trace file (with checksum
    verification) through the ingest layer's own memo; ``length`` and
    ``seed`` do not apply — an ingested trace is replayed as recorded.
    """
    from repro.ingest import is_rtrace_token
    if is_rtrace_token(workload):
        from repro.ingest import cached_rtrace, rtrace_path
        return cached_rtrace(rtrace_path(workload))
    key = (workload, length, seed)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        trace = build_trace(get_workload(workload), length=length, seed=seed)
        while len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
        _TRACE_MEMO[key] = trace
    return trace
