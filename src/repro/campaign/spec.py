"""Campaign specs: named axes, a deterministic cell grid, one digest.

A *campaign* is a cartesian product over named axes — ``workload`` plus
any subset of the :class:`~repro.sim.config.SystemConfig` knobs listed in
:data:`AXIS_FIELDS` — evaluated once per cell.  The spec pins everything
that identifies the campaign:

* **axis order matters** — cells enumerate in axis declaration order
  (last axis fastest), so every shard, the merge doctor, and the serial
  reference all agree on cell numbering without coordination;
* **cell ids are positional** — ``0003-mcf-seesaw``-style slugs whose
  numeric prefix is the cell's enumeration index, so lease files and
  settled markers sort in grid order on disk;
* **the campaign digest** — SHA-256 over the canonical spec JSON
  (axes *as an ordered list*, trace length, seed) — stamps every shard
  journal header, so a merge refuses to mix journals from different
  campaigns.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.resilience.errors import CampaignError
from repro.resilience.fsio import publish

#: axis name -> SystemConfig field it sweeps.  ``workload`` is the one
#: axis that is not a config knob (it selects the trace) and is required.
AXIS_FIELDS: Dict[str, str] = {
    "design": "l1_design",
    "size_kb": "l1_size_kb",
    "freq": "frequency_ghz",
    "core": "core",
    "memhog": "memhog_fraction",
    "aging": "aging_fraction",
    "way_prediction": "way_prediction",
    "tft_entries": "tft_entries",
    "partition_ways": "partition_ways",
    "num_cores": "num_cores",
    "thp": "thp_policy",
}

SPEC_FILENAME = "spec.json"


def _slug(value: object) -> str:
    """Filesystem-safe token for one axis value (``1.33`` -> ``1p33``)."""
    text = str(value).replace(".", "p")
    return re.sub(r"[^A-Za-z0-9]+", "-", text).strip("-").lower() or "x"


@dataclass(frozen=True)
class CampaignCell:
    """One point of the grid: its enumeration index, id, and axis values."""

    index: int
    cell_id: str
    values: Dict[str, object]

    @property
    def workload(self) -> str:
        return str(self.values["workload"])


@dataclass
class CampaignSpec:
    """A named cartesian product of axes, plus the trace parameters.

    ``axes`` is an ordered list of ``(axis_name, [values...])`` pairs —
    a list rather than a dict so the declaration order survives
    ``json.dumps(..., sort_keys=True)`` and feeds the digest.
    """

    name: str
    axes: List[Tuple[str, List[object]]]
    trace_length: int = 2000
    seed: int = 42
    #: fixed (non-swept) SystemConfig overrides applied to every cell.
    base: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.axes = [(str(axis), list(values)) for axis, values in self.axes]
        names = [axis for axis, _values in self.axes]
        if len(set(names)) != len(names):
            raise CampaignError(
                f"campaign {self.name!r}: duplicate axis in {names}")
        if "workload" not in names:
            raise CampaignError(
                f"campaign {self.name!r} declares no workload axis; every "
                f"campaign needs one (e.g. workload=gups,mcf) — it selects "
                f"the trace each cell simulates")
        for axis, values in self.axes:
            if axis != "workload" and axis not in AXIS_FIELDS:
                raise CampaignError(
                    f"campaign {self.name!r}: unknown axis {axis!r}; valid "
                    f"axes: workload, {', '.join(sorted(AXIS_FIELDS))}")
            if not values:
                raise CampaignError(
                    f"campaign {self.name!r}: axis {axis!r} has no values")
        if self.trace_length <= 0:
            raise CampaignError(
                f"campaign {self.name!r}: trace_length must be positive")

    # ------------------------------------------------------------- identity

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "axes": [[axis, list(values)] for axis, values in self.axes],
            "trace_length": self.trace_length,
            "seed": self.seed,
            "base": dict(self.base),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CampaignSpec":
        try:
            return cls(name=payload["name"],
                       axes=[(axis, values)
                             for axis, values in payload["axes"]],
                       trace_length=payload["trace_length"],
                       seed=payload["seed"],
                       base=dict(payload.get("base", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(
                f"malformed campaign spec payload: {exc!r}") from exc

    def digest(self) -> str:
        """SHA-256 identity of the campaign (axis order included)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ----------------------------------------------------------------- grid

    def cells(self) -> List[CampaignCell]:
        """The full grid, in deterministic enumeration order.

        The product iterates axes in declaration order with the last axis
        fastest — the order every shard, ``repro campaign status``, and
        the merge doctor share.
        """
        names = [axis for axis, _values in self.axes]
        grid = itertools.product(*(values for _axis, values in self.axes))
        cells = []
        for index, combo in enumerate(grid):
            values = dict(zip(names, combo))
            cell_id = f"{index:04d}-" + "-".join(
                _slug(value) for value in combo)
            cells.append(CampaignCell(index=index, cell_id=cell_id,
                                      values=values))
        return cells

    def cell_config(self, cell: CampaignCell):
        """Build the :class:`~repro.sim.config.SystemConfig` for one cell."""
        from repro.mem.os_policy import THPPolicy
        from repro.sim.config import SystemConfig

        kwargs: Dict[str, object] = {"seed": self.seed}
        kwargs.update(self.base)
        for axis, value in cell.values.items():
            if axis == "workload":
                continue
            kwargs[AXIS_FIELDS[axis]] = value
        try:
            if isinstance(kwargs.get("thp_policy"), str):
                kwargs["thp_policy"] = THPPolicy(kwargs["thp_policy"])
            return SystemConfig(**kwargs)
        except (TypeError, ValueError) as exc:
            raise CampaignError(
                f"campaign {self.name!r}: cell {cell.cell_id} maps to an "
                f"invalid configuration: {exc}") from exc

    # ------------------------------------------------------------- on disk

    def save(self, campaign_dir) -> Path:
        """Write ``spec.json`` into the campaign directory (atomic,
        durable); refuses to overwrite a different campaign's spec."""
        campaign_dir = Path(campaign_dir)
        campaign_dir.mkdir(parents=True, exist_ok=True)
        path = campaign_dir / SPEC_FILENAME
        if path.exists():
            existing = load_spec(campaign_dir)
            if existing.digest() != self.digest():
                raise CampaignError(
                    f"{path} already holds a different campaign "
                    f"({existing.name!r}, digest "
                    f"{existing.digest()[:12]}...); use a fresh directory "
                    f"or delete the old campaign first")
            return path
        publish(path, (json.dumps(self.to_dict(), indent=2, sort_keys=True)
                       + "\n").encode("utf-8"))
        return path


def load_spec(campaign_dir) -> CampaignSpec:
    """Load ``spec.json`` from a campaign directory."""
    path = Path(campaign_dir) / SPEC_FILENAME
    if not path.exists():
        raise CampaignError(
            f"no campaign spec at {path}; run `repro campaign init` first")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CampaignError(f"{path}: corrupt campaign spec: {exc}") from exc
    return CampaignSpec.from_dict(payload)


def parse_axis_argument(text: str) -> Tuple[str, List[object]]:
    """Parse one CLI ``--axis name=v1,v2,...`` declaration.

    Values are coerced in order: ``true``/``false`` to bool, then int,
    then float, falling back to the raw string.
    """
    axis, separator, rest = text.partition("=")
    if not separator or not rest:
        raise CampaignError(
            f"bad axis declaration {text!r}; expected name=v1,v2 "
            f"(e.g. design=vipt,seesaw)")
    values: List[object] = []
    for token in rest.split(","):
        token = token.strip()
        lowered = token.lower()
        if lowered in ("true", "false"):
            values.append(lowered == "true")
            continue
        for cast in (int, float):
            try:
                values.append(cast(token))
                break
            except ValueError:
                continue
        else:
            values.append(token)
    return axis.strip(), values


def smoke_spec(name: str = "smoke") -> CampaignSpec:
    """The tiny campaign CI's chaos drill runs (4 cells, 2000-ref traces)."""
    return CampaignSpec(
        name=name,
        axes=[("workload", ["gups", "mcf"]),
              ("design", ["vipt", "seesaw"])],
        trace_length=2000,
        seed=42)


__all__ = [
    "AXIS_FIELDS",
    "SPEC_FILENAME",
    "CampaignCell",
    "CampaignSpec",
    "load_spec",
    "parse_axis_argument",
    "smoke_spec",
]
