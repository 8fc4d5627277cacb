"""Adaptive gating of way prediction (the paper's stated future work).

§VI-F closes with: "We intend studying advanced schemes that dynamically
choose when to combine SEESAW and way-prediction, in future work."  This
module implements the natural such scheme: a confidence gate that tracks
the way predictor's recent accuracy with an exponentially weighted moving
average and disables prediction while accuracy is below a threshold —
so pointer-chasing phases fall back to plain SEESAW (no misprediction
penalty) while high-locality phases keep the extra energy savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class WayPredictionGate:
    """EWMA-confidence gate over a way predictor.

    Args:
        threshold: minimum estimated accuracy to keep predicting.
        alpha: EWMA smoothing factor per observed outcome.
        probe_interval: while gated off, one in every ``probe_interval``
            accesses still makes a (shadow) prediction so the gate can
            detect when locality returns.
    """

    threshold: float = 0.6
    alpha: float = 0.05
    probe_interval: int = 32
    estimate: float = 1.0
    _disabled_count: int = field(default=0, repr=False)

    def should_predict(self) -> bool:
        """Decide whether the next access uses the way predictor."""
        if self.estimate >= self.threshold:
            return True
        self._disabled_count += 1
        if self._disabled_count >= self.probe_interval:
            # Periodic shadow probe: give the predictor a chance to prove
            # locality has returned.
            self._disabled_count = 0
            return True
        return False

    def update(self, correct: bool) -> None:
        """Fold one prediction outcome into the confidence estimate."""
        self.estimate = ((1 - self.alpha) * self.estimate
                         + self.alpha * (1.0 if correct else 0.0))
