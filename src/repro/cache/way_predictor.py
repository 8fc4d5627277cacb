"""MRU-based way prediction (paper §IV-B2, Fig. 15 baseline).

Way prediction probes a single predicted way first; on a correct prediction
the access behaves like a direct-mapped lookup (energy win).  On a
misprediction the remaining ways must be read in a second pass, adding a
cycle of latency — which is why way prediction alone can *degrade*
performance for poor-locality workloads (paper Fig. 15), while it composes
well with SEESAW (the predictor picks a way inside the partition, and a
misprediction only re-probes the partition's remaining ways).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class WayPredictorStats:
    """Prediction-accuracy counters."""

    predictions: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.predictions if self.predictions else 0.0


class MRUWayPredictor:
    """Per-set MRU predictor: predicts the most recently used way.

    The classic design from Powell et al. [33]: each set remembers its MRU
    way; the prediction is that the next access to the set hits that way.

    Args:
        num_sets: number of L1 sets.
        ways: L1 associativity (bounds stored way numbers).
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.stats = WayPredictorStats()
        self._mru: List[int] = [0] * num_sets

    def predict(self, set_index: int,
                candidates: Optional[Sequence[int]] = None) -> int:
        """Predict the way for an access to ``set_index``.

        ``candidates`` restricts legal predictions (SEESAW passes the
        partition's ways); an MRU way outside the candidates falls back to
        the first candidate.
        """
        self.stats.predictions += 1
        predicted = self._mru[set_index]
        if candidates is not None and predicted not in candidates:
            predicted = candidates[0]
        return predicted

    def record_outcome(self, set_index: int, actual_way: Optional[int],
                       predicted_way: int) -> bool:
        """Update training state after the access resolves.

        ``actual_way`` is the way that hit (None on a cache miss).  Returns
        True when the prediction was correct (only meaningful on hits).
        """
        correct = actual_way is not None and actual_way == predicted_way
        if correct:
            self.stats.correct += 1
        if actual_way is not None:
            self._mru[set_index] = actual_way
        return correct

    def update_on_fill(self, set_index: int, way: int) -> None:
        """A fill makes the filled way the MRU way."""
        self._mru[set_index] = way
