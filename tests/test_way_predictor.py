"""Tests for the MRU way predictor."""

import pytest

from repro.cache.way_predictor import MRUWayPredictor


class TestPrediction:
    def test_initial_prediction_is_way_zero(self):
        predictor = MRUWayPredictor(num_sets=64, ways=8)
        assert predictor.predict(0) == 0

    def test_predicts_most_recent_way(self):
        predictor = MRUWayPredictor(64, 8)
        predictor.record_outcome(5, actual_way=3, predicted_way=0)
        assert predictor.predict(5) == 3

    def test_per_set_state(self):
        predictor = MRUWayPredictor(64, 8)
        predictor.record_outcome(1, actual_way=7, predicted_way=0)
        assert predictor.predict(2) == 0

    def test_fill_trains_mru(self):
        predictor = MRUWayPredictor(64, 8)
        predictor.update_on_fill(9, 6)
        assert predictor.predict(9) == 6

    def test_candidate_restriction(self):
        """SEESAW hands the predictor its partition (paper §IV-B2)."""
        predictor = MRUWayPredictor(64, 8)
        predictor.update_on_fill(0, 1)       # MRU way 1, outside partition
        prediction = predictor.predict(0, candidates=[4, 5, 6, 7])
        assert prediction == 4


class TestAccuracyStats:
    def test_correct_prediction_counted(self):
        predictor = MRUWayPredictor(64, 8)
        p = predictor.predict(0)
        assert predictor.record_outcome(0, actual_way=p, predicted_way=p)
        assert predictor.stats.accuracy == 1.0

    def test_miss_not_counted_correct(self):
        predictor = MRUWayPredictor(64, 8)
        p = predictor.predict(0)
        assert not predictor.record_outcome(0, actual_way=None,
                                            predicted_way=p)
        assert predictor.stats.correct == 0

    def test_mru_accuracy_high_for_repeated_access(self):
        predictor = MRUWayPredictor(64, 8)
        correct = 0
        for _ in range(100):
            p = predictor.predict(0)
            if predictor.record_outcome(0, actual_way=2, predicted_way=p):
                correct += 1
        assert correct >= 99   # only the first access mispredicts

    def test_mru_accuracy_poor_for_alternating_ways(self):
        """The pointer-chase pathology behind Fig. 15's WP slowdowns."""
        predictor = MRUWayPredictor(64, 8)
        correct = 0
        for i in range(100):
            actual = i % 8
            p = predictor.predict(0)
            if predictor.record_outcome(0, actual_way=actual,
                                        predicted_way=p):
                correct += 1
        # Only the very first access (default prediction 0, actual 0) can
        # be right; every subsequent prediction trails by one way.
        assert correct <= 1
