"""Unit tests for the heuristic cost functions (Equations 1 and 2)."""

import pytest

from repro.circuits.gates import Gate
from repro.core.heuristic import (
    DecayTracker,
    HeuristicConfig,
    mapped_distance_sum,
    score_layout,
)
from repro.exceptions import MappingError
from repro.hardware import distance_matrix, line_device


@pytest.fixture(scope="module")
def line_dist():
    return distance_matrix(line_device(5))


class TestHeuristicConfig:
    def test_paper_defaults(self):
        config = HeuristicConfig()
        assert config.mode == "decay"
        assert config.extended_set_size == 20
        assert config.extended_set_weight == 0.5
        assert config.decay_delta == 0.001
        assert config.decay_reset_interval == 5

    def test_invalid_mode(self):
        with pytest.raises(MappingError, match="unknown heuristic mode"):
            HeuristicConfig(mode="quantum")

    def test_weight_bounds(self):
        with pytest.raises(MappingError):
            HeuristicConfig(extended_set_weight=1.0)
        with pytest.raises(MappingError):
            HeuristicConfig(extended_set_weight=-0.1)

    def test_negative_delta_rejected(self):
        with pytest.raises(MappingError):
            HeuristicConfig(decay_delta=-0.1)

    def test_negative_extended_size_rejected(self):
        with pytest.raises(MappingError):
            HeuristicConfig(extended_set_size=-1)

    @pytest.mark.parametrize(
        "field", ["extended_set_weight", "decay_delta", "swap_cost_penalty"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(MappingError, match=f"{field} must be a finite"):
            HeuristicConfig(**{field: value})

    def test_reset_interval_positive(self):
        with pytest.raises(MappingError):
            HeuristicConfig(decay_reset_interval=0)

    def test_capability_flags(self):
        assert not HeuristicConfig(mode="basic").uses_lookahead
        assert HeuristicConfig(mode="lookahead").uses_lookahead
        assert not HeuristicConfig(mode="lookahead").uses_decay
        assert HeuristicConfig(mode="decay").uses_decay
        assert not HeuristicConfig(
            mode="decay", extended_set_size=0
        ).uses_lookahead


class TestDecayTracker:
    def test_initial_values_one(self):
        tracker = DecayTracker(4, delta=0.01, reset_interval=5)
        assert tracker.values == [1.0] * 4
        assert tracker.factor(0, 1) == 1.0

    def test_record_swap_bumps_both(self):
        tracker = DecayTracker(4, delta=0.01, reset_interval=5)
        tracker.record_swap(0, 2)
        assert tracker.values[0] == pytest.approx(1.01)
        assert tracker.values[2] == pytest.approx(1.01)
        assert tracker.values[1] == 1.0

    def test_factor_takes_max(self):
        tracker = DecayTracker(3, delta=0.5, reset_interval=10)
        tracker.record_swap(0, 1)
        tracker.record_swap(0, 2)
        assert tracker.factor(0, 1) == pytest.approx(2.0)  # q0 bumped twice

    def test_auto_reset_on_interval(self):
        """'reset every 5 search steps' (§V)."""
        tracker = DecayTracker(2, delta=0.1, reset_interval=5)
        for _ in range(5):
            tracker.record_swap(0, 1)
        assert tracker.values == [1.0, 1.0]

    def test_manual_reset(self):
        tracker = DecayTracker(2, delta=0.1, reset_interval=100)
        tracker.record_swap(0, 1)
        tracker.reset()
        assert tracker.values == [1.0, 1.0]


class TestScoreLayout:
    def _front(self):
        return [Gate("cx", (0, 3)), Gate("cx", (1, 2))]

    def test_mapped_distance_sum(self, line_dist):
        l2p = [0, 1, 2, 3, 4]
        assert mapped_distance_sum(self._front(), l2p, line_dist) == 3 + 1

    def test_basic_mode_is_equation1(self, line_dist):
        """Equation 1: raw sum over F, no normalisation."""
        config = HeuristicConfig(mode="basic")
        score = score_layout(self._front(), [], [0, 1, 2, 3, 4], line_dist, config)
        assert score == 4.0

    def test_lookahead_mode_normalises(self, line_dist):
        config = HeuristicConfig(mode="lookahead", extended_set_weight=0.5)
        extended = [Gate("cx", (0, 4))]
        score = score_layout(
            self._front(), extended, [0, 1, 2, 3, 4], line_dist, config
        )
        # front term: (3+1)/2 = 2 ; extended term: 0.5 * 4/1 = 2
        assert score == pytest.approx(4.0)

    def test_lookahead_without_extended_gates(self, line_dist):
        config = HeuristicConfig(mode="lookahead")
        score = score_layout(self._front(), [], [0, 1, 2, 3, 4], line_dist, config)
        assert score == pytest.approx(2.0)

    def test_weight_zero_ignores_extended(self, line_dist):
        config = HeuristicConfig(mode="lookahead", extended_set_weight=0.0)
        extended = [Gate("cx", (0, 4))]
        with_e = score_layout(
            self._front(), extended, [0, 1, 2, 3, 4], line_dist, config
        )
        without = score_layout(
            self._front(), [], [0, 1, 2, 3, 4], line_dist, config
        )
        assert with_e == without

    def test_better_layout_scores_lower(self, line_dist):
        config = HeuristicConfig(mode="lookahead")
        far = score_layout(
            [Gate("cx", (0, 1))], [], [0, 4, 1, 2, 3], line_dist, config
        )
        near = score_layout(
            [Gate("cx", (0, 1))], [], [0, 1, 2, 3, 4], line_dist, config
        )
        assert near < far
