"""Tests for angular binning."""

import math

import numpy as np
import pytest

from posekit.so3 import TWO_PI
from posekit.viewpoint import angle_to_bin


class TestAngleToBin:
    def test_zero_angle(self):
        for n in (4, 8, 16, 21, 24):
            assert angle_to_bin(0.0, n) == 0

    def test_centers_map_to_their_bin(self):
        for n in (4, 8, 16, 21, 24):
            for b in range(n):
                assert angle_to_bin(TWO_PI * b / n, n) == b

    def test_half_boundary_rounds_up(self):
        """An angle exactly halfway between centers belongs to the
        higher bin, wrapping from the last boundary back to bin 0."""
        assert angle_to_bin(math.pi / 4, 4) == 1
        assert angle_to_bin(3 * math.pi / 4, 4) == 2
        # halfway between the last center and 2*pi
        assert angle_to_bin(7 * math.pi / 4, 4) == 0

    def test_quarter_turns(self):
        assert angle_to_bin(math.pi / 2, 4) == 1
        assert angle_to_bin(math.pi, 4) == 2
        assert angle_to_bin(3 * math.pi / 2, 4) == 3

    def test_negative_angles_wrap(self):
        assert angle_to_bin(-0.01, 21) == 0
        assert angle_to_bin(-math.pi / 2, 4) == 3

    def test_small_perturbations_stay_in_bin(self):
        rng = np.random.default_rng(20)
        for n in (8, 21, 24):
            width = TWO_PI / n
            for b in range(n):
                eps = float(rng.uniform(-0.49, 0.49)) * width
                assert angle_to_bin(TWO_PI * b / n + eps, n) == b

    def test_rejects_bad_bin_count(self):
        with pytest.raises(ValueError, match="n_bins"):
            angle_to_bin(0.0, 0)

