"""Angular binning: which of n equal bins an angle falls in.

Bins are centered on multiples of 2*pi/n_bins, so bin 0 straddles angle 0.
AVP's viewpoint test (metrics.bin_match) counts a detection's azimuth as
correct when it lands in the same bin as the ground truth's.
"""

from __future__ import annotations

from .so3 import TWO_PI, wrap_angle


def angle_to_bin(angle: float, n_bins: int) -> int:
    """Index of the bin whose center is circularly nearest to the angle.

    Boundary angles exactly halfway between two centers round up to the
    higher bin index (modulo wrap-around).
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    width = TWO_PI / n_bins
    return int(wrap_angle(angle) / width + 0.5) % n_bins
