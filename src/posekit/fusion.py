"""Keypoint likelihood fusion: response-map geometry, the viewpoint-
conditioned mixture-of-Gaussians prior, and fused argmax decoding.

Response maps are per-keypoint spatial score grids over a normalized object
crop (fine 12x12 or coarse 6x6). Keypoint coordinates are normalized by
warping the instance bounding box to the fixed 12x12 grid; the prior and
the fused decode both live on that grid, with cell (row i, col j) centered
at (x, y) = (j + 0.5, i + 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .so3 import geodesic_distances

GRID_SIZE = 12
COARSE_SIZE = GRID_SIZE // 2

NEIGHBOR_THRESHOLD = math.pi / 6
PRIOR_SIGMA = 2.0
PRIOR_FLOOR = 1e-12

Box = tuple[float, float, float, float]


class NoPriorSupportError(Exception):
    """Raised when a keypoint is present in no neighbor of the prior bank."""


@dataclass
class PriorBank:
    """Training corpus for the viewpoint-conditioned prior of one class.

    rotations: (n, 3, 3) rotation matrices, one per training instance.
    keypoints: (n, k, 2) normalized grid coordinates in [0, 12) x [0, 12).
    present:   (n, k) flags; absent keypoints contribute nothing.
    """

    class_name: str
    rotations: np.ndarray
    keypoints: np.ndarray
    present: np.ndarray | None = None

    def __post_init__(self) -> None:
        rot = np.asarray(self.rotations, dtype=np.float64)
        kps = np.asarray(self.keypoints, dtype=np.float64)
        if rot.ndim != 3 or rot.shape[1:] != (3, 3):
            raise ValueError(f"rotations must have shape (n, 3, 3), got {rot.shape}")
        if kps.ndim != 3 or kps.shape[2] != 2 or kps.shape[0] != rot.shape[0]:
            raise ValueError(f"keypoints must have shape (n, k, 2), got {kps.shape}")
        present = self.present
        if present is None:
            present = np.ones(kps.shape[:2], dtype=bool)
        present = np.asarray(present, dtype=bool)
        if present.shape != kps.shape[:2]:
            raise ValueError("present flags must have shape (n, k)")
        used = kps[present]
        if used.size and (
            not np.all(np.isfinite(used))
            or used.min() < 0.0
            or used.max() >= GRID_SIZE
        ):
            raise ValueError("present keypoint coordinates must lie in [0, 12)")
        self.rotations = rot
        self.keypoints = kps
        self.present = present

    def __len__(self) -> int:
        return self.rotations.shape[0]

    @property
    def num_keypoints(self) -> int:
        return self.keypoints.shape[1]


def upsample_coarse(coarse: np.ndarray) -> np.ndarray:
    """Upsample 6x6 maps to 12x12.

    Each coarse cell is replicated into its 2x2 block of fine cells, which
    is exact and order-independent. Leading axes are kept, so a (k, 6, 6)
    stack becomes (k, 12, 12).
    """
    c = np.asarray(coarse, dtype=np.float64)
    if c.shape[-2:] != (COARSE_SIZE, COARSE_SIZE):
        raise ValueError(f"coarse map must be 6x6, got shape {c.shape}")
    return np.repeat(np.repeat(c, 2, axis=-2), 2, axis=-1)


def combine_scales(
    fine: np.ndarray,
    coarse: np.ndarray,
    w_fine: float = 0.5,
    w_coarse: float = 0.5,
) -> np.ndarray:
    """Linear combination of fine maps and upsampled coarse maps.

    Takes one 12x12 map and one 6x6 map, or (k, 12, 12) and (k, 6, 6)
    stacks of the same k.
    """
    f = np.asarray(fine, dtype=np.float64)
    if f.shape[-2:] != (GRID_SIZE, GRID_SIZE):
        raise ValueError(f"fine map must be 12x12, got shape {f.shape}")
    if not (math.isfinite(w_fine) and math.isfinite(w_coarse)):
        raise ValueError("scale weights must be finite")
    up = upsample_coarse(coarse)
    if up.shape != f.shape:
        raise ValueError(
            f"fine and coarse maps disagree: shapes {f.shape} and {np.shape(coarse)}"
        )
    return w_fine * f + w_coarse * up


def normalize_keypoint(box: Box, p: tuple[float, float]) -> tuple[float, float]:
    """Map a pixel location into the fixed 12x12 grid of a bounding box.

    Coordinates are clamped to [0, 12 - 1e-9] so the result always indexes
    a valid grid cell.
    """
    x, y, w, h = box
    if w <= 0 or h <= 0:
        raise ValueError(f"degenerate box {box}")
    gx = (p[0] - x) / w * GRID_SIZE
    gy = (p[1] - y) / h * GRID_SIZE
    hi = GRID_SIZE - 1e-9
    return (min(max(gx, 0.0), hi), min(max(gy, 0.0), hi))


def denormalize_keypoint(box: Box, g: tuple[float, float]) -> tuple[float, float]:
    """Map 12x12 grid coordinates back to pixels (inverse of normalize)."""
    x, y, w, h = box
    if w <= 0 or h <= 0:
        raise ValueError(f"degenerate box {box}")
    return (x + g[0] / GRID_SIZE * w, y + g[1] / GRID_SIZE * h)


def neighbor_set(
    r: np.ndarray, bank: PriorBank, threshold: float = NEIGHBOR_THRESHOLD
) -> np.ndarray:
    """Indices of bank entries whose rotation is geodesically near r.

    Returns all entries with distance strictly below the threshold; when
    none qualify, falls back to the single nearest entry so the prior is
    always defined.
    """
    if len(bank) == 0:
        raise ValueError("prior bank is empty")
    d = geodesic_distances(r, bank.rotations)
    idx = np.flatnonzero(d < threshold)
    if idx.size == 0:
        idx = np.array([int(np.argmin(d))])
    return idx


def _mixture(
    bank: PriorBank, neighbors: np.ndarray, ids: slice, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian mixtures over the given neighbors, one per keypoint.

    Returns the (k, 12, 12) stack for the keypoint ids in the slice,
    clamped below at PRIOR_FLOOR, and the number of neighbors carrying
    each keypoint. A keypoint that no neighbor carries gets count 0 and a
    grid of floor values. The sum runs over the neighbors in bank order and
    adds 0.0 for an absent entry, so each grid is bitwise the mean over the
    entries that carry the keypoint.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    present = bank.present[neighbors, ids]  # (n, k)
    # absent coordinates are unvalidated: zero them so they stay finite
    means = np.where(present[..., None], bank.keypoints[neighbors, ids], 0.0)
    cells = np.arange(GRID_SIZE) + 0.5
    dx2 = (cells - means[..., 0, None]) ** 2  # (n, k, 12) over columns
    dy2 = (cells - means[..., 1, None]) ** 2  # (n, k, 12) over rows
    norm = 1.0 / (2.0 * math.pi * sigma * sigma)
    grid = norm * np.exp(-(dx2[..., None, :] + dy2[..., :, None]) / (2.0 * sigma * sigma))
    total = np.where(present[..., None, None], grid, 0.0).sum(axis=0)
    count = present.sum(axis=0)
    return np.maximum(total / np.maximum(count, 1)[:, None, None], PRIOR_FLOOR), count


def pose_prior(
    r: np.ndarray,
    bank: PriorBank,
    keypoint_id: int,
    sigma: float = PRIOR_SIGMA,
    threshold: float = NEIGHBOR_THRESHOLD,
) -> np.ndarray:
    """Viewpoint-conditioned keypoint prior on the 12x12 grid.

    An equal-weight mixture of isotropic Gaussians centered on the
    keypoint's location in each geodesic neighbor of r where the keypoint
    is present, evaluated at cell centers and clamped below at 1e-12.
    Raises NoPriorSupportError when no neighbor carries the keypoint, in
    which case callers fall back to a uniform prior.
    """
    if not 0 <= keypoint_id < bank.num_keypoints:
        raise ValueError(f"keypoint id {keypoint_id} out of range")
    neighbors = neighbor_set(r, bank, threshold)
    prior, count = _mixture(bank, neighbors, slice(keypoint_id, keypoint_id + 1), sigma)
    if count[0] == 0:
        raise NoPriorSupportError(
            f"keypoint {keypoint_id} absent from all {neighbors.size} neighbors"
        )
    return prior[0]


def keypoint_priors(
    r: np.ndarray,
    bank: PriorBank,
    num_keypoints: int,
    sigma: float = PRIOR_SIGMA,
    threshold: float = NEIGHBOR_THRESHOLD,
) -> np.ndarray:
    """Priors of keypoints 0..num_keypoints-1 at viewpoint r, as (k, 12, 12).

    Entry k equals pose_prior(r, bank, k, sigma, threshold), or
    uniform_prior() where that raises NoPriorSupportError; the neighbor
    set of r is found once for all of them.
    """
    if num_keypoints > bank.num_keypoints:
        raise ValueError(
            f"{num_keypoints} keypoints requested but the {bank.class_name!r} bank"
            f" has {bank.num_keypoints}"
        )
    neighbors = neighbor_set(r, bank, threshold)
    priors, count = _mixture(bank, neighbors, slice(0, num_keypoints), sigma)
    priors[count == 0] = uniform_prior()
    return priors


def uniform_prior() -> np.ndarray:
    """Flat fallback prior over the 12x12 grid (sums to 1)."""
    return np.full((GRID_SIZE, GRID_SIZE), 1.0 / (GRID_SIZE * GRID_SIZE))


def _decode(priors: np.ndarray, logliks: np.ndarray) -> np.ndarray:
    """Cell centers (x, y) of the argmax of log(prior) + loglik, per map.

    Takes (k, 12, 12) stacks and returns (k, 2); ties resolve to the first
    cell in row-major scan order.
    """
    fused = np.log(priors) + logliks
    flat = np.argmax(fused.reshape(-1, GRID_SIZE * GRID_SIZE), axis=1)
    rows, cols = np.divmod(flat, GRID_SIZE)
    return np.stack([cols + 0.5, rows + 0.5], axis=1)


def fuse_and_decode(prior: np.ndarray, loglik: np.ndarray) -> tuple[float, float]:
    """Grid coordinates of the argmax of log(prior) + loglik.

    Returns the center (x, y) = (col + 0.5, row + 0.5) of the winning cell;
    ties resolve to the first cell in row-major scan order.
    """
    p = np.asarray(prior, dtype=np.float64)
    l = np.asarray(loglik, dtype=np.float64)
    if p.shape != (GRID_SIZE, GRID_SIZE) or l.shape != (GRID_SIZE, GRID_SIZE):
        raise ValueError(
            f"prior and log-likelihood must be 12x12, got {p.shape} and {l.shape}"
        )
    x, y = _decode(p[None], l[None])[0].tolist()
    return (x, y)


def fuse_instance(
    r: np.ndarray,
    bank: PriorBank,
    fine: np.ndarray,
    coarse: np.ndarray,
    w_fine: float = 0.5,
    w_coarse: float = 0.5,
    sigma: float = PRIOR_SIGMA,
    threshold: float = NEIGHBOR_THRESHOLD,
) -> np.ndarray:
    """Fused grid coordinates of every keypoint of one instance.

    fine (k, 12, 12) and coarse (k, 6, 6) are the instance's response maps,
    channel i for keypoint id i of the bank, conditioned on viewpoint r.
    Returns (k, 2) cell centers (x, y), equal to combine_scales, pose_prior
    (uniform_prior on NoPriorSupportError) and fuse_and_decode run one
    keypoint at a time.
    """
    logliks = combine_scales(fine, coarse, w_fine, w_coarse)
    if logliks.ndim != 3:
        raise ValueError(f"response maps must be stacked (k, 12, 12), got {logliks.shape}")
    priors = keypoint_priors(r, bank, logliks.shape[0], sigma, threshold)
    return _decode(priors, logliks)
