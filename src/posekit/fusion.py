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

# Instances of one class fused per stacked pass. Larger passes save
# per-call overhead, but each holds a few (B, K, 12, 12) float64 arrays and
# the heap keeps what they free. On the n = 4000 fuse-bank scene (K <= 8,
# one CPU of a 2-core host) fusion takes 1.0 s at 1, 0.57 s at 8 and
# 0.56 s at 16, and the fuse process's peak RSS grows by 0.2 MB at 8 and
# 0.35 MB at 16 over 1.
FUSE_CHUNK = 8

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

    Takes one 12x12 map and one 6x6 map, or stacks of them with the same
    leading axes, such as (B, k, 12, 12) and (B, k, 6, 6).
    """
    f = np.array(fine, dtype=np.float64)  # a copy, scaled in place below
    if f.shape[-2:] != (GRID_SIZE, GRID_SIZE):
        raise ValueError(f"fine map must be 12x12, got shape {f.shape}")
    if not (math.isfinite(w_fine) and math.isfinite(w_coarse)):
        raise ValueError("scale weights must be finite")
    up = upsample_coarse(coarse)
    if up.shape != f.shape:
        raise ValueError(
            f"fine and coarse maps disagree: shapes {f.shape} and {np.shape(coarse)}"
        )
    f *= w_fine
    up *= w_coarse
    f += up
    return f


def _boxes(boxes) -> np.ndarray:
    """(B, 4) float stack of (x, y, w, h); refuses a w or h not above 0, or NaN."""
    boxes = np.asarray(boxes, dtype=np.float64)
    degenerate = ~(boxes[:, 2:] > 0).all(axis=1)
    if degenerate.any():
        raise ValueError(f"degenerate box {tuple(boxes[degenerate.argmax()].tolist())}")
    return boxes


def normalize_keypoints(boxes: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Map pixel locations into the fixed 12x12 grid of their boxes.

    boxes is a (B, 4) stack of (x, y, w, h) and px a (B, K, 2) stack of
    pixel (x, y) pairs, row b in box b; returns the (B, K, 2) grid stack.
    Coordinates are clamped to [0, 12 - 1e-9] so each always indexes a
    valid grid cell.
    """
    boxes = _boxes(boxes)
    grid = (np.asarray(px, dtype=np.float64) - boxes[:, None, :2]) / boxes[:, None, 2:]
    grid *= GRID_SIZE
    return np.minimum(np.maximum(grid, 0.0), GRID_SIZE - 1e-9)


def normalize_keypoint(box: Box, p: tuple[float, float]) -> tuple[float, float]:
    """normalize_keypoints for one box and one pixel point."""
    gx, gy = normalize_keypoints([box], [[p]])[0, 0].tolist()
    return (gx, gy)


def denormalize_keypoints(boxes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Map 12x12 grid coordinates back to pixels (inverse of normalize).

    boxes is a (B, 4) stack of (x, y, w, h) and cells a (B, K, 2) stack of
    grid (x, y) pairs, row b in box b; returns the (B, K, 2) pixel stack.
    """
    boxes = _boxes(boxes)
    return boxes[:, None, :2] + np.asarray(cells) / GRID_SIZE * boxes[:, None, 2:]


def denormalize_keypoint(box: Box, g: tuple[float, float]) -> tuple[float, float]:
    """denormalize_keypoints for one box and one grid point."""
    x, y = denormalize_keypoints([box], [[g]])[0, 0].tolist()
    return (x, y)


def _neighbors(rs: np.ndarray, bank: PriorBank, threshold: float) -> np.ndarray:
    """(B, n) mask of the bank entries geodesically near each of B rotations.

    Row b marks the entries with distance strictly below the threshold;
    when none qualify, the single nearest entry (the first on a tie), so
    the prior is always defined. One distance pass serves the whole stack.
    """
    if len(bank) == 0:
        raise ValueError("prior bank is empty")
    d = geodesic_distances(rs[:, None], bank.rotations)
    near = d < threshold
    lonely = np.flatnonzero(~near.any(axis=1))
    near[lonely, d[lonely].argmin(axis=1)] = True
    return near


def neighbor_set(
    r: np.ndarray, bank: PriorBank, threshold: float = NEIGHBOR_THRESHOLD
) -> np.ndarray:
    """Indices of bank entries whose rotation is geodesically near r.

    Returns all entries with distance strictly below the threshold; when
    none qualify, falls back to the single nearest entry so the prior is
    always defined.
    """
    return np.flatnonzero(_neighbors(np.asarray(r)[None], bank, threshold)[0])


# [dx2 | dy2] @ _OUTER_SUM is dx2[j] + dy2[i] at cell 12 i + j: each cell
# adds its two terms once and the rest are exact zeros, so it is bitwise
# the broadcast sum, in one BLAS call instead of 12-cell loops.
_OUTER_SUM = np.vstack(
    [np.tile(np.eye(GRID_SIZE), GRID_SIZE), np.repeat(np.eye(GRID_SIZE), GRID_SIZE, axis=1)]
)


def _mixture(
    bank: PriorBank, entries: np.ndarray, sizes: np.ndarray, ids: slice, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian mixtures over the neighbors of B queries, one per keypoint.

    entries holds the neighbor indices of the queries one query after
    another, each query's in bank order, and sizes (B,) how many belong to
    each (at least one). Returns the (B, k, 12, 12) stack for the keypoint
    ids in the slice, clamped below at PRIOR_FLOOR, and the (B, k) number
    of neighbors carrying each keypoint. A keypoint that no neighbor
    carries gets count 0 and a grid of floor values. Each query's sum runs
    over its neighbors in bank order and adds 0.0 for an absent entry, so
    each grid is bitwise the mean over the entries that carry the keypoint.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    ends = np.cumsum(sizes)
    starts = ends - sizes
    present = bank.present[entries, ids]  # (pairs, k)
    count = np.add.reduceat(present, starts, axis=0, dtype=np.intp)
    # absent coordinates are unvalidated: zero them so they stay finite
    means = np.where(present[..., None], bank.keypoints[entries, ids], 0.0)
    # [dx2 | dy2]: squared offsets of the keypoint from the cell centers,
    # over columns then over rows, one (pair, keypoint) per row
    d2 = np.empty((*present.shape, 2, GRID_SIZE))
    np.subtract(np.arange(GRID_SIZE) + 0.5, means[..., None], out=d2)
    np.square(d2, out=d2)
    d2 = d2.reshape(-1, 2 * GRID_SIZE)
    # norm where present, 0.0 where absent: one multiply for both
    scale = np.where(present, 1.0 / (2.0 * math.pi * sigma * sigma), 0.0).reshape(-1, 1)
    total = np.empty((*count.shape, GRID_SIZE, GRID_SIZE))
    sums = total.reshape(*count.shape, GRID_SIZE * GRID_SIZE)
    k = present.shape[1]
    # one query's (neighbors * k, 144) array at a time: the whole stack's
    # would outgrow the heap (see FUSE_CHUNK)
    for b, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        rows = slice(start * k, end * k)
        grid = d2[rows] @ _OUTER_SUM  # dx2 + dy2 in every cell
        grid /= -2.0 * sigma * sigma  # bitwise -(d2) / (2 sigma^2)
        np.exp(grid, out=grid)
        grid *= scale[rows]
        grid.reshape(end - start, *sums.shape[1:]).sum(axis=0, out=sums[b])
    total /= np.maximum(count, 1)[..., None, None]
    return np.maximum(total, PRIOR_FLOOR, out=total), count


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
    ids = slice(keypoint_id, keypoint_id + 1)
    prior, count = _mixture(bank, neighbors, np.array([neighbors.size]), ids, sigma)
    if count[0, 0] == 0:
        raise NoPriorSupportError(
            f"keypoint {keypoint_id} absent from all {neighbors.size} neighbors"
        )
    return prior[0, 0]


def keypoint_priors(
    rs: np.ndarray,
    bank: PriorBank,
    num_keypoints: int,
    sigma: float = PRIOR_SIGMA,
    threshold: float = NEIGHBOR_THRESHOLD,
) -> np.ndarray:
    """Priors of keypoints 0..num_keypoints-1 at each of a (B, 3, 3) stack
    of viewpoints, as (B, k, 12, 12).

    Entry [b, k] equals pose_prior(rs[b], bank, k, sigma, threshold), or
    uniform_prior() where that raises NoPriorSupportError; the neighbor
    sets of the whole stack are found in one distance pass.
    """
    if num_keypoints > bank.num_keypoints:
        raise ValueError(
            f"{num_keypoints} keypoints requested but the {bank.class_name!r} bank"
            f" has {bank.num_keypoints}"
        )
    near = _neighbors(rs, bank, threshold)
    _, entries = np.nonzero(near)
    priors, count = _mixture(bank, entries, near.sum(axis=1), slice(0, num_keypoints), sigma)
    priors[count == 0] = uniform_prior()
    return priors


def uniform_prior() -> np.ndarray:
    """Flat fallback prior over the 12x12 grid (sums to 1)."""
    return np.full((GRID_SIZE, GRID_SIZE), 1.0 / (GRID_SIZE * GRID_SIZE))


def _decode(priors: np.ndarray, logliks: np.ndarray) -> np.ndarray:
    """Cell centers (x, y) of the argmax of log(prior) + loglik, per map.

    Takes (..., 12, 12) stacks and returns (..., 2); ties resolve to the
    first cell in row-major scan order. Overwrites priors.
    """
    fused = np.log(priors, out=priors)
    fused += logliks
    flat = np.argmax(fused.reshape(*fused.shape[:-2], GRID_SIZE * GRID_SIZE), axis=-1)
    rows, cols = np.divmod(flat, GRID_SIZE)
    return np.stack([cols + 0.5, rows + 0.5], axis=-1)


def fuse_and_decode(prior: np.ndarray, loglik: np.ndarray) -> tuple[float, float]:
    """Grid coordinates of the argmax of log(prior) + loglik.

    Returns the center (x, y) = (col + 0.5, row + 0.5) of the winning cell;
    ties resolve to the first cell in row-major scan order.
    """
    p = np.array(prior, dtype=np.float64)  # a copy: _decode overwrites it
    l = np.asarray(loglik, dtype=np.float64)
    if p.shape != (GRID_SIZE, GRID_SIZE) or l.shape != (GRID_SIZE, GRID_SIZE):
        raise ValueError(
            f"prior and log-likelihood must be 12x12, got {p.shape} and {l.shape}"
        )
    x, y = _decode(p, l).tolist()
    return (x, y)


def fuse_instances(
    rs: np.ndarray,
    bank: PriorBank,
    fine: np.ndarray,
    coarse: np.ndarray,
    w_fine: float = 0.5,
    w_coarse: float = 0.5,
    sigma: float = PRIOR_SIGMA,
    threshold: float = NEIGHBOR_THRESHOLD,
) -> np.ndarray:
    """Fused grid coordinates of every keypoint of a stack of instances.

    rs (B, 3, 3) are the viewpoints the instances are conditioned on, and
    fine (B, K, 12, 12) and coarse (B, K, 6, 6) their response maps,
    channel i for keypoint id i of the bank. Returns (B, K, 2) cell
    centers (x, y), equal to combine_scales, pose_prior (uniform_prior on
    NoPriorSupportError) and fuse_and_decode run one keypoint of one
    instance at a time. Callers bound B (see FUSE_CHUNK): a call holds a
    few (B, K, 12, 12) arrays at once.
    """
    logliks = combine_scales(fine, coarse, w_fine, w_coarse)
    if logliks.ndim != 4:
        raise ValueError(f"response maps must be stacked (B, K, 12, 12), got {logliks.shape}")
    priors = keypoint_priors(rs, bank, logliks.shape[1], sigma, threshold)
    return _decode(priors, logliks)
