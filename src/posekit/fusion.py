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

# Instances of one class whose neighbor sets are found in one distance
# pass, and the size of the blocks (cut after sorting by neighbor count)
# whose priors are summed and decoded together. On the n = 4000 fuse-bank
# scene (bank 1000 per class, K <= 8, predicted viewpoints, one CPU of a
# 2-core host), fuse_instances over the three classes takes 0.168-0.172 s
# of CPU at 32, 0.147-0.149 s at 64 and 0.141-0.144 s at 128 (best of 25).
# The fuse process peaks at 46.8 MB at 64, 47.1 MB at 96 and 47.4 MB at
# 128 (median of 6), against 47.2 MB for unsorted blocks of 32 summed by
# one gather: a pass's (FUSE_CHUNK, len(bank)) float64 distances stay in
# the heap once freed, under the prior table that comes next.
FUSE_CHUNK = 64

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
    """(B, 4) float stack of (x, y, w, h); refuses a non-finite value, or a w or h not above 0."""
    boxes = np.asarray(boxes, dtype=np.float64)
    sound = np.isfinite(boxes).all(axis=1) & (boxes[:, 2:] > 0).all(axis=1)
    if not sound.all():
        raise ValueError(f"degenerate box {tuple(boxes[sound.argmin()].tolist())}")
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


def neighbor_set(
    r: np.ndarray, bank: PriorBank, threshold: float = NEIGHBOR_THRESHOLD
) -> np.ndarray:
    """Indices of bank entries whose rotation is geodesically near r.

    Returns all entries with distance strictly below the threshold; when
    none qualify, falls back to the single nearest entry so the prior is
    always defined.
    """
    return np.flatnonzero(_near(np.asarray(r)[None], bank, threshold)[0])


def _near(rs: np.ndarray, bank: PriorBank, threshold: float) -> np.ndarray:
    """(B, len(bank)) flags of the neighbors (neighbor_set) of each of B
    rotations, in one distance pass: the entries below the threshold or,
    where there is none, the nearest entry (the first on a tie)."""
    if len(bank) == 0:
        raise ValueError("prior bank is empty")
    d = geodesic_distances(rs[:, None], bank.rotations)
    near = d < threshold
    lonely = np.flatnonzero(~near.any(axis=1))
    near[lonely, d[lonely].argmin(axis=1)] = True
    return near


def _padded(entries: np.ndarray, starts: np.ndarray, sizes: np.ndarray, pad: int) -> np.ndarray:
    """(B, max(sizes)) rows, row b holding entries[starts[b]:][:sizes[b]] and
    padded at its end with pad."""
    query = np.repeat(np.arange(len(sizes)), sizes)
    col = np.arange(query.size) - (np.cumsum(sizes) - sizes)[query]
    rows = np.full((len(sizes), sizes.max(initial=0)), pad)
    rows[query, col] = entries[starts[query] + col]
    return rows


def _sorted_blocks(
    rs: np.ndarray, bank: PriorBank, threshold: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The B rotations sorted by neighbor count, largest first (stable), and
    cut into blocks of FUSE_CHUNK: (indices into rs, their neighbor_set rows)
    per block, the rows padded with len(bank) to the block's first count.
    The neighbor sets are found FUSE_CHUNK rotations per distance pass, and
    held as one flat array of entries until the blocks are cut."""
    none = np.zeros(0, dtype=np.intp)  # so that no rotation concatenates
    sizes, entries = [none], [none]
    for lo in range(0, len(rs), FUSE_CHUNK):
        near = _near(rs[lo : lo + FUSE_CHUNK], bank, threshold)
        sizes.append(near.sum(axis=1))
        entries.append(np.nonzero(near)[1])
    size, flat = np.concatenate(sizes), np.concatenate(entries)
    start = np.cumsum(size) - size
    order = np.argsort(-size, kind="stable")
    return [
        (q, _padded(flat, start[q], size[q], len(bank)))
        for q in (order[lo : lo + FUSE_CHUNK] for lo in range(0, len(rs), FUSE_CHUNK))
    ]


def _table(bank: PriorBank, k: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """(len(bank) + 1, 144) Gaussian grids of keypoint k around every bank
    entry, row i for entry i, 0.0 where that entry lacks the keypoint, and
    the (len(bank) + 1,) flags of the entries carrying it. The last row,
    which _sorted_blocks pads with, is zeros and carries nothing. Raises
    ValueError unless the Gaussian is finite: sigma > 0, and the norm
    1 / (2 pi sigma^2) does not overflow, which keeps 2 sigma^2 above 0.
    """
    denom = 2.0 * math.pi * sigma * sigma
    if not (sigma > 0 and denom > 0 and math.isfinite(1.0 / denom)):
        raise ValueError(f"sigma must be positive with a finite Gaussian, got {sigma}")
    present = bank.present[:, k]
    # absent coordinates are unvalidated: zero them so they stay finite
    means = np.where(present[:, None], bank.keypoints[:, k], 0.0)
    # squared offsets of the keypoint from the cell centers: [:, 0] over
    # columns (dx2), [:, 1] over rows (dy2)
    d2 = np.empty((len(bank), 2, GRID_SIZE))
    np.subtract(np.arange(GRID_SIZE) + 0.5, means[..., None], out=d2)
    np.square(d2, out=d2)
    table = np.zeros((len(bank) + 1, GRID_SIZE * GRID_SIZE))
    grid = table[:-1]
    # dx2[j] + dy2[i] at cell 12 i + j
    np.add(d2[:, 1, :, None], d2[:, 0, None, :], out=grid.reshape(-1, GRID_SIZE, GRID_SIZE))
    # A tiny sigma sends far cells to -inf, whose exp is the exact limit 0.
    with np.errstate(over="ignore"):
        grid /= -2.0 * sigma * sigma  # bitwise -(d2) / (2 sigma^2)
        np.exp(grid, out=grid)
    # norm where present, 0.0 where absent: one multiply for both
    grid *= np.where(present, 1.0 / denom, 0.0)[:, None]
    return table, np.append(present, False)


def _priors(
    table: np.ndarray, carried: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mixture priors of one keypoint for a block of neighbor rows.

    table and carried come from _table, rows (B, m) from _sorted_blocks (or
    one neighbor_set). Returns the (B, 12, 12) priors, clamped below at
    PRIOR_FLOOR, and the (B,) number of neighbors carrying the keypoint;
    where that is 0 the prior is uniform. The grids are summed slot by
    slot (column j of rows, for j = 0 .. m - 1), so a query's sum runs over
    its neighbors in bank order and adds 0.0 for an absent entry or a
    padding row: each grid is bitwise the mean over the entries that carry
    the keypoint.
    """
    count = carried[rows].sum(axis=1)
    priors = np.zeros((len(rows), GRID_SIZE * GRID_SIZE))
    for j in range(rows.shape[1]):
        priors += table[rows[:, j]]
    priors = priors.reshape(-1, GRID_SIZE, GRID_SIZE)
    priors /= np.maximum(count, 1)[:, None, None]
    np.maximum(priors, PRIOR_FLOOR, out=priors)
    priors[count == 0] = uniform_prior()
    return priors, count


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
    prior, count = _priors(*_table(bank, keypoint_id, sigma), neighbors[None])
    if count[0] == 0:
        raise NoPriorSupportError(
            f"keypoint {keypoint_id} absent from all {neighbors.size} neighbors"
        )
    return prior[0]


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
    """Fused grid coordinates of every keypoint of the instances of a class.

    rs (B, 3, 3) are the viewpoints the instances are conditioned on, and
    fine and coarse their response maps: (B, K, 12, 12) and (B, K, 6, 6)
    stacks, channel i for keypoint id i of the bank; stacks of any other
    shape raise ValueError. Returns (B, K, 2) cell centers (x, y), equal to
    combine_scales, pose_prior (uniform_prior on NoPriorSupportError) and
    fuse_and_decode run one keypoint of one instance at a time.

    Neighbor sets are found FUSE_CHUNK instances per distance pass. The
    instances are then sorted by neighbor count (stable, largest first) and
    cut into blocks of FUSE_CHUNK, so a block's neighbor rows carry little
    padding. Fusion runs keypoint by keypoint: each keypoint's Gaussian
    grids are evaluated once, around every bank entry (_table), and each
    block's priors (_priors) are decoded against the block's rows of that
    keypoint's maps, combined in one combine_scales call, so no
    (B, K, 12, 12) float64 array is built. One table is alive at a time:
    keypoint k's is freed before keypoint k + 1's is built.
    """
    channels = fine.shape[1] if fine.ndim > 1 else 0
    want = tuple((len(rs), channels, size, size) for size in (GRID_SIZE, COARSE_SIZE))
    if (fine.shape, coarse.shape) != want:
        raise ValueError(
            f"fine and coarse maps of shapes {fine.shape} and {coarse.shape} for"
            f" {len(rs)} viewpoints, expected {want[0]} and {want[1]}"
        )
    if channels > bank.num_keypoints:
        raise ValueError(
            f"{channels} keypoints requested but the {bank.class_name!r} bank"
            f" has {bank.num_keypoints}"
        )
    blocks = _sorted_blocks(rs, bank, threshold)
    cells = np.empty((len(rs), channels, 2))
    for k in range(channels):
        table, carried = _table(bank, k, sigma)
        for q, rows in blocks:
            priors, _ = _priors(table, carried, rows)
            logliks = combine_scales(fine[q, k], coarse[q, k], w_fine, w_coarse)
            cells[q, k] = _decode(priors, logliks)
        del table  # so no two keypoints' tables are alive at once
    return cells
