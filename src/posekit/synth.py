"""Deterministic synthetic scenes with controllable error modes.

Every ground-truth object is an orthographic projection of a fixed
per-class 3D template under a uniformly random rotation, so viewpoints and
keypoints are consistent by construction and every downstream quantity has
a known optimum. Predictions replay the ground truth through a noise
profile: rotation jitter applied in the axis-angle tangent space, a
pi-flip about the vertical axis, left/right keypoint swaps, pixel jitter,
spurious detections, and score noise. Response maps are quadratic
log-Gaussian cones peaked at the (possibly swapped) predicted keypoint, so
appearance-only decoding reproduces the prediction and a swapped map keeps
a secondary peak at the true location one unit lower.

A scene is built in one pass. The random stream is consumed in fixed
per-instance blocks (`_draw_stream`); then every rotation, projection and
response map of the scene is computed in stacked numpy passes, bitwise
equal to the per-instance arithmetic (see the note above `_unit_rows` for
the steps that stay scalar); and the records are built last.

The module also carries brute-force re-derivations of the fused decode and
of average precision. They share no arithmetic with the library code they
check; keep it that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataio import Dataset, Manifest
from .fusion import COARSE_SIZE, GRID_SIZE, PriorBank, normalize_keypoints
from .metrics import Detection, Instance, Keypoint, KeypointHypothesis
from .so3 import EulerAngles, pi_flip, rotation_to_euler

DEFAULT_CLASSES = ("car", "chair", "sofa")
DEFAULT_KEYPOINT_COUNTS = {"car": 8, "chair": 7, "sofa": 6}

RESPONSE_SHARPNESS = 1.0  # stddev of the response cone, in fine-grid cells
SWAP_MARGIN = 1.0  # how far below the swapped peak the true peak sits

OCCLUSION_RATE = 0.2
TRUNCATION_RATE = 0.1


@dataclass(frozen=True)
class NoiseProfile:
    """Error rates and magnitudes injected into predictions."""

    viewpoint_jitter: float = 0.0  # radians, axis-angle stddev
    pi_flip_prob: float = 0.0
    lateral_swap_prob: float = 0.0
    keypoint_jitter: float = 0.0  # pixels
    false_positive_rate: float = 0.0
    score_noise: float = 0.0

    def __post_init__(self) -> None:
        # Numbers are floats (numpy's float64 included) and ints, not bools.
        for name in ("pi_flip_prob", "lateral_swap_prob", "false_positive_rate"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a probability, got {v!r}")
        for name in ("viewpoint_jitter", "keypoint_jitter", "score_noise"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and 0.0 <= v < math.inf):
                raise ValueError(f"{name} must be a nonnegative stddev, got {v!r}")


NOISE_PRESETS = {
    "zero": NoiseProfile(),
    "mild": NoiseProfile(0.05, 0.02, 0.05, 2.0, 0.05, 0.05),
    "moderate": NoiseProfile(0.15, 0.08, 0.15, 4.0, 0.15, 0.10),
    "heavy": NoiseProfile(0.30, 0.20, 0.30, 8.0, 0.30, 0.20),
}


def noise_preset(name: str) -> NoiseProfile:
    if name not in NOISE_PRESETS:
        known = ", ".join(sorted(NOISE_PRESETS))
        raise ValueError(f"unknown noise preset {name!r} (known: {known})")
    return NOISE_PRESETS[name]


def class_template(class_index: int, num_keypoints: int) -> np.ndarray:
    """Fixed 3D keypoint template for one class, inside the unit ball.

    Keypoints come in laterally mirrored pairs (2m, 2m+1) reflected across
    the x=0 plane; an odd final keypoint sits on the plane itself. The
    paired x offset is kept away from zero so the pair stays separable in
    most projections.
    """
    if num_keypoints < 1:
        raise ValueError("a class needs at least one keypoint")
    rng = np.random.default_rng(1000 + class_index)
    pts = np.zeros((num_keypoints, 3))
    for m in range(num_keypoints // 2):
        x = rng.uniform(0.35, 1.0)
        y, z = rng.uniform(-1.0, 1.0, size=2)
        pts[2 * m] = (x, y, z)
        pts[2 * m + 1] = (-x, y, z)
    if num_keypoints % 2:
        y, z = rng.uniform(-1.0, 1.0, size=2)
        pts[-1] = (0.0, y, z)
    pts /= np.linalg.norm(pts, axis=1).max()
    return pts


def _to_box(q: np.ndarray, x, y, w, h) -> np.ndarray:
    """Map the x/y components of rotated template points (..., 3) onto boxes.

    The box values broadcast against the leading axes of `q`; returns
    (..., 2) pixels.
    """
    out = np.empty(q.shape[:-1] + (2,))
    out[..., 0] = x + (q[..., 0] + 1.0) / 2.0 * w
    out[..., 1] = y + (q[..., 1] + 1.0) / 2.0 * h
    return out


# Which steps stay scalar. The generator's bytes are pinned, so a batched
# step must be bitwise equal to the per-instance arithmetic it replaced.
# Elementwise arithmetic is, and so are stacked matmuls such as
# `template @ R.transpose(0, 2, 1)` and `A @ B` on (n, 3, 3) stacks;
# `einsum` in their place is not. These stay one call per row:
# - `np.linalg.norm` of a quaternion or an axis-angle vector: a 1-D norm
#   is a BLAS `ddot`, whose summation order no batched sum or einsum
#   reproduces;
# - `math.sin`/`math.cos` of the rotation angle: `np.sin`/`np.cos` agree
#   on common builds but dispatch to SIMD kernels on some CPUs;
# - `so3.rotation_to_euler` (`math.asin`/`math.atan2`; `np.arctan2`
#   differs in the last ulp on about a tenth of rotations).


def _unit_rows(q: np.ndarray) -> np.ndarray:
    """Each row of a (n, d) array divided by its own scalar norm."""
    return q / np.array([np.linalg.norm(row) for row in q])[:, None]


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of unit quaternions (..., 4) as (w, x, y, z)."""
    w, x, y, z = np.moveaxis(np.asarray(q), -1, 0)
    entries = [
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]
    return np.stack(entries, axis=-1).reshape(np.shape(w) + (3, 3))


def _exp_so3(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula: axis-angle vectors (n, 3) to rotations (n, 3, 3).

    Angles below 1e-12 give the identity exactly.
    """
    theta = np.array([np.linalg.norm(v) for v in w])
    out = np.tile(np.eye(3), (len(w), 1, 1))
    turn = np.flatnonzero(theta >= 1e-12)
    t = theta[turn]
    kx, ky, kz = (w[turn] / t[:, None]).T
    k = np.zeros((len(turn), 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -kz, ky
    k[:, 1, 0], k[:, 1, 2] = kz, -kx
    k[:, 2, 0], k[:, 2, 1] = -ky, kx
    sin = np.array([math.sin(v) for v in t])[:, None, None]
    versin = np.array([1.0 - math.cos(v) for v in t])[:, None, None]
    out[turn] = np.eye(3) + sin * k + versin * (k @ k)
    return out


def _response_maps(
    peaks: np.ndarray, swap: np.ndarray, own: np.ndarray, size: int, sharpness: float
) -> np.ndarray:
    """Quadratic log-Gaussian cones, peaked (at 0) at each (x, y) of `peaks`.

    Rows flagged in `swap` keep a secondary peak SWAP_MARGIN lower at
    their `own` location. Returns a (m, size, size) float32 stack, rows
    indexed by y; each grid row is computed in float64 for every map at
    once and rounded once, so no float64 copy of the whole stack exists.
    """
    c = np.arange(size) + 0.5
    denom = 2.0 * sharpness * sharpness
    own_px, own_py = own[swap, :1], own[swap, 1:]
    own_dx2 = (c - own_px) ** 2
    out = np.empty((len(peaks), size, size), dtype=np.float32)
    row = np.empty((len(peaks), size))
    for y in range(size):
        np.subtract(c, peaks[:, :1], out=row)
        np.square(row, out=row)
        row += (c[y] - peaks[:, 1:]) ** 2
        np.negative(row, out=row)
        row /= denom
        second = -(own_dx2 + (c[y] - own_py) ** 2) / denom - SWAP_MARGIN
        row[swap] = np.maximum(row[swap], second)
        out[:, y, :] = row
    return out


def _grid_coords(template: np.ndarray, rots: np.ndarray) -> np.ndarray:
    """Template keypoints on the 12x12 grid under a stack of rotations."""
    q = template @ rots.transpose(0, 2, 1)
    g = _to_box(q, 0.0, 0.0, float(GRID_SIZE), float(GRID_SIZE))
    return np.clip(g, 0.0, GRID_SIZE - 1e-9)


def _make_manifest() -> Manifest:
    names = {}
    pairs = {}
    for cls in DEFAULT_CLASSES:
        k_c = DEFAULT_KEYPOINT_COUNTS[cls]
        cls_names = []
        cls_pairs = {}
        for m in range(k_c // 2):
            cls_names += [f"pair{m}_left", f"pair{m}_right"]
            cls_pairs[2 * m] = 2 * m + 1
            cls_pairs[2 * m + 1] = 2 * m
        if k_c % 2:
            cls_names.append("center")
        names[cls] = cls_names
        pairs[cls] = cls_pairs
    return Manifest(
        classes=list(DEFAULT_CLASSES),
        keypoint_names=names,
        symmetry_pairs=pairs,
        excluded_classes=[],
    )


def _draw_stream(
    rng: np.random.Generator, n: int, k_all: Sequence[int]
) -> dict[str, np.ndarray]:
    """Consume the random stream in its fixed per-instance block.

    Returns each draw stacked in instance order: per-instance draws as
    (n, ...) arrays, and the per-pair (u_swap) and per-keypoint draws as
    their instances' rows one after another.
    """
    fixed: dict[str, list] = {}
    ragged: dict[str, list] = {}
    for _ in range(n):
        ci = rng.integers(len(k_all))
        k = k_all[ci]
        # One instance's block, in draw order: a new draw goes here once.
        for into, name, value in (
            (fixed, "cls", ci),
            (fixed, "dims", rng.uniform(60.0, 160.0, size=2)),
            (fixed, "pos", rng.uniform(0.0, 200.0, size=2)),
            (fixed, "q_gt", rng.normal(size=4)),
            (fixed, "flags", rng.random(2)),
            (fixed, "eps_vp", rng.normal(size=3)),
            (fixed, "u_flip", rng.random()),
            (ragged, "u_swap", rng.random(k // 2)),
            (ragged, "eps_kp", rng.normal(size=(k, 2))),
            (ragged, "eps_kp_score", rng.normal(size=k)),
            (fixed, "eps_score", rng.normal()),
            (fixed, "u_fp", rng.random()),
            (fixed, "fp_shift", rng.random(2)),
            (fixed, "q_fp", rng.normal(size=4)),
            (fixed, "eps_fp_score", rng.normal()),
            (ragged, "eps_fp_kp_score", rng.normal(size=k)),
        ):
            into.setdefault(name, []).append(value)
    draws = {name: np.array(values) for name, values in fixed.items()}
    draws.update((name, np.concatenate(values)) for name, values in ragged.items())
    return draws


def _project_rows(
    templates: Sequence[np.ndarray],
    cls: np.ndarray,
    offsets: np.ndarray,
    rots: np.ndarray,
    boxes: np.ndarray,
) -> np.ndarray:
    """Each instance's class template under its rotation, mapped into its box.

    Instance i is of class cls[i] and owns keypoint rows
    offsets[i]:offsets[i + 1]. One stacked matmul per class; returns the
    (total keypoints, 2) pixel rows in instance order.
    """
    rotated = np.empty((offsets[-1], 3))
    for ci, template in enumerate(templates):
        sel = np.flatnonzero(cls == ci)
        at = (offsets[sel][:, None] + np.arange(len(template))).ravel()
        rotated[at] = (template @ rots[sel].transpose(0, 2, 1)).reshape(-1, 3)
    x, y, w, h = np.repeat(boxes, np.diff(offsets), axis=0).T
    return _to_box(rotated, x, y, w, h)


def _detection(
    image_id: str,
    cls: str,
    bbox: tuple[float, ...],
    score: float,
    viewpoint: EulerAngles,
    hyps: Iterable[tuple[float, float, float]],
) -> Detection:
    """One detection; hyps gives (x, y, score) of each keypoint in id order."""
    return Detection(
        image_id=image_id,
        class_name=cls,
        bbox=bbox,
        score=score,
        viewpoint=viewpoint,
        keypoint_hypotheses={k: KeypointHypothesis(*h) for k, h in enumerate(hyps)},
    )


def generate_scene(
    seed: int,
    n_instances: int,
    profile: NoiseProfile,
    box_size: tuple[float, float] | None = None,
    bank_size: int = 200,
) -> Dataset:
    """Build a full synthetic dataset: GT, predictions, maps, prior bank.

    Deterministic in the seed. The random stream is consumed in a fixed
    per-instance block regardless of the profile's values, so two scenes
    generated with the same seed but different profiles share identical
    ground truth and differ only in the injected errors. Only the draws
    run per instance; rotations, projections and response maps are
    computed once for the whole scene, then the records are built.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be at least 1")
    if bank_size < 1:
        raise ValueError("bank_size must be at least 1")
    if box_size is not None and not all(math.isfinite(v) and v > 0 for v in box_size):
        raise ValueError(f"box_size must be positive and finite, got {box_size!r}")
    counts = [DEFAULT_KEYPOINT_COUNTS[cls] for cls in DEFAULT_CLASSES]
    templates = [class_template(ci, k_c) for ci, k_c in enumerate(counts)]

    rng = np.random.default_rng(seed)
    banks = {}
    for cls, template in zip(DEFAULT_CLASSES, templates):
        rots = _quat_to_matrix(_unit_rows(rng.normal(size=(bank_size, 4))))
        banks[cls] = PriorBank(cls, rots, _grid_coords(template, rots))  # every keypoint present

    d = _draw_stream(rng, n_instances, counts)
    cls = d["cls"]
    k_inst = np.asarray(counts)[cls]
    offsets = np.concatenate(([0], np.cumsum(k_inst)))
    owner = np.repeat(np.arange(n_instances), k_inst)
    local = np.arange(offsets[-1]) - offsets[owner]

    size = d["dims"]
    if box_size is not None:
        size = np.tile(np.asarray(box_size, float), (n_instances, 1))
    boxes = np.concatenate((d["pos"], size), axis=1)
    fp_boxes = np.concatenate((d["pos"] + size * (1.5 + d["fp_shift"]), size), axis=1)

    r_gt = _quat_to_matrix(_unit_rows(d["q_gt"]))
    r_pred = r_gt @ _exp_so3(profile.viewpoint_jitter * d["eps_vp"])
    flip = d["u_flip"] < profile.pi_flip_prob
    r_pred[flip] = pi_flip(r_pred[flip])

    gt_px = _project_rows(templates, cls, offsets, r_gt, boxes)
    pred_px = gt_px + profile.keypoint_jitter * d["eps_kp"]

    # A swapped pair trades predictions: row 2m reads 2m+1 and back.
    swap = np.zeros(offsets[-1], dtype=bool)
    swap[local < k_inst[owner] // 2 * 2] = np.repeat(d["u_swap"] < profile.lateral_swap_prob, 2)
    target = np.arange(offsets[-1])
    target[swap] += 1 - 2 * (local[swap] % 2)

    grid = normalize_keypoints(boxes[owner], pred_px[:, None])[:, 0]

    fine = _response_maps(grid[target], swap, grid, GRID_SIZE, RESPONSE_SHARPNESS)
    coarse = _response_maps(
        grid[target] / 2.0, swap, grid / 2.0, COARSE_SIZE, RESPONSE_SHARPNESS / 2.0
    )
    is_fp = d["u_fp"] < profile.false_positive_rate
    r_fp = _quat_to_matrix(_unit_rows(d["q_fp"]))
    fp_px = _project_rows(templates, cls, offsets, r_fp, fp_boxes)

    # What the records read, as Python values where a record takes them;
    # false positives are read for the few instances that have one.
    noise = profile.score_noise
    occluded = (d["flags"][:, 0] < OCCLUSION_RATE).tolist()
    truncated = (d["flags"][:, 1] < TRUNCATION_RATE).tolist()
    euler_gt = [rotation_to_euler(r) for r in r_gt]
    euler_pred = [rotation_to_euler(r) for r in r_pred]
    score = (1.0 + noise * d["eps_score"]).tolist()
    gt_x, gt_y = gt_px.T.tolist()
    hyp_x, hyp_y = pred_px[target].T.tolist()
    kp_score = (1.0 + noise * d["eps_kp_score"]).tolist()
    euler_fp = {i: rotation_to_euler(r_fp[i]) for i in np.flatnonzero(is_fp).tolist()}
    fp_score = 0.5 + noise * d["eps_fp_score"]
    fp_kp_score = 0.5 + noise * d["eps_fp_kp_score"]

    instances: list[Instance] = []
    detections: list[Detection] = []
    response_maps: dict[str, dict[str, np.ndarray]] = {}
    bounds = offsets.tolist()
    for i, (ci, box) in enumerate(zip(cls.tolist(), boxes.tolist())):
        name = DEFAULT_CLASSES[ci]
        start, stop = bounds[i], bounds[i + 1]
        bbox = tuple(box)
        image_id = f"im{i:06d}"
        iid = f"inst{i:06d}"
        instances.append(
            Instance(
                id=iid,
                image_id=image_id,
                class_name=name,
                bbox=bbox,
                occluded=occluded[i],
                truncated=truncated[i],
                viewpoint=euler_gt[i],
                keypoints={
                    k: Keypoint(gt_x[r], gt_y[r], True)
                    for k, r in enumerate(range(start, stop))
                },
            )
        )
        response_maps[iid] = {"fine": fine[start:stop], "coarse": coarse[start:stop]}
        hyps = zip(hyp_x[start:stop], hyp_y[start:stop], kp_score[start:stop])
        detections.append(_detection(image_id, name, bbox, score[i], euler_pred[i], hyps))
        if is_fp[i]:
            hyps = zip(*fp_px[start:stop].T.tolist(), fp_kp_score[start:stop].tolist())
            fp_box = tuple(fp_boxes[i].tolist())
            detections.append(
                _detection(image_id, name, fp_box, float(fp_score[i]), euler_fp[i], hyps)
            )

    return Dataset(
        manifest=_make_manifest(),
        instances=instances,
        detections=detections,
        response_maps=response_maps,
        prior_banks=banks,
    )


def oracle_fuse(prior: np.ndarray, loglik: np.ndarray) -> tuple[float, float]:
    """Exhaustive re-derivation of the fused argmax decode.

    Scans every cell with plain Python arithmetic; strictly-greater
    comparison keeps the first maximum in row-major order.
    """
    n = len(prior)
    best_val = -math.inf
    best = (0, 0)
    for i in range(n):
        for j in range(n):
            v = math.log(float(prior[i][j])) + float(loglik[i][j])
            if v > best_val:
                best_val = v
                best = (i, j)
    return (best[1] + 0.5, best[0] + 0.5)


def oracle_ap(ranking: Sequence[tuple[float, bool]], n_gt: int) -> float:
    """All-points average precision recomputed from first principles.

    Sorts by descending score (stable), then accumulates, for each true
    positive, the recall step times the best precision achieved at or
    after that rank.
    """
    if n_gt < 1:
        raise ValueError("n_gt must be at least 1")
    order = sorted(range(len(ranking)), key=lambda i: -ranking[i][0])
    flags = [bool(ranking[i][1]) for i in order]
    n = len(flags)
    precisions = []
    tp = 0
    for k in range(n):
        tp += flags[k]
        precisions.append(tp / (k + 1))
    suffix = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = max(precisions[k], suffix[k + 1])
    ap = 0.0
    prev_recall = 0.0
    tp = 0
    for k in range(n):
        if flags[k]:
            tp += 1
            recall = tp / n_gt
            ap += (recall - prev_recall) * suffix[k]
            prev_recall = recall
    return ap
