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

The module also carries brute-force re-derivations of the fused decode and
of average precision. They share no arithmetic with the library code they
check; keep it that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataio import Dataset, Manifest
from .fusion import COARSE_SIZE, GRID_SIZE, PriorBank, normalize_keypoint
from .metrics import Detection, Instance, Keypoint, KeypointHypothesis
from .so3 import pi_flip, rotation_to_euler

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
        for name in ("pi_flip_prob", "lateral_swap_prob", "false_positive_rate"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a probability, got {v!r}")
        for name in ("viewpoint_jitter", "keypoint_jitter", "score_noise"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
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


def project_template(
    template: np.ndarray, r: np.ndarray, bbox: tuple[float, float, float, float]
) -> np.ndarray:
    """Orthographic projection of rotated template points into a box.

    The rotated x/y components, which lie in [-1, 1] for unit-ball
    templates, are mapped affinely onto the box; returns (K, 2) pixels.
    """
    q = np.asarray(template) @ np.asarray(r).T
    x, y, w, h = bbox
    out = np.empty((q.shape[0], 2))
    out[:, 0] = x + (q[:, 0] + 1.0) / 2.0 * w
    out[:, 1] = y + (q[:, 1] + 1.0) / 2.0 * h
    return out


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random rotation via a normalized Gaussian quaternion."""
    q = rng.normal(size=4)
    return _quat_to_matrix(q / np.linalg.norm(q))


def _exp_so3(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula: axis-angle vector to rotation matrix."""
    theta = float(np.linalg.norm(w))
    if theta < 1e-12:
        return np.eye(3)
    kx, ky, kz = w / theta
    k = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def _log_cone(center: np.ndarray, size: int, sharpness: float) -> np.ndarray:
    """Quadratic log-Gaussian peaked (at 0) at `center`, on an NxN grid."""
    c = np.arange(size) + 0.5
    dx2 = (c[None, :] - center[0]) ** 2
    dy2 = (c[:, None] - center[1]) ** 2
    return -(dx2 + dy2) / (2.0 * sharpness * sharpness)


def _grid_coords(template: np.ndarray, r: np.ndarray) -> np.ndarray:
    g = project_template(template, r, (0.0, 0.0, float(GRID_SIZE), float(GRID_SIZE)))
    return np.clip(g, 0.0, GRID_SIZE - 1e-9)


def _make_manifest(classes: Sequence[str], counts: Mapping[str, int]) -> Manifest:
    names = {}
    pairs = {}
    for cls in classes:
        k_c = counts[cls]
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
        classes=list(classes),
        keypoint_names=names,
        symmetry_pairs=pairs,
        excluded_classes=[],
    )


def generate_scene(
    seed: int,
    n_instances: int,
    profile: NoiseProfile,
    classes: Sequence[str] = DEFAULT_CLASSES,
    keypoint_counts: Mapping[str, int] | None = None,
    box_size: tuple[float, float] | None = None,
    bank_size: int = 200,
) -> Dataset:
    """Build a full synthetic dataset: GT, predictions, maps, prior bank.

    Deterministic in the seed. The random stream is consumed in a fixed
    per-instance block regardless of the profile's values, so two scenes
    generated with the same seed but different profiles share identical
    ground truth and differ only in the injected errors.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be at least 1")
    if bank_size < 1:
        raise ValueError("bank_size must be at least 1")
    counts = dict(DEFAULT_KEYPOINT_COUNTS if keypoint_counts is None else keypoint_counts)
    missing = [c for c in classes if c not in counts]
    if missing:
        raise ValueError(f"no keypoint count for classes {missing}")
    manifest = _make_manifest(classes, counts)
    templates = {cls: class_template(ci, counts[cls]) for ci, cls in enumerate(classes)}

    rng = np.random.default_rng(seed)
    banks = {}
    for cls in classes:
        rots = np.stack([random_rotation(rng) for _ in range(bank_size)])
        kps = np.stack([_grid_coords(templates[cls], r) for r in rots])
        banks[cls] = PriorBank(
            class_name=cls,
            rotations=rots,
            keypoints=kps,
            present=np.ones(kps.shape[:2], dtype=bool),
        )

    instances: list[Instance] = []
    detections: list[Detection] = []
    response_maps: dict[str, dict[str, np.ndarray]] = {}
    for i in range(n_instances):
        ci = int(rng.integers(len(classes)))
        cls = classes[ci]
        template = templates[cls]
        k_c = counts[cls]
        n_pairs = k_c // 2

        dims = rng.uniform(60.0, 160.0, size=2)
        pos = rng.uniform(0.0, 200.0, size=2)
        r_gt = random_rotation(rng)
        flags = rng.random(2)
        eps_vp = rng.normal(size=3)
        u_flip = rng.random()
        u_swap = rng.random(n_pairs)
        eps_kp = rng.normal(size=(k_c, 2))
        eps_kp_score = rng.normal(size=k_c)
        eps_score = rng.normal()
        u_fp = rng.random()
        fp_shift = rng.random(2)
        r_fp = random_rotation(rng)
        eps_fp_score = rng.normal()
        eps_fp_kp_score = rng.normal(size=k_c)

        w, h = box_size if box_size is not None else (dims[0], dims[1])
        bbox = (float(pos[0]), float(pos[1]), float(w), float(h))
        image_id = f"im{i:06d}"
        iid = f"inst{i:06d}"
        gt_px = project_template(template, r_gt, bbox)
        instances.append(
            Instance(
                id=iid,
                image_id=image_id,
                class_name=cls,
                bbox=bbox,
                occluded=bool(flags[0] < OCCLUSION_RATE),
                truncated=bool(flags[1] < TRUNCATION_RATE),
                viewpoint=rotation_to_euler(r_gt),
                keypoints={
                    k: Keypoint(float(gt_px[k, 0]), float(gt_px[k, 1]), True)
                    for k in range(k_c)
                },
            )
        )

        r_pred = r_gt @ _exp_so3(profile.viewpoint_jitter * eps_vp)
        if u_flip < profile.pi_flip_prob:
            r_pred = pi_flip(r_pred)

        pred_px = gt_px + profile.keypoint_jitter * eps_kp
        target = np.arange(k_c)
        for m in range(n_pairs):
            if u_swap[m] < profile.lateral_swap_prob:
                target[2 * m], target[2 * m + 1] = 2 * m + 1, 2 * m

        grid = np.array([normalize_keypoint(bbox, (p[0], p[1])) for p in pred_px])
        fine = np.empty((k_c, GRID_SIZE, GRID_SIZE), dtype=np.float32)
        coarse = np.empty((k_c, COARSE_SIZE, COARSE_SIZE), dtype=np.float32)
        for k in range(k_c):
            t = int(target[k])
            fine_k = _log_cone(grid[t], GRID_SIZE, RESPONSE_SHARPNESS)
            coarse_k = _log_cone(grid[t] / 2.0, COARSE_SIZE, RESPONSE_SHARPNESS / 2.0)
            if t != k:
                fine_k = np.maximum(
                    fine_k, _log_cone(grid[k], GRID_SIZE, RESPONSE_SHARPNESS) - SWAP_MARGIN
                )
                coarse_k = np.maximum(
                    coarse_k,
                    _log_cone(grid[k] / 2.0, COARSE_SIZE, RESPONSE_SHARPNESS / 2.0)
                    - SWAP_MARGIN,
                )
            fine[k] = fine_k
            coarse[k] = coarse_k
        response_maps[iid] = {"fine": fine, "coarse": coarse}

        hyp_px = pred_px[target]
        detections.append(
            Detection(
                image_id=image_id,
                class_name=cls,
                bbox=bbox,
                score=float(1.0 + profile.score_noise * eps_score),
                viewpoint=rotation_to_euler(r_pred),
                keypoint_hypotheses={
                    k: KeypointHypothesis(
                        float(hyp_px[k, 0]),
                        float(hyp_px[k, 1]),
                        float(1.0 + profile.score_noise * eps_kp_score[k]),
                    )
                    for k in range(k_c)
                },
            )
        )

        if u_fp < profile.false_positive_rate:
            fp_box = (
                float(pos[0] + w * (1.5 + fp_shift[0])),
                float(pos[1] + h * (1.5 + fp_shift[1])),
                float(w),
                float(h),
            )
            fp_px = project_template(template, r_fp, fp_box)
            detections.append(
                Detection(
                    image_id=image_id,
                    class_name=cls,
                    bbox=fp_box,
                    score=float(0.5 + profile.score_noise * eps_fp_score),
                    viewpoint=rotation_to_euler(r_fp),
                    keypoint_hypotheses={
                        k: KeypointHypothesis(
                            float(fp_px[k, 0]),
                            float(fp_px[k, 1]),
                            float(0.5 + profile.score_noise * eps_fp_kp_score[k]),
                        )
                        for k in range(k_c)
                    },
                )
            )

    return Dataset(
        manifest=manifest,
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
