"""Evaluation metrics for viewpoint and keypoint prediction.

Two settings are covered. With known boxes: median geodesic viewpoint error
(degrees), accuracy under a threshold, and PCK for keypoints. In the
detection setting: average precision where a detection must localize
(IoU > 0.5) and additionally pass a viewpoint test (bin match for AVP,
azimuth error for AVP_theta, full rotation error for ARP_theta), and APK
for scored keypoint hypotheses. All of them share one greedy matcher and
one all-points interpolated AP.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .so3 import EulerAngles, azimuth_distance, euler_to_rotations, geodesic_distances
from .so3 import euler_to_rotation  # noqa: F401  (traced alias, perfbench/selftest.py BINDINGS)
from .so3 import geodesic_distance  # noqa: F401  (traced alias, perfbench/selftest.py BINDINGS)
from .viewpoint import angle_to_bin

IOU_THRESHOLD = 0.5

Box = tuple[float, float, float, float]


@dataclass(frozen=True, slots=True)
class Keypoint:
    x: float
    y: float
    visible: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("keypoint has non-finite coordinates")


@dataclass(frozen=True, slots=True)
class KeypointHypothesis:
    x: float
    y: float
    score: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.score)):
            raise ValueError("keypoint hypothesis has non-finite values")


def _check_box(bbox: Box, what: str) -> None:
    """Refuse a non-finite or empty (x, y, w, h) box; what names it in the message."""
    x, y, w, h = bbox
    if not all(math.isfinite(v) for v in (x, y, w, h)):
        raise ValueError(f"{what} has non-finite values")
    if w <= 0 or h <= 0:
        raise ValueError(f"{what} must have w > 0 and h > 0")


@dataclass
class Instance:
    """An annotated object: identity, box, flags, viewpoint, keypoints."""

    id: str
    image_id: str
    class_name: str
    bbox: Box
    occluded: bool = False
    truncated: bool = False
    viewpoint: EulerAngles | None = None
    keypoints: dict[int, Keypoint] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_box(self.bbox, f"instance {self.id}: bbox")

    @property
    def area(self) -> float:
        return self.bbox[2] * self.bbox[3]


@dataclass
class Detection:
    """A scored prediction candidate in the detection setting."""

    image_id: str
    class_name: str
    bbox: Box
    score: float
    viewpoint: EulerAngles | None = None
    keypoint_hypotheses: dict[int, KeypointHypothesis] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError("detection score must be finite")
        _check_box(self.bbox, "detection bbox")


@dataclass
class EvalReport:
    """Metric tables plus PR curves, ready for serialization.

    sections maps a section name to ordered rows of name -> value, where
    None marks an absent entry (an empty slice, never a zero). curves maps
    a name to a (recall, precision) array pair.
    """

    sections: dict[str, dict[str, float | None]] = field(default_factory=dict)
    curves: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def validate(self) -> None:
        for name, (rec, _) in self.curves.items():
            if np.any(np.diff(rec) < 0):
                raise ValueError(f"curve {name!r}: recall must be nondecreasing")


def mean_present(values: Iterable[float | None]) -> float | None:
    """Mean of the values that are not None, summed in order (None if none are)."""
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else None


def median_degrees(errors: Sequence[float]) -> float:
    """Median of geodesic errors given in radians, in degrees."""
    return float(np.degrees(np.median(errors)))


def fraction_below(errors: Sequence[float], theta: float) -> float:
    """Fraction of the errors strictly below theta."""
    return np.count_nonzero(np.less(errors, theta)) / len(errors)


def viewpoint_errors(
    annotated: Sequence[EulerAngles], predicted: Sequence[EulerAngles]
) -> np.ndarray:
    """Geodesic error of each (annotated, predicted) euler pair, in radians:
    one rotation stack per side and one distance call for all of them."""
    return geodesic_distances(euler_to_rotations(annotated), euler_to_rotations(predicted))


def _pair_errors(pairs: Sequence[tuple[np.ndarray, np.ndarray]], what: str) -> np.ndarray:
    if len(pairs) == 0:
        raise ValueError(f"{what} needs at least one pair")
    stack = np.asarray(pairs, dtype=np.float64)
    return geodesic_distances(stack[:, 0], stack[:, 1])


def median_error(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> float:
    """Median geodesic distance over (gt, predicted) rotations, in degrees."""
    return median_degrees(_pair_errors(pairs, "median_error"))


def accuracy_at(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]], theta: float = math.pi / 6
) -> float:
    """Fraction of pairs with geodesic distance strictly below theta."""
    return fraction_below(_pair_errors(pairs, "accuracy_at"), theta)


def iou(b1: Box, b2: Box) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    x1, y1, w1, h1 = b1
    x2, y2, w2, h2 = b2
    iw = min(x1 + w1, x2 + w2) - max(x1, x2)
    ih = min(y1 + h1, y2 + h2) - max(y1, y2)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (w1 * h1 + w2 * h2 - inter)


def voc_ap(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """All-points interpolated average precision.

    The precision envelope is made nonincreasing from the right, then the
    area is accumulated over the recall increments. Empty inputs give 0.
    """
    rec = np.asarray(recalls, dtype=np.float64)
    prec = np.asarray(precisions, dtype=np.float64)
    if rec.shape != prec.shape or rec.ndim != 1:
        raise ValueError("recalls and precisions must be 1-D and equally long")
    if rec.size == 0:
        return 0.0
    if np.any(np.diff(rec) < 0):
        raise ValueError("recalls must be nondecreasing")
    mrec = np.concatenate(([0.0], rec, [1.0]))
    mpre = np.concatenate(([0.0], prec, [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    changed = np.flatnonzero(mrec[1:] != mrec[:-1])
    terms = np.diff(mrec)[changed]
    terms *= mpre[changed + 1]
    # np.cumsum adds left to right, as a loop does; np.sum would change the bits
    return float(np.cumsum(terms, out=terms)[-1])


@dataclass
class DetectionEval:
    """Per-class outcome of a detection-setting evaluation."""

    ap: float
    recalls: np.ndarray
    precisions: np.ndarray
    num_gt: int


CorrectFn = Callable[[Detection, Instance], bool]
# A viewpoint test: the localized claims of one class, in rank order, as
# the detections and the ground truths they claimed; one verdict per claim.
ViewpointTest = Callable[[Sequence[Detection], Sequence[Instance]], list[bool]]


def _greedy_match(
    cands: Sequence[tuple[float, str, object]],
    gts: Sequence[tuple[str, object]],
    cost: Callable[[object, object], float | None],
    keep: Callable[[object, object], bool] | None = None,
) -> list[tuple[object, object | None]]:
    """Greedy score-ordered matching of candidates to ground truths.

    cands are (score, image_id, item) and gts (image_id, item). Candidates
    are walked in descending score order (stable on ties); each claims the
    unconsumed same-image ground truth of lowest cost(item, gt_item), the
    first one winning a tie, where a cost of None rules it out. A claim
    consumes its ground truth unless keep(item, gt_item) is false, which
    drops the claim. Returns (item, claimed gt_item or None) per rank.
    """
    order = sorted(range(len(cands)), key=lambda i: -cands[i][0])
    by_image: dict[str, list[int]] = {}
    for g, (image_id, _) in enumerate(gts):
        by_image.setdefault(image_id, []).append(g)
    taken = [False] * len(gts)
    claims: list[tuple[object, object | None]] = []
    for i in order:
        _, image_id, item = cands[i]
        best_cost, best_g = math.inf, -1
        for g in by_image.get(image_id, ()):
            if taken[g]:
                continue
            c = cost(item, gts[g][1])
            if c is not None and c < best_cost:
                best_cost, best_g = c, g
        if best_g >= 0 and (keep is None or keep(item, gts[best_g][1])):
            taken[best_g] = True
            claims.append((item, gts[best_g][1]))
        else:
            claims.append((item, None))
    return claims


def _pr_eval(tp: Sequence[bool], n_gt: int) -> DetectionEval:
    """Recall, precision and all-points AP of a ranked true-positive list."""
    cum_tp = np.cumsum(np.asarray(tp, dtype=np.int64))
    recalls = cum_tp / n_gt if n_gt else np.zeros(len(tp))
    precisions = cum_tp / np.arange(1, len(tp) + 1)
    ap = voc_ap(recalls, precisions) if n_gt else 0.0
    return DetectionEval(ap=ap, recalls=recalls, precisions=precisions, num_gt=n_gt)


def _iou_cost(det: Detection, gt: Instance) -> float | None:
    """Localization: IoU above 0.5, the highest IoU claimed first."""
    ov = iou(det.bbox, gt.bbox)
    return -ov if ov > IOU_THRESHOLD else None


def evaluate_detection_tests(
    detections: Iterable[Detection],
    gt_instances: Iterable[Instance],
    tests: Mapping[str, ViewpointTest],
    consume_on_localization: bool = True,
) -> dict[str, dict[str, DetectionEval]]:
    """AP plus PR curves per class under each named viewpoint test.

    Returns class -> test name -> DetectionEval. A detection localizes on
    the highest-IoU unmatched same-image ground truth with IoU > 0.5 and
    is a true positive of each test that accepts the pair. With
    consume_on_localization (the default everywhere) the ground truth is
    consumed even when a test fails, so a wrong-viewpoint detection blocks
    re-matching, one match per class serves every test, and each test is
    called once per class on all of that match's claims; otherwise only
    true positives consume, and each test runs its own match, called on
    one claim at a time.
    """
    dets_by_class: dict[str, list[Detection]] = {}
    for d in detections:
        dets_by_class.setdefault(d.class_name, []).append(d)
    gts_by_class: dict[str, list[Instance]] = {}
    for g in gt_instances:
        gts_by_class.setdefault(g.class_name, []).append(g)
    out: dict[str, dict[str, DetectionEval]] = {}
    for cls in sorted(set(dets_by_class) | set(gts_by_class)):
        cands = [(d.score, d.image_id, d) for d in dets_by_class.get(cls, [])]
        gts = [(g.image_id, g) for g in gts_by_class.get(cls, [])]
        if not gts:
            warnings.warn(f"class {cls!r} has no ground truth; AP reported as 0")
        out[cls] = {}
        if consume_on_localization:
            claims = _greedy_match(cands, gts, _iou_cost)
            ranks = [r for r, (_, gt) in enumerate(claims) if gt is not None]
            claimed = [claims[r][0] for r in ranks], [claims[r][1] for r in ranks]
            for name, test in tests.items():
                tp = np.zeros(len(claims), dtype=bool)
                tp[ranks] = test(*claimed)
                out[cls][name] = _pr_eval(tp, len(gts))
        else:
            for name, test in tests.items():
                claims = _greedy_match(cands, gts, _iou_cost, lambda d, g: test([d], [g])[0])
                out[cls][name] = _pr_eval([gt is not None for _, gt in claims], len(gts))
    return out


def evaluate_detections(
    detections: Iterable[Detection],
    gt_instances: Iterable[Instance],
    correct: CorrectFn,
    consume_on_localization: bool = True,
) -> dict[str, DetectionEval]:
    """evaluate_detection_tests with the single per-pair test correct."""
    tests = {"correct": lambda dets, gts: [correct(d, g) for d, g in zip(dets, gts)]}
    evals = evaluate_detection_tests(detections, gt_instances, tests, consume_on_localization)
    return {cls: by_test["correct"] for cls, by_test in evals.items()}


def _require_viewpoints(
    dets: Sequence[Detection], gts: Sequence[Instance]
) -> tuple[list[EulerAngles], list[EulerAngles]]:
    """The (annotated, predicted) viewpoints of the claims; raises at the
    first claim, in rank order, where one is missing."""
    for det, gt in zip(dets, gts, strict=True):
        if det.viewpoint is None or gt.viewpoint is None:
            raise ValueError("viewpoint metrics need viewpoints on detections and GT")
    return [gt.viewpoint for gt in gts], [det.viewpoint for det in dets]


def bin_match(n_bins: int, dets: Sequence[Detection], gts: Sequence[Instance]) -> list[bool]:
    """AVP's viewpoint test: both azimuths fall in the same of n_bins bins."""
    return [
        angle_to_bin(vp.azimuth, n_bins) == angle_to_bin(vg.azimuth, n_bins)
        for vg, vp in zip(*_require_viewpoints(dets, gts))
    ]


def azimuth_within(
    theta: float, dets: Sequence[Detection], gts: Sequence[Instance]
) -> list[bool]:
    """AVP_theta's viewpoint test: azimuth_distance < theta."""
    return [
        azimuth_distance(vg.azimuth, vp.azimuth) < theta
        for vg, vp in zip(*_require_viewpoints(dets, gts))
    ]


def rotation_within(
    theta: float, dets: Sequence[Detection], gts: Sequence[Instance]
) -> list[bool]:
    """ARP_theta's viewpoint test: full rotation geodesic distance < theta,
    all claims measured by one viewpoint_errors call."""
    return (viewpoint_errors(*_require_viewpoints(dets, gts)) < theta).tolist()


def _test_aps(
    detections: Iterable[Detection],
    gt_instances: Iterable[Instance],
    test: ViewpointTest,
    consume_on_localization: bool,
) -> dict[str, float]:
    """Per-class AP of evaluate_detection_tests with the single test."""
    tests = {"test": test}
    evals = evaluate_detection_tests(detections, gt_instances, tests, consume_on_localization)
    return {cls: by_test["test"].ap for cls, by_test in evals.items()}


def avp(
    detections: Iterable[Detection],
    gt_instances: Iterable[Instance],
    n_bins: int,
    consume_on_localization: bool = True,
) -> dict[str, float]:
    """Detection AP where correctness also requires an azimuth bin match."""
    test = partial(bin_match, n_bins)
    return _test_aps(detections, gt_instances, test, consume_on_localization)


def avp_theta(
    detections: Iterable[Detection],
    gt_instances: Iterable[Instance],
    theta: float = math.pi / 6,
    consume_on_localization: bool = True,
) -> dict[str, float]:
    """Detection AP with the viewpoint test azimuth_distance < theta."""
    test = partial(azimuth_within, theta)
    return _test_aps(detections, gt_instances, test, consume_on_localization)


def arp_theta(
    detections: Iterable[Detection],
    gt_instances: Iterable[Instance],
    theta: float = math.pi / 6,
    consume_on_localization: bool = True,
) -> dict[str, float]:
    """Detection AP with the full rotation test geodesic_distance < theta."""
    test = partial(rotation_within, theta)
    return _test_aps(detections, gt_instances, test, consume_on_localization)


def pck_threshold(bbox: Box, alpha: float) -> float:
    """Correctness radius for one instance: alpha * max(h, w)."""
    return alpha * max(bbox[2], bbox[3])


@dataclass
class PckResult:
    """PCK fractions at both aggregation granularities.

    per_keypoint[class][kp_id] is the fraction over instances where that
    keypoint is annotated and visible (None when there are none).
    per_class averages a class's keypoint fractions; pooled_per_class
    instead pools all keypoint-instances of the class into one fraction.
    """

    per_keypoint: dict[str, dict[int, float | None]]
    per_class: dict[str, float | None]
    pooled_per_class: dict[str, float | None]

    def mean(self) -> float | None:
        return mean_present(self.per_class.values())


PredictedKeypoints = Mapping[str, Mapping[int, tuple[float, float]]]
AlternativeTargets = Mapping[str, Mapping[int, int]]


def pck(
    gt_instances: Iterable[Instance],
    predicted_keypoints: PredictedKeypoints,
    alpha: float = 0.1,
    alternatives: AlternativeTargets | None = None,
) -> PckResult:
    """Fraction of annotated visible keypoints predicted within radius.

    predicted_keypoints maps instance id -> keypoint id -> pixel location;
    every evaluated instance must be present. A keypoint counts as correct
    when the prediction lies within alpha * max(h, w) of its annotation
    (or, if alternatives supplies a laterally symmetric partner for its
    class, of the partner's annotation on the same instance).
    """
    per_kp_hits: dict[str, dict[int, list[int]]] = {}
    for inst in gt_instances:
        if inst.id not in predicted_keypoints:
            raise ValueError(f"no predictions supplied for instance {inst.id}")
        preds = predicted_keypoints[inst.id]
        radius = pck_threshold(inst.bbox, alpha)
        swaps = (alternatives or {}).get(inst.class_name, {})
        for k, kp in inst.keypoints.items():
            if not kp.visible:
                continue
            targets = [(kp.x, kp.y)]
            partner = swaps.get(k)
            if partner is not None and partner != k:
                alt = inst.keypoints.get(partner)
                if alt is not None and alt.visible:
                    targets.append((alt.x, alt.y))
            hit = 0
            p = preds.get(k)
            if p is not None:
                for tx, ty in targets:
                    if math.hypot(p[0] - tx, p[1] - ty) <= radius:
                        hit = 1
                        break
            per_kp_hits.setdefault(inst.class_name, {}).setdefault(k, []).append(hit)

    per_keypoint: dict[str, dict[int, float | None]] = {}
    per_class: dict[str, float | None] = {}
    pooled: dict[str, float | None] = {}
    for cls, kp_hits in per_kp_hits.items():
        per_keypoint[cls] = {k: mean_present(kp_hits[k]) for k in sorted(kp_hits)}
        per_class[cls] = mean_present(per_keypoint[cls].values())
        pooled[cls] = mean_present(h for k in sorted(kp_hits) for h in kp_hits[k])
    return PckResult(per_keypoint=per_keypoint, per_class=per_class, pooled_per_class=pooled)


@dataclass
class ApkResult:
    """Per-keypoint detection-setting APs and their per-class means."""

    per_keypoint: dict[str, dict[int, float]]
    per_class: dict[str, float | None]

    def mean(self) -> float | None:
        return mean_present(self.per_class.values())


def _within_radius(hyp: tuple[float, float], gt: tuple[float, float, float]) -> float | None:
    """APK's match: distance within the instance's radius, the nearest first."""
    d = math.hypot(hyp[0] - gt[0], hyp[1] - gt[1])
    return d if d <= gt[2] else None


def apk(
    detections: Iterable[Detection],
    gt_instances: Iterable[Instance],
    alpha: float = 0.1,
    lam: float = 0.5,
) -> ApkResult:
    """Average precision of scored keypoint hypotheses, per keypoint type.

    Hypotheses of one (class, keypoint) type are pooled over the dataset,
    ranked by score_hypothesis(det.score, h.score, lam) (lam = 0: h.score
    alone) and walked in descending rank; each one greedily claims the
    nearest unmatched same-image ground-truth keypoint lying within that
    instance's alpha * max(h, w) radius, and is otherwise a false positive.
    Only annotated visible keypoints form the ground-truth set.
    """
    gt_by_type: dict[tuple[str, int], list[tuple[str, tuple[float, float, float]]]] = {}
    classes: set[str] = set()
    kp_ids: dict[str, set[int]] = {}
    for inst in gt_instances:
        classes.add(inst.class_name)
        for k, kp in inst.keypoints.items():
            kp_ids.setdefault(inst.class_name, set()).add(k)
            if kp.visible:
                gt_by_type.setdefault((inst.class_name, k), []).append(
                    (inst.image_id, (kp.x, kp.y, pck_threshold(inst.bbox, alpha)))
                )
    hyps: dict[tuple[str, int], list[tuple[float, str, tuple[float, float]]]] = {}
    for det in detections:
        for k, h in det.keypoint_hypotheses.items():
            kp_ids.setdefault(det.class_name, set()).add(k)
            try:
                score = score_hypothesis(det.score, h.score, lam)
            except ValueError:
                where = f"image {det.image_id}, class {det.class_name!r}, keypoint {k}"
                raise ValueError(f"{where}: hypothesis score is not finite at lambda {lam}") from None
            hyps.setdefault((det.class_name, k), []).append((score, det.image_id, (h.x, h.y)))

    per_keypoint: dict[str, dict[int, float]] = {}
    for cls in sorted(classes | set(kp_ids)):
        per_keypoint[cls] = {}
        for k in sorted(kp_ids.get(cls, ())):
            gts = gt_by_type.get((cls, k), [])
            claims = _greedy_match(hyps.get((cls, k), []), gts, _within_radius)
            tp = [gt is not None for _, gt in claims]
            per_keypoint[cls][k] = _pr_eval(tp, len(gts)).ap
    per_class = {cls: mean_present(aps.values()) for cls, aps in per_keypoint.items()}
    return ApkResult(per_keypoint=per_keypoint, per_class=per_class)


def score_hypothesis(det_score: float, kp_log_likelihood: float, lam: float = 0.5) -> float:
    """Linear combination of detector score and keypoint log-likelihood, refused unless
    finite (as it never is when an input is non-finite or the mix overflows)."""
    score = lam * det_score + (1.0 - lam) * kp_log_likelihood
    if not math.isfinite(score):
        raise ValueError("score_hypothesis gave a non-finite score")
    return score
