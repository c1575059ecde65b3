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
from operator import attrgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .so3 import EulerAngles, azimuth_distance, euler_to_rotations, geodesic_distances
from .so3 import euler_to_rotation  # noqa: F401  (traced alias, perfbench/selftest.py BINDINGS)
from .so3 import geodesic_distance  # noqa: F401  (traced alias, perfbench/selftest.py BINDINGS)
from .viewpoint import angle_to_bin

IOU_THRESHOLD = 0.5

Box = tuple[float, float, float, float]


@dataclass(frozen=True, slots=True, init=False)
class Keypoint:
    x: float
    y: float
    visible: bool = True

    def __init__(self, x: float, y: float, visible: bool = True) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("keypoint has non-finite coordinates")
        _set_x(self, x)
        _set_y(self, y)
        _set_visible(self, visible)


@dataclass(frozen=True, slots=True, init=False)
class KeypointHypothesis:
    x: float
    y: float
    score: float

    def __init__(self, x: float, y: float, score: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(score)):
            raise ValueError("keypoint hypothesis has non-finite values")
        _set_hyp_x(self, x)
        _set_hyp_y(self, y)
        _set_hyp_score(self, score)


# The slots' own setters: past the frozen __setattr__, cheaper than object.__setattr__.
_set_x, _set_y, _set_visible = Keypoint.x.__set__, Keypoint.y.__set__, Keypoint.visible.__set__
_set_hyp_x, _set_hyp_y, _set_hyp_score = (
    KeypointHypothesis.x.__set__, KeypointHypothesis.y.__set__, KeypointHypothesis.score.__set__
)


def _check_box(bbox: Box) -> None:
    """Refuse a non-finite or empty (x, y, w, h) box; the owner prefixes the message."""
    x, y, w, h = bbox
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(w) and math.isfinite(h)):
        raise ValueError("bbox has non-finite values")
    if w <= 0 or h <= 0:
        raise ValueError("bbox must have w > 0 and h > 0")


@dataclass(slots=True)
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
        try:
            _check_box(self.bbox)
        except ValueError as exc:
            raise ValueError(f"instance {self.id}: {exc}") from None

    @property
    def area(self) -> float:
        return self.bbox[2] * self.bbox[3]


@dataclass(slots=True)
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
        try:
            _check_box(self.bbox)
        except ValueError as exc:
            raise ValueError(f"detection {exc}") from None


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
    """Median of geodesic errors given in radians, in degrees; NaN if any is.

    The middle of the sorted errors, or the mean (a + b) / 2 of the two
    middle ones: np.median's value, without the numpy.ma import it makes.
    """
    ordered = np.sort(errors)
    if np.isnan(ordered[-1]):  # sorting puts NaN last
        return math.nan
    half = len(ordered) // 2
    middle = ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2
    return float(np.degrees(middle))


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


def ious(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Intersection over union of each row pair of two (m, 4) stacks of
    (x, y, w, h) boxes, 0 where the boxes do not overlap.

    Each pair takes the operations of the scalar rule in the same order:
    min and max, then the product, then the quotient.
    """
    x1, y1, w1, h1 = b1.T
    x2, y2, w2, h2 = b2.T
    iw = np.minimum(x1 + w1, x2 + w2) - np.maximum(x1, x2)
    ih = np.minimum(y1 + h1, y2 + h2) - np.maximum(y1, y2)
    hit = ~((iw <= 0) | (ih <= 0))
    out = np.zeros(len(hit))
    inter = iw[hit] * ih[hit]
    out[hit] = inter / (w1[hit] * h1[hit] + w2[hit] * h2[hit] - inter)
    return out


def iou(b1: Box, b2: Box) -> float:
    """Intersection over union of two (x, y, w, h) boxes: ious of one pair."""
    return float(ious(np.array([b1], dtype=np.float64), np.array([b2], dtype=np.float64))[0])


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


CorrectFn = Callable[[Detection, Instance], bool]
# A viewpoint test: the localized claims of one class, in rank order, as
# the detections and the ground truths they claimed; one verdict per claim.
ViewpointTest = Callable[[Sequence[Detection], Sequence[Instance]], list[bool]]


def _image_columns(*image_ids: Iterable[str]) -> list[np.ndarray]:
    """One image-index column per sequence of image ids; equal ids get equal indices."""
    index: dict[str, int] = {}
    return [
        np.fromiter((index.setdefault(i, len(index)) for i in ids), np.intp) for ids in image_ids
    ]


def _same_image_pairs(images: np.ndarray, gt_images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(candidate, ground truth) index columns of every pair that shares an
    image, given the image-index column of each side."""
    by_image = np.argsort(gt_images, kind="stable")
    gt_sorted = gt_images[by_image]
    starts = np.searchsorted(gt_sorted, images, "left")
    counts = np.searchsorted(gt_sorted, images, "right") - starts
    cand = np.repeat(np.arange(len(images)), counts)
    # a pair's place in its candidate's block of gt_sorted, plus the block's start
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return cand, by_image[offsets + np.arange(len(cand))]


def _greedy_match(
    scores: np.ndarray,
    cand: np.ndarray,
    gt: np.ndarray,
    cost: np.ndarray,
    keep: Callable[[int, int], bool] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy score-ordered matching of candidates to ground truths.

    scores holds one score per candidate. The cost table (cand, gt, cost)
    holds one entry per same-image (candidate, ground truth) index pair
    that is not ruled out. Candidates are walked in descending score order
    (stable on ties); each claims the unconsumed ground truth of lowest
    cost among its entries, the first ground truth winning a tie. A claim
    consumes its ground truth unless keep(candidate, gt) is false, which
    drops the claim. Returns the candidates in rank order and, per rank,
    the ground truth claimed (-1 for none).
    """
    order = np.argsort(-scores, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # each candidate's entries, in rank order, lowest cost then first gt
    walk = np.lexsort((gt, cost, rank[cand]))
    claimed = [-1] * len(scores)
    decided: set[int] = set()
    taken: set[int] = set()
    for c, g in zip(cand[walk].tolist(), gt[walk].tolist()):
        if c in decided or g in taken:
            continue
        decided.add(c)
        if keep is None or keep(c, g):
            taken.add(g)
            claimed[c] = g
    return order, np.array(claimed, dtype=np.intp)[order]


def _pr_eval(tp: Sequence[bool], n_gt: int) -> DetectionEval:
    """Recall, precision and all-points AP of a ranked true-positive list."""
    cum_tp = np.cumsum(np.asarray(tp, dtype=np.int64))
    recalls = cum_tp / n_gt if n_gt else np.zeros(len(tp))
    precisions = cum_tp / np.arange(1, len(tp) + 1)
    ap = voc_ap(recalls, precisions) if n_gt else 0.0
    return DetectionEval(ap=ap, recalls=recalls, precisions=precisions)


def _localizations(
    dets: Sequence[Detection], gts: Sequence[Instance]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """IoU cost table of one class: the same-image pairs with IoU above 0.5,
    each costing -IoU, so that the highest IoU is claimed first."""
    images, gt_images = _image_columns((d.image_id for d in dets), (g.image_id for g in gts))
    cand, gt = _same_image_pairs(images, gt_images)
    boxes = np.array([d.bbox for d in dets], dtype=np.float64).reshape(-1, 4)
    gt_boxes = np.array([g.bbox for g in gts], dtype=np.float64).reshape(-1, 4)
    ov = ious(boxes[cand], gt_boxes[gt])
    near = ov > IOU_THRESHOLD
    return cand[near], gt[near], -ov[near]


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
        dets = dets_by_class.get(cls, [])
        gts = gts_by_class.get(cls, [])
        if not gts:
            warnings.warn(f"class {cls!r} has no ground truth; AP reported as 0")
        scores = np.array([d.score for d in dets], dtype=np.float64)
        table = _localizations(dets, gts)
        out[cls] = {}
        if consume_on_localization:
            order, claimed = _greedy_match(scores, *table)
            ranks = np.flatnonzero(claimed >= 0)
            claims = (
                [dets[i] for i in order[ranks].tolist()],
                [gts[g] for g in claimed[ranks].tolist()],
            )
            for name, test in tests.items():
                tp = np.zeros(len(dets), dtype=bool)
                tp[ranks] = test(*claims)
                out[cls][name] = _pr_eval(tp, len(gts))
        else:
            for name, test in tests.items():
                _, claimed = _greedy_match(
                    scores, *table, keep=lambda c, g: test([dets[c]], [gts[g]])[0]
                )
                out[cls][name] = _pr_eval(claimed >= 0, len(gts))
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
    first claim, in rank order, where one is missing, naming its image and class."""
    for det, gt in zip(dets, gts, strict=True):
        if det.viewpoint is None or gt.viewpoint is None:
            side = "detection" if det.viewpoint is None else "ground truth"
            raise ValueError(
                "viewpoint metrics need viewpoints on detections and GT:"
                f" the {side} of the claim at image {det.image_id}, class {det.class_name!r}"
                " has none"
            )
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


class _Pooled(NamedTuple):
    """Columns of a stream of records that carry keypoint maps."""

    images: np.ndarray  # per record: image index
    classes: np.ndarray  # per record: class code
    values: np.ndarray  # per record: value(record), a radius or a detector score
    owner: np.ndarray  # per entry: index of its record
    ids: np.ndarray  # per entry: keypoint id
    fields: list[np.ndarray]  # per entry: each pooled attribute


def _pool(
    records: Iterable,
    keypoints: Callable[[object], Mapping[int, object]],
    fields: Sequence[str],
    value: Callable[[object], float],
    images: dict[str, int],
    codes: dict[str, int],
) -> _Pooled:
    """The records' columns, each record read once and pooled whole before
    the next is read: its image index and class code (numbered in order of
    first sight in images and codes, which the caller shares), value(record),
    and the keypoint id and named float attributes of each entry of
    keypoints(record), in order."""
    # imported here rather than with the module: loading the extension
    # module adds to the RSS of every command (68 kB on CPython 3.11,
    # Linux x86-64), and only apk pools
    from array import array

    image, cls, values, counts, ids = array("q"), array("q"), array("d"), array("q"), array("q")
    columns = [array("d") for _ in fields]
    getters = [attrgetter(name) for name in fields]
    for record in records:
        image.append(images.setdefault(record.image_id, len(images)))
        cls.append(codes.setdefault(record.class_name, len(codes)))
        values.append(value(record))
        entries = keypoints(record)
        counts.append(len(entries))
        ids.extend(entries)
        for column, get in zip(columns, getters):
            column.extend(map(get, entries.values()))
    owner = np.repeat(np.arange(len(counts)), np.asarray(counts))
    return _Pooled(
        np.asarray(image), np.asarray(cls), np.asarray(values), owner, np.asarray(ids),
        [np.asarray(column) for column in columns],
    )


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

    Each argument is iterated once, the ground truths first, so one-shot
    iterables such as the loaders' generators are taken and a ground-truth
    fault is met before a detection fault. Each record's keypoint entries
    are pooled into columns as it is read, and nothing else holds the
    record. All hypotheses are then rescored by one elementwise
    score_hypothesis call. Distances are math.hypot, pair by pair, whose
    bits np.hypot does not always reproduce.
    """
    images: dict[str, int] = {}
    # integer class codes, not str columns: comparing str columns per class
    # adds 2.3 MB to the peak RSS on a heavy n = 4000 scene
    codes: dict[str, int] = {}
    gts = _pool(
        gt_instances, attrgetter("keypoints"), ("x", "y", "visible"),
        lambda g: pck_threshold(g.bbox, alpha), images, codes,
    )
    hyps = _pool(
        detections, attrgetter("keypoint_hypotheses"), ("x", "y", "score"),
        attrgetter("score"), images, codes,
    )
    gt_owner, gt_ids, (gx, gy, visible) = gts.owner, gts.ids, gts.fields
    hyp_owner, hyp_ids, (hx, hy, hyp_scores) = hyps.owner, hyps.ids, hyps.fields
    try:
        scores = score_hypothesis(hyps.values[hyp_owner], hyp_scores, lam)
    except ValueError:
        _refuse_rescore(hyps, lam, images, codes)
        raise
    gt_classes, hyp_classes = gts.classes[gt_owner], hyps.classes[hyp_owner]
    visible = visible.astype(bool)

    names = list(codes)
    # a class with ground truth, or with a detection that carries hypotheses
    present = set(gts.classes.tolist()) | set(hyp_classes.tolist())
    per_keypoint: dict[str, dict[int, float]] = {}
    for cls in sorted(names[c] for c in present):
        per_keypoint[cls] = {}
        in_gt, in_hyp = gt_classes == codes[cls], hyp_classes == codes[cls]
        for k in sorted(set(gt_ids[in_gt].tolist()) | set(hyp_ids[in_hyp].tolist())):
            g = np.flatnonzero(in_gt & (gt_ids == k) & visible)
            h = np.flatnonzero(in_hyp & (hyp_ids == k))
            cand, gt = _same_image_pairs(hyps.images[hyp_owner[h]], gts.images[gt_owner[g]])
            hr, gr = h[cand], g[gt]
            dist = np.array(
                list(map(math.hypot, (hx[hr] - gx[gr]).tolist(), (hy[hr] - gy[gr]).tolist())),
                dtype=np.float64,
            )
            # an infinite distance never claims, even within an infinite radius
            near = (dist <= gts.values[gt_owner[gr]]) & (dist < math.inf)
            _, claimed = _greedy_match(scores[h], cand[near], gt[near], dist[near])
            per_keypoint[cls][k] = _pr_eval(claimed >= 0, len(g)).ap
    per_class = {cls: mean_present(aps.values()) for cls, aps in per_keypoint.items()}
    return ApkResult(per_keypoint=per_keypoint, per_class=per_class)


def _refuse_rescore(
    hyps: _Pooled, lam: float, images: Mapping[str, int], codes: Mapping[str, int]
) -> None:
    """Raise for the first hypothesis, in load order, whose score_hypothesis
    is not finite, naming its detection's image and class from the columns."""
    det_scores, (_, _, hyp_scores) = hyps.values.tolist(), hyps.fields
    for owner, k, score in zip(hyps.owner.tolist(), hyps.ids.tolist(), hyp_scores.tolist()):
        try:
            score_hypothesis(det_scores[owner], score, lam)
        except ValueError:
            image = list(images)[hyps.images[owner]]
            cls = list(codes)[hyps.classes[owner]]
            where = f"image {image}, class {cls!r}, keypoint {k}"
            raise ValueError(f"{where}: hypothesis score is not finite at lambda {lam}") from None


def score_hypothesis(
    det_score: float | np.ndarray, kp_log_likelihood: float | np.ndarray, lam: float = 0.5
) -> float | np.ndarray:
    """Linear combination of detector score and keypoint log-likelihood, refused unless
    finite (as it never is when an input is non-finite or the mix overflows).
    Over arrays it mixes elementwise, with the same operations, and refuses
    any non-finite entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        score = lam * det_score + (1.0 - lam) * kp_log_likelihood
    if not np.isfinite(score).all():
        raise ValueError("score_hypothesis gave a non-finite score")
    return score
