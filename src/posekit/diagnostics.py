"""Error analysis: the known-box viewpoint report over named slices of the
instances (size, occlusion, truncation, class) and azimuth error modes.

The decomposition follows a fixed precedence so every instance lands in
exactly one category even where the raw conditions overlap: small error,
medium error, then the two characteristic confusions (a rotation by pi
about the vertical axis, and an azimuth reflection), then everything
else. An azimuth error of exactly pi/9 counts as medium, not small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .dataio import ValidationError
from .metrics import Detection, EvalReport, Instance, PckResult, fraction_below, median_degrees, pck
from .metrics import viewpoint_errors
from .so3 import EulerAngles, azimuth_distance, z_reflect_azimuth

SMALL_ERROR = math.pi / 9
MEDIUM_ERROR = 2 * math.pi / 9

ERROR_MODE_NAMES = ("correct", "medium", "pi_flip", "z_ref", "other")


@dataclass(frozen=True)
class ErrorModeTally:
    correct: int
    medium: int
    pi_flip: int
    z_ref: int
    other: int

    @property
    def total(self) -> int:
        return self.correct + self.medium + self.pi_flip + self.z_ref + self.other

    def percentages(self) -> dict[str, float]:
        n = self.total
        if n == 0:
            raise ValueError("tally is empty")
        return {name: 100.0 * getattr(self, name) / n for name in ERROR_MODE_NAMES}


def error_mode_decomposition(pairs: Sequence[tuple[float, float]]) -> ErrorModeTally:
    """Assign each (gt, predicted) azimuth pair to one error category.

    Categories are tried in order and the first match wins:
    error < pi/9; error < 2pi/9; the pi-flipped prediction lands within
    pi/9; the azimuth-reflected prediction lands within pi/9; other.
    """
    if len(pairs) == 0:
        raise ValueError("error_mode_decomposition needs at least one pair")
    counts = dict.fromkeys(ERROR_MODE_NAMES, 0)
    for gt, pred in pairs:
        delta = azimuth_distance(gt, pred)
        if delta < SMALL_ERROR:
            counts["correct"] += 1
        elif delta < MEDIUM_ERROR:
            counts["medium"] += 1
        elif azimuth_distance(gt, pred + math.pi) < SMALL_ERROR:
            counts["pi_flip"] += 1
        elif azimuth_distance(gt, z_reflect_azimuth(pred)) < SMALL_ERROR:
            counts["z_ref"] += 1
        else:
            counts["other"] += 1
    return ErrorModeTally(**counts)


def size_slices(instances: Sequence[Instance]) -> dict[str, list[Instance]]:
    """Split instances into small/medium/large area terciles.

    Instances are ranked by (area, id); the bottom and top floor(n/3)
    form the small and large slices, the remainder is medium. Ranking on
    the id as well makes equal-area splits deterministic. Each slice
    lists its members in the order they were given.
    """
    n = len(instances)
    if n < 3:
        raise ValueError("size_slices needs at least 3 instances")
    order = sorted(range(n), key=lambda i: (instances[i].area, instances[i].id))
    lo, hi = n // 3, n - n // 3
    cuts = {"small": order[:lo], "medium": order[lo:hi], "large": order[hi:]}
    return {name: [instances[i] for i in sorted(cut)] for name, cut in cuts.items()}


def named_slices(spec: str, instances: Sequence[Instance]) -> dict[str, list[Instance]]:
    """The size terciles, "occluded" and "truncated" slices that a comma list of
    size, occlusion and truncation names, in its order; other names raise."""
    slices: dict[str, list[Instance]] = {}
    for token in spec.split(","):
        token = token.strip()
        if token == "size":
            slices.update(size_slices(instances))
        elif token == "occlusion":
            slices["occluded"] = [inst for inst in instances if inst.occluded]
        elif token == "truncation":
            slices["truncated"] = [inst for inst in instances if inst.truncated]
        else:
            raise ValueError(f"unknown slice {token!r} (known: size, occlusion, truncation)")
    return slices


ViewpointPairs = dict[str, tuple[EulerAngles, EulerAngles]]


def viewpoint_pairs(
    instances: Iterable[Instance], matched: Mapping[str, Detection]
) -> ViewpointPairs:
    """(annotated, predicted) viewpoint of each instance, keyed by its id.

    Raises ValidationError naming the first instance where one is missing.
    """
    pairs: ViewpointPairs = {}
    for inst in instances:
        det = matched[inst.id]
        if inst.viewpoint is None or det.viewpoint is None:
            raise ValidationError(
                f"instance {inst.id!r}: viewpoint evaluation needs viewpoints"
                " on both the annotation and the prediction"
            )
        pairs[inst.id] = (inst.viewpoint, det.viewpoint)
    return pairs


def sliced_report(
    slices: Mapping[str, Sequence[Instance]], pairs: ViewpointPairs, theta: float
) -> EvalReport:
    """acc (fraction_below theta) and mederr_deg (median_degrees) rows of each
    slice, in the order given, read from one metrics.viewpoint_errors array
    over pairs. An empty slice reports None for both (absent, never a zero)."""
    gt, pred = ([pair[k] for pair in pairs.values()] for k in (0, 1))
    errors = viewpoint_errors(gt, pred)
    row = {iid: i for i, iid in enumerate(pairs)}
    report = EvalReport()
    for name, members in slices.items():
        mine = errors[[row[inst.id] for inst in members]]
        report.sections[name] = {
            "acc": fraction_below(mine, theta) if members else None,
            "mederr_deg": median_degrees(mine) if members else None,
        }
    return report


def left_right_pck(
    gt_instances: Iterable[Instance],
    predicted_keypoints: Mapping[str, Mapping[int, tuple[float, float]]],
    symmetry_pairs: Mapping[str, Mapping[int, int]],
    alpha: float = 0.1,
) -> PckResult:
    """PCK where a prediction may match the keypoint or its lateral twin.

    symmetry_pairs maps each class to an involution on its keypoint ids
    (ids absent from the map are implicitly self-paired). Matching
    against the partner's annotation can only add hits, so the result
    dominates plain pck on the same inputs.
    """
    for cls, pairs in symmetry_pairs.items():
        for k, v in pairs.items():
            if pairs.get(v, v) != k:
                raise ValueError(f"symmetry map for {cls!r} is not an involution")
    return pck(gt_instances, predicted_keypoints, alpha=alpha, alternatives=symmetry_pairs)
