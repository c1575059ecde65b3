"""Tests for error slicing, azimuth error modes, and symmetry-aware PCK."""

import math
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from posekit import metrics
from posekit.diagnostics import (
    MEDIUM_ERROR,
    SMALL_ERROR,
    error_mode_decomposition,
    left_right_pck,
    named_slices,
    size_slices,
    sliced_report,
)
from posekit.metrics import Instance, Keypoint, accuracy_at, median_error, pck
from posekit.so3 import EulerAngles, euler_to_rotation

TWO_PI = 2.0 * math.pi


def _inst(id, area_side=10.0, cls="car", occluded=False, truncated=False, **kw):
    return Instance(
        id=id,
        image_id="im0",
        class_name=cls,
        bbox=(0.0, 0.0, area_side, area_side),
        occluded=occluded,
        truncated=truncated,
        **kw,
    )


class TestErrorModes:
    def test_all_correct(self):
        pairs = [(a, a + 0.01) for a in np.linspace(0, 6, 50)]
        tally = error_mode_decomposition(pairs)
        assert tally.correct == 50
        assert tally.total == 50
        assert tally.percentages()["correct"] == 100.0

    def test_all_pi_flips(self):
        pairs = [(a, a + math.pi) for a in np.linspace(0, 6, 40)]
        tally = error_mode_decomposition(pairs)
        assert tally.pi_flip == 40

    def test_z_reflection(self):
        pairs = [(1.0, TWO_PI - 1.0), (2.5, TWO_PI - 2.5)]
        tally = error_mode_decomposition(pairs)
        assert tally.z_ref == 2

    def test_other(self):
        tally = error_mode_decomposition([(0.0, math.pi / 2)])
        assert tally.other == 1

    def test_medium_band(self):
        tally = error_mode_decomposition([(0.0, 0.5)])  # between pi/9 and 2pi/9
        assert tally.medium == 1

    def test_boundary_goes_to_next_category(self):
        """An error of exactly pi/9 fails the strict small-error test and
        falls into the medium band."""
        tally = error_mode_decomposition([(SMALL_ERROR, 0.0)])
        assert tally.medium == 1
        tally = error_mode_decomposition([(MEDIUM_ERROR, 0.0)])
        assert tally.medium == 0
        assert tally.correct == 0

    def test_precedence_flip_before_reflection(self):
        """At azimuth pi/2 a half-turn and a reflection coincide; the
        earlier category in the precedence order takes the count."""
        tally = error_mode_decomposition([(math.pi / 2, 3 * math.pi / 2)])
        assert tally.pi_flip == 1
        assert tally.z_ref == 0

    def test_percentages_sum_to_hundred(self):
        rng = np.random.default_rng(50)
        pairs = [tuple(rng.uniform(0, TWO_PI, 2)) for _ in range(137)]
        tally = error_mode_decomposition(pairs)
        assert abs(sum(tally.percentages().values()) - 100.0) < 1e-9
        assert tally.total == 137

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            error_mode_decomposition([])


def _ids(insts):
    return [inst.id for inst in insts]


class TestSizeSlices:
    def test_three_instances(self):
        insts = [_inst("a", 5.0), _inst("b", 20.0), _inst("c", 10.0)]
        slices = size_slices(insts)
        assert list(slices) == ["small", "medium", "large"]
        assert slices["small"] == [insts[0]]
        assert slices["medium"] == [insts[2]]
        assert slices["large"] == [insts[1]]

    def test_equal_areas_tie_break_on_id(self):
        insts = [_inst(x, 10.0) for x in ("f", "b", "d", "a", "e", "c")]
        slices = size_slices(insts)
        # ids a, b in the bottom tercile; e, f in the top; each in instance order
        assert _ids(slices["small"]) == ["b", "a"]
        assert _ids(slices["medium"]) == ["d", "c"]
        assert _ids(slices["large"]) == ["f", "e"]

    def test_members_keep_instance_order(self):
        insts = [_inst(f"i{i}", float(side)) for i, side in enumerate([9, 1, 8, 2, 7, 3, 6, 4, 5])]
        slices = size_slices(insts)
        assert _ids(slices["small"]) == ["i1", "i3", "i5"]
        assert _ids(slices["medium"]) == ["i6", "i7", "i8"]
        assert _ids(slices["large"]) == ["i0", "i2", "i4"]

    def test_partition_and_tercile_sizes(self):
        rng = np.random.default_rng(51)
        insts = [_inst(f"i{i:03d}", float(rng.uniform(1, 50))) for i in range(100)]
        slices = size_slices(insts)
        assert len(slices["small"]) == 33
        assert len(slices["medium"]) == 34
        assert len(slices["large"]) == 33
        union = _ids(slices["small"]) + _ids(slices["medium"]) + _ids(slices["large"])
        assert sorted(union) == _ids(insts)

    def test_matches_independent_sort(self):
        rng = np.random.default_rng(52)
        insts = [_inst(f"i{i:03d}", float(rng.choice([4.0, 9.0, 16.0])))
                 for i in range(60)]
        slices = size_slices(insts)
        keys = np.array([inst.area for inst in insts])
        ids = np.array([inst.id for inst in insts])
        order = np.lexsort((ids, keys))
        assert slices["small"] == [insts[i] for i in sorted(order[:20].tolist())]
        assert slices["medium"] == [insts[i] for i in sorted(order[20:40].tolist())]
        assert slices["large"] == [insts[i] for i in sorted(order[40:].tolist())]

    def test_too_few_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            size_slices([_inst("a"), _inst("b")])


def _azimuth_pairs(insts, errors):
    """Viewpoint pairs whose prediction is off in azimuth alone, by each
    instance's error in radians (the geodesic error, for errors below pi)."""
    return {
        inst.id: (EulerAngles(0.5, 0.1, 0.0), EulerAngles(0.5 + err, 0.1, 0.0))
        for inst, err in zip(insts, errors)
    }


class TestSlicedReport:
    def test_whole_population_slice_matches_direct_call(self):
        insts = [_inst(f"i{i}", float(3 + i)) for i in range(9)]
        pairs = _azimuth_pairs(insts, [0.1 * (i + 1) for i in range(9)])
        rots = [tuple(map(euler_to_rotation, pair)) for pair in pairs.values()]
        report = sliced_report({"all": insts}, pairs, math.pi / 6)
        assert report.sections["all"] == {
            "acc": accuracy_at(rots, math.pi / 6),
            "mederr_deg": median_error(rots),
        }
        assert report.sections["all"]["acc"] == pytest.approx(5 / 9)
        assert report.sections["all"]["mederr_deg"] == pytest.approx(math.degrees(0.5))

    def test_empty_slice_reports_absent(self):
        insts = [_inst(f"i{i}", occluded=False) for i in range(4)]
        occluded = [inst for inst in insts if inst.occluded]
        report = sliced_report({"occluded": occluded}, _azimuth_pairs(insts, [0.2] * 4), 0.5)
        assert report.sections["occluded"] == {"acc": None, "mederr_deg": None}

    def test_sections_follow_slice_order(self):
        insts = [_inst(f"i{i}", float(3 + i)) for i in range(6)]
        pairs = _azimuth_pairs(insts, [0.3] * 6)
        report = sliced_report({"z": insts[:2], "a": insts[2:], "m": []}, pairs, 0.5)
        assert list(report.sections) == ["z", "a", "m"]
        assert all(list(rows) == ["acc", "mederr_deg"] for rows in report.sections.values())

    def test_size_degradation_shows_up(self):
        """Viewpoint error that grows as boxes shrink separates the size
        terciles in the report."""
        insts = [_inst(f"i{i:02d}", float(2 + i)) for i in range(30)]
        pairs = _azimuth_pairs(insts, [1.5 / (2 + i) for i in range(30)])
        report = sliced_report(size_slices(insts), pairs, math.pi / 36)
        small, large = report.sections["small"], report.sections["large"]
        assert small["mederr_deg"] > large["mederr_deg"]
        assert small["acc"] < large["acc"]


class TestNamedSlices:
    def test_tokens_add_slices_in_order(self):
        insts = [
            _inst(f"i{i}", float(3 + i), occluded=i % 2 == 0, truncated=i == 4)
            for i in range(6)
        ]
        slices = named_slices(" truncation,size , occlusion", insts)
        assert list(slices) == ["truncated", "small", "medium", "large", "occluded"]
        assert slices["truncated"] == [insts[4]]
        assert slices["occluded"] == insts[0::2]
        assert {k: slices[k] for k in ("small", "medium", "large")} == size_slices(insts)

    @pytest.mark.parametrize("spec", ["size,banana", "", "size;occlusion", "Size"])
    def test_unknown_name_refused(self, spec):
        insts = [_inst(f"i{i}", float(3 + i)) for i in range(3)]
        token = spec.split(",")[-1].strip()
        with pytest.raises(ValueError) as info:
            named_slices(spec, insts)
        assert str(info.value) == (
            f"unknown slice {token!r} (known: size, occlusion, truncation)"
        )


class TestViewpointErrorMetrics:
    def test_errors_computed_once_whatever_the_slices(self, monkeypatch):
        """One builder call per side and one distance call, made by the
        metrics.viewpoint_errors that ARP_theta uses, serve every slice;
        each slice's acc and mederr_deg are accuracy_at and median_error of
        its own pairs."""
        rng = np.random.default_rng(31)
        insts = [_inst(f"i{i:02d}", float(2 + i)) for i in range(30)]
        pairs = {}
        for i, inst in enumerate(insts):
            gt = EulerAngles(*map(float, rng.uniform(-3.0, 3.0, size=3)))
            off = (0.0, 0.2, 2.0)[i % 3] * rng.uniform(-1.0, 1.0, size=3)
            pairs[inst.id] = (gt, EulerAngles(*map(float, np.add(off, astuple(gt)))))
        calls = Counter()

        def counted(name):
            fn = getattr(metrics, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(metrics, name, wrapper)

        counted("euler_to_rotations")
        counted("geodesic_distances")
        slices = {**size_slices(insts), "all": insts, "odd": insts[1::2], "one": insts[:1]}
        report = sliced_report(slices, pairs, math.pi / 6)
        assert calls == {"euler_to_rotations": 2, "geodesic_distances": 1}
        for name, members in slices.items():
            rots = [tuple(map(euler_to_rotation, pairs[inst.id])) for inst in members]
            assert report.sections[name] == {
                "acc": accuracy_at(rots, math.pi / 6),
                "mederr_deg": median_error(rots),
            }


class TestLeftRightPck:
    def _inst_with_pair(self):
        return Instance(
            id="i0", image_id="im0", class_name="car", bbox=(0.0, 0.0, 100.0, 100.0),
            keypoints={0: Keypoint(10.0, 50.0), 1: Keypoint(90.0, 50.0),
                       2: Keypoint(50.0, 10.0)},
        )

    def test_swapped_predictions_rescued(self):
        inst = self._inst_with_pair()
        preds = {"i0": {0: (90.0, 50.0), 1: (10.0, 50.0), 2: (50.0, 10.0)}}
        pairs = {"car": {0: 1, 1: 0}}
        plain = pck([inst], preds)
        lr = left_right_pck([inst], preds, pairs)
        assert plain.pooled_per_class["car"] == pytest.approx(1.0 / 3.0)
        assert lr.pooled_per_class["car"] == 1.0

    def test_identity_pairs_change_nothing(self):
        inst = self._inst_with_pair()
        preds = {"i0": {0: (10.0, 50.0), 1: (90.0, 50.0), 2: (55.0, 10.0)}}
        pairs = {"car": {0: 0, 1: 1, 2: 2}}
        plain = pck([inst], preds)
        lr = left_right_pck([inst], preds, pairs)
        assert lr.per_keypoint == plain.per_keypoint

    def test_dominates_plain_pck(self):
        rng = np.random.default_rng(54)
        insts, preds = [], {}
        for i in range(40):
            kps = {0: Keypoint(float(rng.uniform(0, 40)), float(rng.uniform(0, 100))),
                   1: Keypoint(float(rng.uniform(60, 100)), float(rng.uniform(0, 100)))}
            insts.append(Instance(id=f"i{i}", image_id="im0", class_name="car",
                                  bbox=(0.0, 0.0, 100.0, 100.0), keypoints=kps))
            swap = rng.random() < 0.5
            src = {0: kps[1], 1: kps[0]} if swap else kps
            preds[f"i{i}"] = {
                k: (kp.x + float(rng.normal(0, 5)), kp.y + float(rng.normal(0, 5)))
                for k, kp in src.items()
            }
        pairs = {"car": {0: 1, 1: 0}}
        plain = pck(insts, preds)
        lr = left_right_pck(insts, preds, pairs)
        for cls in plain.pooled_per_class:
            assert lr.pooled_per_class[cls] >= plain.pooled_per_class[cls]

    def test_non_involutive_map_rejected(self):
        inst = self._inst_with_pair()
        preds = {"i0": {0: (10.0, 50.0)}}
        with pytest.raises(ValueError, match="involution"):
            left_right_pck([inst], preds, {"car": {0: 1, 1: 2, 2: 0}})

    def test_ids_missing_from_map_are_self_paired(self):
        inst = self._inst_with_pair()
        preds = {"i0": {0: (10.0, 50.0), 1: (90.0, 50.0), 2: (50.0, 10.0)}}
        lr = left_right_pck([inst], preds, {"car": {0: 1, 1: 0}})
        assert lr.pooled_per_class["car"] == 1.0
