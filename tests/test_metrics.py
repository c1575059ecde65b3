"""Tests for viewpoint, detection, and keypoint evaluation metrics."""

import copy
import dataclasses
import math
import sys
from functools import partial

import numpy as np
import pytest

from posekit import metrics
from posekit.metrics import (
    Detection,
    EvalReport,
    Instance,
    Keypoint,
    KeypointHypothesis,
    accuracy_at,
    apk,
    arp_theta,
    avp,
    avp_theta,
    azimuth_within,
    bin_match,
    evaluate_detection_tests,
    evaluate_detections,
    iou,
    median_error,
    pck,
    pck_threshold,
    rotation_within,
    score_hypothesis,
    voc_ap,
)
from posekit.so3 import EulerAngles, azimuth_distance, euler_to_rotation, geodesic_distance
from posekit.synth import generate_scene, noise_preset
from posekit.viewpoint import angle_to_bin


def _rotz(angle):
    return euler_to_rotation(EulerAngles(angle, 0.0, 0.0))


def _inst(id="i0", image_id="im0", cls="car", bbox=(0.0, 0.0, 100.0, 100.0), **kw):
    return Instance(id=id, image_id=image_id, class_name=cls, bbox=bbox, **kw)


def _det(image_id="im0", cls="car", bbox=(0.0, 0.0, 100.0, 100.0), score=1.0, **kw):
    return Detection(image_id=image_id, class_name=cls, bbox=bbox, score=score, **kw)


class TestMedianError:
    def test_perfect_is_zero(self):
        r = _rotz(1.3)
        assert median_error([(r, r), (r, r)]) == 0.0

    def test_even_count_averages_central_pair(self):
        pairs = [
            (np.eye(3), _rotz(math.radians(10))),
            (np.eye(3), _rotz(math.radians(30))),
        ]
        np.testing.assert_allclose(median_error(pairs), 20.0, atol=1e-9)

    def test_odd_count_takes_middle(self):
        pairs = [
            (np.eye(3), _rotz(math.radians(d))) for d in (10.0, 30.0, 90.0)
        ]
        np.testing.assert_allclose(median_error(pairs), 30.0, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            median_error([])


class TestAccuracyAt:
    def test_perfect(self):
        r = _rotz(0.7)
        assert accuracy_at([(r, r)] * 5) == 1.0

    def test_half_turn_fails_default_threshold(self):
        pairs = [(np.eye(3), _rotz(math.pi))] * 4
        assert accuracy_at(pairs) == 0.0

    def test_mixed(self):
        pairs = [(np.eye(3), _rotz(0.1)), (np.eye(3), _rotz(1.0))]
        assert accuracy_at(pairs) == 0.5

    def test_threshold_is_strict(self):
        just_above = [(np.eye(3), _rotz(0.3 + 1e-6))]
        just_below = [(np.eye(3), _rotz(0.3 - 1e-6))]
        assert accuracy_at(just_above, theta=0.3) == 0.0
        assert accuracy_at(just_below, theta=0.3) == 1.0

    def test_monotone_in_theta(self):
        rng = np.random.default_rng(40)
        pairs = [(np.eye(3), _rotz(float(a))) for a in rng.uniform(0, math.pi, 60)]
        accs = [accuracy_at(pairs, theta=t) for t in np.linspace(0.05, math.pi, 15)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            accuracy_at([])


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_half_shift(self):
        assert iou((0.0, 0.0, 10.0, 10.0), (5.0, 0.0, 10.0, 10.0)) == 1.0 / 3.0

    def test_disjoint_and_touching(self):
        assert iou((0, 0, 10, 10), (20, 0, 10, 10)) == 0.0
        assert iou((0, 0, 10, 10), (10, 0, 10, 10)) == 0.0

    def test_contained(self):
        assert iou((0.0, 0.0, 10.0, 10.0), (2.0, 2.0, 5.0, 5.0)) == 0.25

    def test_symmetric(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            b1 = tuple(rng.uniform(0, 20, 2)) + tuple(rng.uniform(1, 15, 2))
            b2 = tuple(rng.uniform(0, 20, 2)) + tuple(rng.uniform(1, 15, 2))
            assert iou(b1, b2) == iou(b2, b1)
            assert 0.0 <= iou(b1, b2) <= 1.0


class TestVocAp:
    def test_single_perfect_point(self):
        assert voc_ap(np.array([1.0]), np.array([1.0])) == 1.0

    def test_tp_fp_tp_staircase(self):
        """Two of three ranked detections hit both ground truths."""
        rec = np.array([0.5, 0.5, 1.0])
        prec = np.array([1.0, 0.5, 2.0 / 3.0])
        np.testing.assert_allclose(voc_ap(rec, prec), 5.0 / 6.0, atol=1e-9)

    def test_all_false_positives(self):
        assert voc_ap(np.array([0.0, 0.0]), np.array([0.0, 0.0])) == 0.0

    def test_envelope_uses_best_later_precision(self):
        """A precision dip before recall advances does not reduce area."""
        rec = np.array([0.5, 0.5, 1.0])
        dipped = voc_ap(rec, np.array([1.0, 0.5, 0.9]))
        flat = voc_ap(rec, np.array([1.0, 0.9, 0.9]))
        assert dipped == flat

    def test_empty_is_zero(self):
        assert voc_ap(np.zeros(0), np.zeros(0)) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            voc_ap(np.array([0.5, 0.4]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="equally long"):
            voc_ap(np.array([0.5]), np.array([1.0, 1.0]))

    def test_area_is_the_left_to_right_sum_bitwise(self):
        """The area is accumulated term by term, left to right, from 0.0:
        not a pairwise sum, whose rounding differs on long curves."""

        def loop(rec, prec):
            mrec = np.concatenate(([0.0], rec, [1.0]))
            mpre = np.maximum.accumulate(np.concatenate(([0.0], prec, [0.0]))[::-1])[::-1]
            ap = 0.0
            for i in range(len(mrec) - 1):
                if mrec[i + 1] != mrec[i]:
                    ap += (mrec[i + 1] - mrec[i]) * mpre[i + 1]
            return ap

        rng = np.random.default_rng(45)
        for n in (1, 2, 30, 1000, 5000):
            rec = np.sort(rng.uniform(0, 1, n)).round(3)
            prec = rng.uniform(0, 1, n)
            assert voc_ap(rec, prec).hex() == loop(rec, prec).hex()

    def test_bounded(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            rec = np.sort(rng.uniform(0, 1, n))
            prec = rng.uniform(0, 1, n)
            assert 0.0 <= voc_ap(rec, prec) <= 1.0


def _columns(*entries):
    """A cost table from (candidate, ground truth, cost) entries."""
    cand, gt, cost = zip(*entries) if entries else ((), (), ())
    return np.array(cand, dtype=np.intp), np.array(gt, dtype=np.intp), np.array(cost, dtype=float)


def _reference_walk(scores, table, keep=None):
    """The greedy walk pair by pair: candidates sorted by -score, each
    scanning the ground truths in index order for a strictly lower cost."""
    cost = {(c, g): x for c, g, x in zip(*(col.tolist() for col in table))}
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    n_gt = max((g for _, g in cost), default=-1) + 1
    taken, claimed = set(), []
    for c in order:
        best, best_g = math.inf, -1
        for g in range(n_gt):
            if g not in taken and (c, g) in cost and cost[c, g] < best:
                best, best_g = cost[c, g], g
        if best_g >= 0 and (keep is None or keep(c, best_g)):
            taken.add(best_g)
            claimed.append(best_g)
        else:
            claimed.append(-1)
    return order, claimed


class TestGreedyMatch:
    """metrics._greedy_match on hand-built score columns and cost tables."""

    @staticmethod
    def _match(scores, *entries, keep=None):
        order, claimed = metrics._greedy_match(
            np.array(scores, dtype=float), *_columns(*entries), keep=keep
        )
        return order.tolist(), claimed.tolist()

    def test_tied_scores_keep_input_order(self):
        """-0.0 ties 0.0: the earlier candidate ranks first and claims."""
        assert self._match([-0.0, 0.0, 0.0], (1, 0, 1.0), (0, 0, 1.0), (2, 0, 1.0)) == (
            [0, 1, 2], [0, -1, -1]
        )
        assert self._match([0.0, -0.0, 0.5], (0, 0, 1.0), (1, 0, 1.0)) == ([2, 0, 1], [-1, 0, -1])

    def test_equal_costs_go_to_the_first_ground_truth(self):
        """Entries listed last-first, costs tied (-0.0 against 0.0 too)."""
        assert self._match([1.0], (0, 2, 0.5), (0, 1, 0.5)) == ([0], [1])
        assert self._match([1.0], (0, 3, 0.0), (0, 2, -0.0)) == ([0], [2])
        assert self._match([1.0, 0.5], (0, 1, 0.5), (0, 0, 0.5), (1, 0, 0.1)) == ([0, 1], [0, -1])

    def test_lowest_cost_wins_over_order(self):
        assert self._match([1.0, 0.5], (0, 0, 2.0), (0, 1, 1.0), (1, 1, 0.0)) == ([0, 1], [1, -1])

    def test_ruled_out_pair_never_claims(self):
        """Candidate 0 has no entry for the free ground truth 0; candidate
        1 does, and claims it below it."""
        assert self._match([1.0, 0.5], (1, 0, 3.0)) == ([0, 1], [-1, 0])
        assert self._match([1.0]) == ([0], [-1])
        assert self._match([]) == ([], [])

    def test_dropped_claim_leaves_the_ground_truth_free(self):
        seen = []

        def keep(c, g):
            seen.append((c, g))
            return c != 0

        got = self._match([1.0, 0.5, 0.2], (0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0), keep=keep)
        assert got == ([0, 1, 2], [-1, 0, -1])
        assert seen == [(0, 0), (1, 0)]
        # a dropped claim does not try the candidate's next ground truth
        assert self._match([1.0], (0, 0, 1.0), (0, 1, 2.0), keep=lambda c, g: g == 1) == (
            [0], [-1]
        )

    @pytest.mark.parametrize("with_keep", [False, True])
    def test_equals_the_pair_by_pair_walk(self, with_keep):
        rng = np.random.default_rng(51)
        keep = (lambda c, g: (c + g) % 3 != 0) if with_keep else None
        for _ in range(200):
            n, n_gt = int(rng.integers(0, 25)), int(rng.integers(1, 10))
            scores = rng.choice([-0.0, 0.0, 0.5, 1.0], size=n)
            pairs = [(c, g) for c in range(n) for g in range(n_gt) if rng.random() < 0.4]
            rng.shuffle(pairs)
            costs = rng.choice([-0.0, 0.0, 1.0, 2.0], size=len(pairs))
            table = _columns(*((c, g, x) for (c, g), x in zip(pairs, costs)))
            order, claimed = metrics._greedy_match(scores, *table, keep=keep)
            assert (order.tolist(), claimed.tolist()) == _reference_walk(scores, table, keep)


class TestDetectionMatching:
    def _gt(self, az, id="g0", image_id="im0", bbox=(0.0, 0.0, 10.0, 10.0)):
        return _inst(id=id, image_id=image_id, bbox=bbox, viewpoint=EulerAngles(az, 0.1, 0.0))

    def _pred(self, az, score, image_id="im0", bbox=(0.0, 0.0, 10.0, 10.0)):
        return _det(
            image_id=image_id, bbox=bbox, score=score, viewpoint=EulerAngles(az, 0.1, 0.0)
        )

    def test_exact_match_all_bin_counts(self):
        gts = [self._gt(0.3)]
        dets = [self._pred(0.3, 0.9)]
        for bins in (4, 8, 16, 24):
            assert avp(dets, gts, bins) == {"car": 1.0}

    def test_half_turn_misses_all_bin_counts(self):
        gts = [self._gt(0.3)]
        dets = [self._pred(0.3 + math.pi, 0.9)]
        for bins in (4, 8, 16, 24):
            assert avp(dets, gts, bins) == {"car": 0.0}

    def test_duplicate_detections_single_tp(self):
        gts = [self._gt(0.3)]
        dets = [self._pred(0.3, 0.9), self._pred(0.3, 0.8)]
        evals = evaluate_detections(dets, gts, lambda d, g: True)
        e = evals["car"]
        assert e.recalls.tolist() == [1.0, 1.0]
        assert e.precisions.tolist() == [1.0, 0.5]
        assert e.ap == 1.0

    def test_consume_on_localization(self):
        """A well-localized detection with the wrong viewpoint burns the
        ground truth under the default policy; without it, a later correct
        detection can still match."""
        gts = [self._gt(0.3)]
        dets = [self._pred(0.3 + math.pi, 0.9), self._pred(0.3, 0.8)]
        assert avp_theta(dets, gts) == {"car": 0.0}
        assert avp_theta(dets, gts, consume_on_localization=False) == {"car": 0.5}

    def test_three_detections_two_gts_trace(self):
        gts = [
            self._gt(0.3, id="gA", bbox=(0.0, 0.0, 10.0, 10.0)),
            self._gt(1.0, id="gB", bbox=(100.0, 0.0, 10.0, 10.0)),
        ]
        dets = [
            self._pred(0.3, 0.9, bbox=(0.0, 0.0, 10.0, 10.0)),
            self._pred(0.3, 0.8, bbox=(0.0, 0.0, 10.0, 10.0)),
            self._pred(1.0, 0.7, bbox=(100.0, 0.0, 10.0, 10.0)),
        ]
        out = avp_theta(dets, gts)
        np.testing.assert_allclose(out["car"], 5.0 / 6.0, atol=1e-9)

    def test_iou_exactly_half_does_not_localize(self):
        gts = [self._gt(0.3, bbox=(0.0, 0.0, 10.0, 10.0))]
        dets = [self._pred(0.3, 0.9, bbox=(0.0, 0.0, 10.0, 5.0))]
        assert iou((0.0, 0.0, 10.0, 10.0), (0.0, 0.0, 10.0, 5.0)) == 0.5
        assert avp_theta(dets, gts) == {"car": 0.0}

    def test_no_cross_image_matches(self):
        gts = [self._gt(0.3, image_id="im0")]
        dets = [self._pred(0.3, 0.9, image_id="im1")]
        assert avp_theta(dets, gts) == {"car": 0.0}

    def test_best_iou_gt_wins(self):
        gts = [
            self._gt(0.3, id="gA", bbox=(0.0, 0.0, 10.0, 10.0)),
            self._gt(0.3, id="gB", bbox=(2.0, 0.0, 10.0, 10.0)),
        ]
        dets = [self._pred(0.3, 0.9, bbox=(1.9, 0.0, 10.0, 10.0))]
        evals = evaluate_detections(dets, gts, lambda d, g: g.id == "gB")
        assert evals["car"].recalls[-1] == 0.5

    def test_missing_viewpoint_rejected(self):
        gts = [_inst(bbox=(0.0, 0.0, 10.0, 10.0))]
        dets = [self._pred(0.3, 0.9)]
        with pytest.raises(ValueError, match="viewpoint"):
            avp(dets, gts, 24)

    def test_gt_free_class_warns_and_scores_zero(self):
        dets = [self._pred(0.3, 0.9, image_id="im9")]
        with pytest.warns(UserWarning, match="no ground truth"):
            out = avp_theta(dets, [])
        assert out == {"car": 0.0}

    def test_score_rescale_invariance(self):
        """Any strictly increasing transform of the scores leaves every
        AP untouched; only the ordering matters."""
        rng = np.random.default_rng(43)
        gts, dets = [], []
        for i in range(40):
            az = float(rng.uniform(0, 2 * math.pi))
            gts.append(self._gt(az, id=f"g{i}", image_id=f"im{i % 7}",
                                bbox=(10.0 * i, 0.0, 10.0, 10.0)))
            dets.append(self._pred(az + float(rng.normal(0, 0.4)),
                                   float(rng.uniform(0.1, 1.0)),
                                   image_id=f"im{i % 7}",
                                   bbox=(10.0 * i + rng.uniform(-2, 2), 0.0, 10.0, 10.0)))
        base = avp_theta(dets, gts)
        rescaled = [dataclasses.replace(d, score=3.0 * d.score + 7.0) for d in dets]
        assert avp_theta(rescaled, gts) == base

    def test_coarse_bins_dominate_fine(self):
        rng = np.random.default_rng(44)
        gts, dets = [], []
        for i in range(60):
            az = float(rng.uniform(0, 2 * math.pi))
            gts.append(self._gt(az, id=f"g{i}", image_id=f"im{i}",
                                bbox=(0.0, 0.0, 10.0, 10.0)))
            dets.append(self._pred(az + float(rng.normal(0, 0.3)),
                                   float(rng.uniform(0.1, 1.0)), image_id=f"im{i}",
                                   bbox=(0.0, 0.0, 10.0, 10.0)))
        assert avp(dets, gts, 4)["car"] >= avp(dets, gts, 24)["car"]

    def test_azimuth_vs_rotation_threshold(self):
        """Perfect azimuth with a large elevation error passes the
        azimuth test but fails the full rotation test."""
        gt = _inst(bbox=(0.0, 0.0, 10.0, 10.0), viewpoint=EulerAngles(1.0, 0.4, 0.0))
        det = _det(bbox=(0.0, 0.0, 10.0, 10.0), score=0.9,
                   viewpoint=EulerAngles(1.0, 0.4 - math.pi / 2, 0.0))
        assert avp_theta([det], [gt]) == {"car": 1.0}
        assert arp_theta([det], [gt]) == {"car": 0.0}


class TestViewpointTests:
    """A viewpoint test is called once per class on the localized claims, in
    rank order, as a list of detections and the ground truths they claimed."""

    @staticmethod
    def _claims(n, missing=()):
        """n detections, scores falling with the index, each localizing on
        its own image's ground truth; those in missing have no viewpoint."""
        gts, dets = [], []
        for i in range(n):
            vp = EulerAngles(0.3 * i, 0.1, 0.0)
            gts.append(_inst(id=f"g{i}", image_id=f"im{i}", viewpoint=vp))
            dets.append(_det(image_id=f"im{i}", score=1.0 - i / (n + 1),
                             viewpoint=None if i in missing else vp))
        return gts, dets

    @staticmethod
    def _recording(test, seen):
        def recorded(dets, gts):
            seen.append(([d.score for d in dets], [g.id for g in gts]))
            return test(dets, gts)

        return recorded

    @pytest.mark.parametrize("n", [1, 7, 60])
    def test_arp_builds_and_measures_once_per_class(self, monkeypatch, n):
        calls = {"euler_to_rotations": 0, "geodesic_distances": 0}
        for name in calls:
            original = getattr(metrics, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(metrics, name, counted)
        gts, dets = self._claims(n)
        evals = evaluate_detection_tests(dets, gts, {"arp": partial(rotation_within, 0.5)})
        assert calls == {"euler_to_rotations": 2, "geodesic_distances": 1}
        assert evals["car"]["arp"].ap == 1.0

    def test_claims_come_in_rank_order(self):
        gts, dets = self._claims(4)
        seen = []
        test = self._recording(partial(bin_match, 24), seen)
        evaluate_detection_tests(dets[::-1], gts, {"avp": test})
        assert seen == [([d.score for d in dets], [g.id for g in gts])]

    def test_class_without_localized_claim_gets_empty_lists(self):
        gts, dets = self._claims(3)
        strays = [dataclasses.replace(d, class_name="chair", image_id="elsewhere") for d in dets]
        chair_gt = _inst(id="c0", image_id="im0", cls="chair", viewpoint=EulerAngles(0, 0, 0))
        seen = []
        test = self._recording(partial(rotation_within, 0.5), seen)
        evals = evaluate_detection_tests(dets + strays, gts + [chair_gt], {"arp": test})
        assert seen[1] == ([], [])  # car sorts before chair
        assert evals["chair"]["arp"].ap == 0.0
        assert evals["chair"]["arp"].recalls.tolist() == [0.0] * 3
        for test in (bin_match, azimuth_within, rotation_within):
            assert test(1, [], []) == []

    @pytest.mark.parametrize("consume", [True, False])
    def test_missing_viewpoint_raises_at_first_claim_in_rank_order(self, consume):
        """Claim 2 of 4 lacks a viewpoint, and so does a detection that
        localizes nowhere, which no test sees. With consumption the one
        per-class call raises; without it, the one-claim calls for the
        claims ranked above claim 2 pass and claim 2's raises."""
        gts, dets = self._claims(4, missing={2, 3})
        stray = dataclasses.replace(dets[3], image_id="elsewhere", score=2.0)
        seen = []
        tests = (
            partial(bin_match, 24), partial(azimuth_within, 0.5), partial(rotation_within, 0.5)
        )
        for test in tests:
            seen.clear()
            recorded = self._recording(test, seen)
            with pytest.raises(ValueError, match="^viewpoint metrics need viewpoints"):
                evaluate_detection_tests([stray, *dets], gts, {"t": recorded}, consume)
            scores = [[d.score for d in dets]] if consume else [[d.score] for d in dets[:3]]
            assert [s for s, _ in seen] == scores

    def test_per_pair_correct_still_accepted(self):
        """evaluate_detections keeps its per-pair correct(det, gt)."""
        gts, dets = self._claims(3)
        pairs = []

        def correct(det, gt):
            pairs.append((det, gt))
            return gt.id != "g1"

        evals = evaluate_detections(dets, gts, correct)
        assert pairs == list(zip(dets, gts))
        assert evals["car"].recalls.tolist() == [1 / 3, 1 / 3, 2 / 3]


class TestPck:
    def _kp_inst(self, preds_offset, bbox=(0.0, 0.0, 100.0, 50.0)):
        inst = _inst(bbox=bbox, keypoints={0: Keypoint(50.0, 25.0)})
        preds = {"i0": {0: (50.0 + preds_offset, 25.0)}}
        return inst, preds

    def test_threshold_rule(self):
        assert pck_threshold((0.0, 0.0, 100.0, 50.0), 0.1) == 10.0
        inst, preds = self._kp_inst(9.9)
        assert pck([inst], preds).pooled_per_class["car"] == 1.0
        inst, preds = self._kp_inst(10.0)
        assert pck([inst], preds).pooled_per_class["car"] == 1.0
        inst, preds = self._kp_inst(10.1)
        assert pck([inst], preds).pooled_per_class["car"] == 0.0

    def test_invisible_keypoints_skipped(self):
        inst = _inst(keypoints={0: Keypoint(10.0, 10.0, visible=False),
                                1: Keypoint(90.0, 90.0)})
        result = pck([inst], {"i0": {1: (90.0, 90.0)}})
        assert result.per_keypoint["car"] == {1: 1.0}

    def test_missing_prediction_is_a_miss(self):
        inst = _inst(keypoints={0: Keypoint(10.0, 10.0), 1: Keypoint(20.0, 20.0)})
        result = pck([inst], {"i0": {0: (10.0, 10.0)}})
        assert result.per_keypoint["car"] == {0: 1.0, 1: 0.0}

    def test_missing_instance_rejected(self):
        inst = _inst(keypoints={0: Keypoint(10.0, 10.0)})
        with pytest.raises(ValueError, match="no predictions"):
            pck([inst], {})

    def test_aggregation_granularities_differ(self):
        """Averaging keypoint fractions and pooling keypoint instances
        weight unevenly annotated keypoints differently."""
        insts = [
            _inst(id="a", keypoints={0: Keypoint(10.0, 10.0), 1: Keypoint(20.0, 20.0)}),
            _inst(id="b", keypoints={0: Keypoint(10.0, 10.0)}),
            _inst(id="c", keypoints={0: Keypoint(10.0, 10.0)}),
            _inst(id="d", keypoints={0: Keypoint(10.0, 10.0)}),
        ]
        preds = {
            "a": {0: (10.0, 10.0), 1: (20.0, 20.0)},  # both hit
            "b": {0: (90.0, 90.0)},  # miss
            "c": {0: (90.0, 90.0)},  # miss
            "d": {0: (90.0, 90.0)},  # miss
        }
        result = pck(insts, preds)
        np.testing.assert_allclose(result.per_keypoint["car"][0], 0.25)
        np.testing.assert_allclose(result.per_keypoint["car"][1], 1.0)
        np.testing.assert_allclose(result.per_class["car"], 0.625)
        np.testing.assert_allclose(result.pooled_per_class["car"], 0.4)

    def test_lateral_alternative_counts(self):
        inst = _inst(keypoints={0: Keypoint(10.0, 50.0), 1: Keypoint(90.0, 50.0)})
        preds = {"i0": {0: (90.0, 50.0), 1: (10.0, 50.0)}}  # swapped
        plain = pck([inst], preds)
        assert plain.pooled_per_class["car"] == 0.0
        swapped = pck([inst], preds, alternatives={"car": {0: 1, 1: 0}})
        assert swapped.pooled_per_class["car"] == 1.0

    def test_alternative_needs_visible_partner(self):
        inst = _inst(keypoints={0: Keypoint(10.0, 50.0),
                                1: Keypoint(90.0, 50.0, visible=False)})
        preds = {"i0": {0: (90.0, 50.0)}}
        out = pck([inst], preds, alternatives={"car": {0: 1, 1: 0}})
        assert out.per_keypoint["car"][0] == 0.0

    def test_nondecreasing_in_alpha(self):
        rng = np.random.default_rng(45)
        insts, preds = [], {}
        for i in range(50):
            kps = {k: Keypoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
                   for k in range(4)}
            insts.append(_inst(id=f"i{i}", keypoints=kps))
            preds[f"i{i}"] = {
                k: (kp.x + float(rng.normal(0, 8)), kp.y + float(rng.normal(0, 8)))
                for k, kp in kps.items()
            }
        vals = [pck(insts, preds, alpha=a).pooled_per_class["car"]
                for a in (0.02, 0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_mean_over_classes(self):
        insts = [
            _inst(id="a", cls="car", keypoints={0: Keypoint(10.0, 10.0)}),
            _inst(id="b", cls="chair", keypoints={0: Keypoint(10.0, 10.0)}),
        ]
        preds = {"a": {0: (10.0, 10.0)}, "b": {0: (99.0, 99.0)}}
        assert pck(insts, preds).mean() == 0.5


class TestApk:
    def _scene(self):
        gts = [
            _inst(id="a", image_id="im0", keypoints={0: Keypoint(10.0, 10.0)}),
            _inst(id="b", image_id="im1", keypoints={0: Keypoint(40.0, 40.0)}),
        ]
        return gts

    def test_perfect_hypotheses(self):
        gts = self._scene()
        dets = [
            _det(image_id="im0", keypoint_hypotheses={0: KeypointHypothesis(10.0, 10.0, 0.9)}),
            _det(image_id="im1", keypoint_hypotheses={0: KeypointHypothesis(40.0, 40.0, 0.8)}),
        ]
        out = apk(dets, gts)
        assert out.per_keypoint["car"][0] == 1.0
        assert out.mean() == 1.0

    def test_tp_fp_tp_ranking(self):
        gts = self._scene()
        dets = [
            _det(image_id="im0", keypoint_hypotheses={0: KeypointHypothesis(10.0, 10.0, 0.9)}),
            _det(image_id="im0", keypoint_hypotheses={0: KeypointHypothesis(500.0, 500.0, 0.8)}),
            _det(image_id="im1", keypoint_hypotheses={0: KeypointHypothesis(40.0, 40.0, 0.7)}),
        ]
        np.testing.assert_allclose(apk(dets, gts).per_keypoint["car"][0], 5.0 / 6.0, atol=1e-9)

    def test_greedy_takes_nearest_unmatched(self):
        gts = [
            _inst(id="a", image_id="im0",
                  keypoints={0: Keypoint(10.0, 10.0)}),
            _inst(id="b", image_id="im0",
                  keypoints={0: Keypoint(14.0, 10.0)}),
        ]
        dets = [
            _det(image_id="im0", keypoint_hypotheses={0: KeypointHypothesis(11.0, 10.0, 0.9)}),
            _det(image_id="im0", keypoint_hypotheses={0: KeypointHypothesis(11.0, 10.0, 0.8)}),
        ]
        assert apk(dets, gts).per_keypoint["car"][0] == 1.0

    def test_invisible_gt_not_a_target(self):
        gts = [_inst(id="a", image_id="im0",
                     keypoints={0: Keypoint(10.0, 10.0, visible=False)})]
        dets = [_det(image_id="im0",
                     keypoint_hypotheses={0: KeypointHypothesis(10.0, 10.0, 0.9)})]
        assert apk(dets, gts).per_keypoint["car"][0] == 0.0

    def test_radius_scales_with_box(self):
        gts = [_inst(id="a", image_id="im0", bbox=(0.0, 0.0, 40.0, 40.0),
                     keypoints={0: Keypoint(10.0, 10.0)})]
        hit = _det(image_id="im0",
                   keypoint_hypotheses={0: KeypointHypothesis(13.9, 10.0, 0.9)})
        miss = _det(image_id="im0",
                    keypoint_hypotheses={0: KeypointHypothesis(14.1, 10.0, 0.9)})
        assert apk([hit], gts).per_keypoint["car"][0] == 1.0
        assert apk([miss], gts).per_keypoint["car"][0] == 0.0

    def test_no_hypotheses_gives_zero(self):
        assert apk([], self._scene()).per_keypoint["car"][0] == 0.0

    def test_scored_classes_are_those_of_ground_truth_or_hypotheses(self):
        """A class with only hypotheses scores 0 and one with only bare
        detections is absent; the car hypothesis is matched within its class."""
        dets = [
            _det(image_id="im0", keypoint_hypotheses={0: KeypointHypothesis(10.0, 10.0, 0.9)}),
            _det(image_id="im0", cls="sofa",
                 keypoint_hypotheses={0: KeypointHypothesis(10.0, 10.0, 0.9)}),
            _det(image_id="im1", cls="chair"),
        ]
        out = apk(dets, self._scene())
        assert out.per_keypoint == {"car": {0: 0.5}, "sofa": {0: 0.0}}

    def test_equal_distance_tie_goes_to_first_gt_of_the_image(self):
        """Two im0 ground truths at distance 2 from the top hypothesis,
        separated in input order by an im1 one: the first claims it. The
        second hypothesis reaches only the first ground truth (the other
        radius is 4), so it is a false positive exactly when the tie went
        to the first."""
        gts = [
            _inst(id="a", image_id="im0", keypoints={0: Keypoint(8.0, 10.0)}),
            _inst(id="c", image_id="im1", keypoints={0: Keypoint(9.0, 10.0)}),
            _inst(id="b", image_id="im0", bbox=(0.0, 0.0, 40.0, 40.0),
                  keypoints={0: Keypoint(12.0, 10.0)}),
        ]
        dets = [
            _det(image_id="im0", keypoint_hypotheses={0: KeypointHypothesis(10.0, 10.0, 0.9)}),
            _det(image_id="im0", keypoint_hypotheses={0: KeypointHypothesis(5.0, 10.0, 0.8)}),
        ]
        np.testing.assert_allclose(apk(dets, gts).per_keypoint["car"][0], 1.0 / 3.0, atol=1e-12)

    def test_refusal_names_the_first_overflow_in_load_order(self):
        """At lam = 3 only the hypotheses scored -1e308 overflow: keypoint 2
        of the second detection, and keypoint 0 of the third, whose type
        sorts first. The message names the one loaded first."""
        def hyps(bad):
            return {k: KeypointHypothesis(1.0, 1.0, -1e308 if k == bad else 0.5) for k in range(3)}

        dets = [
            _det(image_id="im0", keypoint_hypotheses=hyps(None)),
            _det(image_id="im1", keypoint_hypotheses=hyps(2)),
            _det(image_id="im2", keypoint_hypotheses=hyps(0)),
        ]
        with pytest.raises(ValueError) as info:
            apk(dets, self._scene(), lam=3.0)
        assert str(info.value) == (
            "image im1, class 'car', keypoint 2: hypothesis score is not finite at lambda 3.0"
        )
        assert apk(dets, self._scene(), lam=0.5).per_keypoint["car"] == {0: 0.0, 1: 0.0, 2: 0.0}

    def test_refusal_names_the_detection_whose_own_score_overflows(self):
        """Each hypothesis is mixed with its own detection's score: only the
        chair detection of score 1e308 overflows at lam = 3, and the
        message names its image and class, not the first detection's."""
        dets = [
            _det(image_id="im0", keypoint_hypotheses={0: KeypointHypothesis(1.0, 1.0, 0.5)}),
            _det(image_id="im1", cls="chair", score=1e308,
                 keypoint_hypotheses={1: KeypointHypothesis(1.0, 1.0, 0.5)}),
        ]
        with pytest.raises(ValueError) as info:
            apk(dets, self._scene(), lam=3.0)
        assert str(info.value) == (
            "image im1, class 'chair', keypoint 1: hypothesis score is not finite at lambda 3.0"
        )

    def test_one_shot_streams_equal_lists_read_ground_truth_first_and_held_by_no_one(self):
        """apk over one-shot generators equals apk over lists of the same
        records. It reads every ground truth before any detection, and once
        it asks for the next record it holds none before the last one it
        got: each is pooled into columns and dropped."""
        scene = generate_scene(5, 60, noise_preset("heavy"))
        assert any(d.keypoint_hypotheses for d in scene.detections)
        read, held = [], []

        def one_shot(kind, records):
            yielded = []
            for record in records:
                # a record is referenced by `yielded` and getrefcount's own argument
                held.append(sum(sys.getrefcount(yielded[i]) > 2 for i in range(len(yielded) - 1)))
                yielded.append(copy.deepcopy(record))
                read.append(kind)
                yield yielded[-1]

        streamed = apk(
            one_shot("det", scene.detections), one_shot("gt", scene.instances), 0.1, 0.3
        )
        assert streamed == apk(scene.detections, scene.instances, 0.1, 0.3)
        assert read == ["gt"] * len(scene.instances) + ["det"] * len(scene.detections)
        assert held == [0] * len(read)


class TestScoreHypothesis:
    def test_known_value(self):
        np.testing.assert_allclose(score_hypothesis(0.8, -2.0, 0.25), -1.3, atol=1e-12)

    def test_extremes(self):
        assert score_hypothesis(0.7, -5.0, 1.0) == 0.7
        assert score_hypothesis(0.7, -5.0, 0.0) == -5.0
        assert score_hypothesis(1.0, 0.0) == 0.5

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            score_hypothesis(math.nan, 0.0)

    def test_rejects_overflow(self):
        """Finite inputs whose mix overflows: inf - inf is NaN at lam = 3,
        and 3 * 1e308 alone is inf at lam = -2."""
        with pytest.raises(ValueError, match="non-finite"):
            score_hypothesis(1e308, 1e308, 3.0)
        with pytest.raises(ValueError, match="non-finite"):
            score_hypothesis(0.0, 1e308, -2.0)


class TestDataShapes:
    def test_instance_validation(self):
        with pytest.raises(ValueError, match="w > 0"):
            _inst(bbox=(0.0, 0.0, 0.0, 10.0))
        with pytest.raises(ValueError, match="non-finite"):
            _inst(bbox=(0.0, 0.0, math.nan, 10.0))
        with pytest.raises(ValueError, match="keypoint"):
            _inst(keypoints={0: Keypoint(math.inf, 0.0)})

    def test_detection_validation(self):
        with pytest.raises(ValueError, match="finite"):
            _det(score=math.nan)
        with pytest.raises(ValueError, match="w > 0"):
            _det(bbox=(0.0, 0.0, 10.0, -1.0))

    def test_detection_rejects_non_finite_bbox(self):
        with pytest.raises(ValueError, match="non-finite"):
            _det(bbox=(math.nan, 0.0, math.nan, 5.0))
        with pytest.raises(ValueError, match="non-finite"):
            _det(bbox=(0.0, 0.0, math.inf, 5.0))

    def test_report_curve_validation(self):
        report = EvalReport(curves={"c": (np.array([0.5, 0.4]), np.array([1.0, 1.0]))})
        with pytest.raises(ValueError, match="nondecreasing"):
            report.validate()

    def test_instance_area(self):
        assert _inst(bbox=(5.0, 5.0, 20.0, 30.0)).area == 600.0

    def test_slotted_records_recheck_on_replace(self):
        """Instance and Detection are slotted (no per-record __dict__), and
        dataclasses.replace still runs their box check."""
        for record in (_inst(), _det()):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.extra = 1
            moved = dataclasses.replace(record, bbox=(1.0, 2.0, 3.0, 4.0))
            assert moved.bbox == (1.0, 2.0, 3.0, 4.0) and record.bbox != moved.bbox
            with pytest.raises(ValueError, match="w > 0"):
                dataclasses.replace(record, bbox=(0.0, 0.0, 0.0, 10.0))
            with pytest.raises(ValueError, match="non-finite"):
                dataclasses.replace(record, bbox=(0.0, math.inf, 10.0, 10.0))

    def test_box_refusals_name_their_record(self):
        """The box check's message carries the record's prefix, added only
        when a box is refused."""
        cases = [
            (_inst, (0.0, math.nan, 1.0, 1.0), "instance i0: bbox has non-finite values"),
            (_inst, (0.0, 0.0, 1.0, 0.0), "instance i0: bbox must have w > 0 and h > 0"),
            (_det, (math.inf, 0.0, 1.0, 1.0), "detection bbox has non-finite values"),
            (_det, (0.0, 0.0, -1.0, 1.0), "detection bbox must have w > 0 and h > 0"),
        ]
        for make, bbox, message in cases:
            with pytest.raises(ValueError) as info:
                make(bbox=bbox)
            assert str(info.value) == message


def _reference_iou(b1, b2):
    """The scalar IoU rule: min, max, product, quotient; 0 without overlap."""
    x1, y1, w1, h1 = b1
    x2, y2, w2, h2 = b2
    iw = min(x1 + w1, x2 + w2) - max(x1, x2)
    ih = min(y1 + h1, y2 + h2) - max(y1, y2)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (w1 * h1 + w2 * h2 - inter)


def _reference_match_class(dets, gts, correct, consume_on_localization):
    """The per-test matcher as it stood before the shared core: one full
    localization pass per correctness test."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    by_image = {}
    for g, gt in enumerate(gts):
        by_image.setdefault(gt.image_id, []).append(g)
    taken = [False] * len(gts)
    tp = np.zeros(len(dets), dtype=np.int64)
    for rank, i in enumerate(order):
        best_iou, best_g = 0.0, -1
        for g in by_image.get(dets[i].image_id, ()):
            if taken[g]:
                continue
            ov = iou(dets[i].bbox, gts[g].bbox)
            if ov > best_iou:
                best_iou, best_g = ov, g
        if best_g >= 0 and best_iou > 0.5:
            ok = correct(dets[i], gts[best_g])
            if ok or consume_on_localization:
                taken[best_g] = True
            if ok:
                tp[rank] = 1
    cum_tp = np.cumsum(tp)
    recalls = cum_tp / len(gts) if gts else np.zeros(len(dets))
    precisions = cum_tp / np.arange(1, len(dets) + 1) if dets else np.zeros(0)
    ap = voc_ap(recalls, precisions) if gts else 0.0
    return ap, recalls, precisions


def _reference_apk(dets, gts_in, alpha, lam):
    """APK's inline greedy loop as it stood before the shared core, each
    hypothesis rescored by lam * det.score + (1 - lam) * h.score."""
    gt_by_type, hyps, kp_ids = {}, {}, {}
    for inst in gts_in:
        for k, kp in inst.keypoints.items():
            kp_ids.setdefault(inst.class_name, set()).add(k)
            if kp.visible:
                gt_by_type.setdefault((inst.class_name, k), []).append(
                    (inst.image_id, kp.x, kp.y, pck_threshold(inst.bbox, alpha))
                )
    for det in dets:
        for k, h in det.keypoint_hypotheses.items():
            kp_ids.setdefault(det.class_name, set()).add(k)
            score = lam * det.score + (1.0 - lam) * h.score
            hyps.setdefault((det.class_name, k), []).append((score, det.image_id, h.x, h.y))
    out = {}
    for cls in sorted(kp_ids):
        out[cls] = {}
        for k in sorted(kp_ids[cls]):
            gts = gt_by_type.get((cls, k), [])
            cands = hyps.get((cls, k), [])
            order = sorted(range(len(cands)), key=lambda i: -cands[i][0])
            by_image = {}
            for g, gt in enumerate(gts):
                by_image.setdefault(gt[0], []).append(g)
            taken = [False] * len(gts)
            tp = np.zeros(len(cands), dtype=np.int64)
            for rank, i in enumerate(order):
                _, image_id, hx, hy = cands[i]
                best_d, best_g = math.inf, -1
                for g in by_image.get(image_id, ()):
                    if taken[g]:
                        continue
                    _, gx, gy, radius = gts[g]
                    d = math.hypot(hx - gx, hy - gy)
                    if d <= radius and d < best_d:
                        best_d, best_g = d, g
                if best_g >= 0:
                    taken[best_g] = True
                    tp[rank] = 1
            if not gts:
                out[cls][k] = 0.0
                continue
            cum_tp = np.cumsum(tp)
            precisions = cum_tp / np.arange(1, len(cands) + 1) if cands else np.zeros(0)
            out[cls][k] = voc_ap(cum_tp / len(gts), precisions)
    return out


class TestOnePassScorer:
    """The shared greedy core against the per-test paths it replaced."""

    @pytest.fixture(scope="class")
    def scene(self):
        """A seeded heavy-noise synth scene, crowded so that every greedy
        choice matters: ten instances share each image, every fifth one has
        a twin with the same box and keypoints but another azimuth (equal
        IoU and distance ties), every detection has a shifted duplicate with
        a random azimuth, and all scores are rounded so that they tie."""
        base = generate_scene(11, 300, noise_preset("heavy"))
        rng = np.random.default_rng(12)
        image_of = {inst.image_id: f"im{i // 10}" for i, inst in enumerate(base.instances)}
        gts = []
        for i, inst in enumerate(base.instances):
            inst = dataclasses.replace(inst, image_id=image_of[inst.image_id])
            gts.append(inst)
            if i % 5 == 0:
                twin_vp = EulerAngles(float(rng.uniform(0, 2 * math.pi)), 0.0, 0.0)
                gts.append(dataclasses.replace(inst, id=f"{inst.id}-twin", viewpoint=twin_vp))
        dets = []
        for det in base.detections:
            x, y, w, h = det.bbox
            dx, dy = rng.normal(0.0, 0.2, size=2) * (w, h)
            dup_vp = EulerAngles(float(rng.uniform(0, 2 * math.pi)), 0.0, 0.0)
            dup_drop = float(rng.uniform(0.0, 0.3))
            for shift, drop, vp in ((0.0, 0.0, det.viewpoint), (1.0, dup_drop, dup_vp)):
                hyps = {
                    k: KeypointHypothesis(hp.x + shift * dx, hp.y + shift * dy,
                                          round(hp.score - drop, 1))
                    for k, hp in det.keypoint_hypotheses.items()
                }
                dets.append(dataclasses.replace(
                    det, image_id=image_of[det.image_id], score=round(det.score - drop, 1),
                    bbox=(x + shift * dx, y + shift * dy, w, h), viewpoint=vp,
                    keypoint_hypotheses=hyps,
                ))
        return gts, dets

    def _reference_tests(self):
        theta = math.pi / 6
        return {
            "avp24": lambda d, g: angle_to_bin(d.viewpoint.azimuth, 24)
            == angle_to_bin(g.viewpoint.azimuth, 24),
            "avp_theta": lambda d, g: azimuth_distance(g.viewpoint.azimuth, d.viewpoint.azimuth)
            < theta,
            "arp_theta": lambda d, g: geodesic_distance(
                euler_to_rotation(g.viewpoint), euler_to_rotation(d.viewpoint)
            )
            < theta,
        }

    def test_viewpoint_tests_equal_per_test_reference(self, scene):
        gts_all, dets_all = scene
        library = {
            "avp24": partial(bin_match, 24),
            "avp_theta": partial(azimuth_within, math.pi / 6),
            "arp_theta": partial(rotation_within, math.pi / 6),
        }
        reference = self._reference_tests()
        aps = {}
        for consume in (True, False):
            evals = evaluate_detection_tests(dets_all, gts_all, library, consume)
            assert sorted(evals) == ["car", "chair", "sofa"]
            for cls, by_test in evals.items():
                dets = [d for d in dets_all if d.class_name == cls]
                gts = [g for g in gts_all if g.class_name == cls]
                assert list(by_test) == list(reference)
                for name, got in by_test.items():
                    ap, recalls, precisions = _reference_match_class(
                        dets, gts, reference[name], consume
                    )
                    assert got.ap == ap
                    assert got.recalls.dtype == recalls.dtype
                    assert got.recalls.tolist() == recalls.tolist()
                    assert got.precisions.tolist() == precisions.tolist()
                    aps[consume, cls, name] = got.ap
            wrappers = (
                avp(dets_all, gts_all, 24, consume),
                avp_theta(dets_all, gts_all, math.pi / 6, consume),
                arp_theta(dets_all, gts_all, math.pi / 6, consume),
            )
            for name, wrapped in zip(reference, wrappers):
                assert wrapped == {cls: by_test[name].ap for cls, by_test in evals.items()}
        assert 0.0 < min(aps.values()) and max(aps.values()) < 1.0
        # the consumption policy changes the outcome on this scene
        assert any(aps[True, c, n] != aps[False, c, n] for _, c, n in aps)

    def test_stacked_iou_is_the_scalar_rule_bitwise(self, scene):
        """ious on every same-image (detection, ground truth) pair of the
        scene, plus an IoU of exactly 0.5 and edge-touching boxes, gives the
        bits of the scalar rule, and iou is its one-row view."""
        gts, dets = scene
        pairs = [(d.bbox, g.bbox) for d in dets for g in gts if d.image_id == g.image_id]
        pairs += [
            ((0.0, 0.0, 10.0, 10.0), (0.0, 0.0, 10.0, 5.0)),
            ((0.0, 0.0, 10.0, 10.0), (10.0, 0.0, 10.0, 10.0)),
            ((0.0, 0.0, 10.0, 10.0), (0.0, 10.0, 10.0, 10.0)),
            ((0.0, 0.0, 10.0, 10.0), (10.0, 10.0, 10.0, 10.0)),
        ]
        b1, b2 = (np.array(side, dtype=np.float64) for side in zip(*pairs))
        expected = np.array([_reference_iou(a, b) for a, b in pairs])
        got = metrics.ious(b1, b2)
        assert got.tobytes() == expected.tobytes()
        assert [iou(a, b) for a, b in pairs] == expected.tolist()
        assert 0.5 in got.tolist() and 0.0 in got.tolist()
        assert ((got > 0.0) & (got < 0.5)).any() and (got > 0.5).any()

    def test_apk_equals_inline_reference(self, scene):
        gts, dets = scene
        for lam in (0.0, 0.5, 1.0, -2.0):
            got = apk(dets, gts, alpha=0.1, lam=lam)
            assert got.per_keypoint == _reference_apk(dets, gts, 0.1, lam)
            assert 0.0 < got.mean() < 1.0
