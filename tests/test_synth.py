"""Tests for the synthetic scene generator and its brute-force oracles."""

import hashlib
import math

import numpy as np
import pytest

from posekit.dataio import save_dataset
from posekit.fusion import fuse_and_decode, normalize_keypoints, uniform_prior
from posekit.metrics import iou, voc_ap
from posekit.so3 import azimuth_distance, geodesic_distance, euler_to_rotation
from posekit.synth import (
    NOISE_PRESETS,
    NoiseProfile,
    class_template,
    generate_scene,
    noise_preset,
    oracle_ap,
    oracle_fuse,
)


def _scene_pairs(scene):
    """(gt, predicted) viewpoint pairs matched by image id."""
    primary = {d.image_id: d for d in scene.detections}
    for inst in scene.instances:
        yield inst, primary[inst.image_id]


class TestNoiseProfile:
    def test_presets_exist(self):
        assert set(NOISE_PRESETS) == {"zero", "mild", "moderate", "heavy"}
        assert noise_preset("zero") == NoiseProfile()

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown noise preset"):
            noise_preset("extreme")

    def test_validation(self):
        with pytest.raises(ValueError, match="probability"):
            NoiseProfile(pi_flip_prob=1.5)
        with pytest.raises(ValueError, match="probability"):
            NoiseProfile(lateral_swap_prob=-0.1)
        with pytest.raises(ValueError, match="stddev"):
            NoiseProfile(keypoint_jitter=-2.0)
        with pytest.raises(ValueError, match="stddev"):
            NoiseProfile(viewpoint_jitter=math.inf)


class TestTemplates:
    def test_lateral_pairs_mirror_in_x(self):
        t = class_template(0, 8)
        for m in range(4):
            assert t[2 * m, 0] == -t[2 * m + 1, 0]
            assert t[2 * m, 1] == t[2 * m + 1, 1]
            assert t[2 * m, 2] == t[2 * m + 1, 2]
            assert abs(t[2 * m, 0]) > 0.0

    def test_odd_keypoint_on_mirror_plane(self):
        t = class_template(1, 7)
        assert t[6, 0] == 0.0

    def test_unit_ball(self):
        for ci, k in ((0, 8), (1, 7), (2, 6)):
            norms = np.linalg.norm(class_template(ci, k), axis=1)
            assert norms.max() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_per_class_index(self):
        np.testing.assert_array_equal(class_template(0, 8), class_template(0, 8))
        assert not np.array_equal(class_template(0, 6), class_template(1, 6))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            class_template(0, 0)


class TestSceneDeterminism:
    def test_same_seed_same_scene(self):
        a = generate_scene(seed=7, n_instances=12, profile=noise_preset("mild"))
        b = generate_scene(seed=7, n_instances=12, profile=noise_preset("mild"))
        assert a.manifest == b.manifest
        assert a.instances == b.instances
        assert a.detections == b.detections
        for iid in a.response_maps:
            for kind in ("fine", "coarse"):
                np.testing.assert_array_equal(
                    a.response_maps[iid][kind], b.response_maps[iid][kind]
                )
        for cls in a.prior_banks:
            np.testing.assert_array_equal(
                a.prior_banks[cls].rotations, b.prior_banks[cls].rotations
            )

    def test_different_seeds_differ(self):
        a = generate_scene(seed=7, n_instances=12, profile=noise_preset("zero"))
        b = generate_scene(seed=8, n_instances=12, profile=noise_preset("zero"))
        assert a.instances != b.instances

    def test_profiles_share_ground_truth(self):
        """The noise profile must not shift the random stream: the same
        seed yields identical ground truth under any profile."""
        a = generate_scene(seed=9, n_instances=15, profile=noise_preset("zero"))
        b = generate_scene(seed=9, n_instances=15, profile=noise_preset("heavy"))
        assert a.instances == b.instances
        for cls in a.prior_banks:
            np.testing.assert_array_equal(
                a.prior_banks[cls].rotations, b.prior_banks[cls].rotations
            )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_scene_is_a_prefix_of_a_larger_one(self, seed):
        """Each instance consumes a fixed block of the stream, so a scene's
        records, maps and bank do not depend on how many instances follow."""
        small = generate_scene(seed, 10, noise_preset("heavy"), bank_size=30)
        large = generate_scene(seed, 40, noise_preset("heavy"), bank_size=30)
        assert small.instances == large.instances[:10]
        images = {inst.image_id for inst in small.instances}
        assert small.detections == [d for d in large.detections if d.image_id in images]
        assert len(small.detections) > 10  # some false positives among them
        for iid, maps in small.response_maps.items():
            for kind in ("fine", "coarse"):
                np.testing.assert_array_equal(maps[kind], large.response_maps[iid][kind])
        for cls, bank in small.prior_banks.items():
            np.testing.assert_array_equal(bank.rotations, large.prior_banks[cls].rotations)
            np.testing.assert_array_equal(bank.keypoints, large.prior_banks[cls].keypoints)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_instances"):
            generate_scene(seed=1, n_instances=0, profile=noise_preset("zero"))


class TestNoiselessScene:
    def test_predictions_equal_ground_truth(self):
        scene = generate_scene(seed=10, n_instances=25, profile=noise_preset("zero"))
        assert len(scene.detections) == 25  # no false positives
        for inst, det in _scene_pairs(scene):
            assert det.viewpoint == inst.viewpoint
            assert det.score == 1.0
            for k, kp in inst.keypoints.items():
                hyp = det.keypoint_hypotheses[k]
                assert (hyp.x, hyp.y) == (kp.x, kp.y)
                assert hyp.score == 1.0

    def test_response_maps_peak_on_keypoints(self):
        scene = generate_scene(seed=11, n_instances=10, profile=noise_preset("zero"))
        for inst in scene.instances:
            fine = scene.response_maps[inst.id]["fine"]
            for k, kp in inst.keypoints.items():
                gx, gy = normalize_keypoints([inst.bbox], [[(kp.x, kp.y)]])[0, 0]
                row, col = np.unravel_index(int(fine[k].argmax()), fine[k].shape)
                assert (row, col) == (int(gy), int(gx))
                assert fine[k].max() <= 0.0

    def test_box_size_override(self):
        scene = generate_scene(seed=12, n_instances=8, profile=noise_preset("zero"),
                               box_size=(100.0, 100.0))
        for inst in scene.instances:
            assert inst.bbox[2:] == (100.0, 100.0)

    def test_flag_rates(self):
        scene = generate_scene(seed=13, n_instances=600, profile=noise_preset("zero"))
        occ = np.mean([inst.occluded for inst in scene.instances])
        trunc = np.mean([inst.truncated for inst in scene.instances])
        assert 0.12 < occ < 0.28
        assert 0.04 < trunc < 0.16


class TestInjectedErrors:
    def test_forced_pi_flip(self):
        scene = generate_scene(
            seed=14, n_instances=30, profile=NoiseProfile(pi_flip_prob=1.0)
        )
        for inst, det in _scene_pairs(scene):
            d = azimuth_distance(inst.viewpoint.azimuth, det.viewpoint.azimuth + math.pi)
            assert d < 1e-9
            rel = geodesic_distance(
                euler_to_rotation(inst.viewpoint), euler_to_rotation(det.viewpoint)
            )
            # arccos is ill-conditioned at pi; only sqrt(eps) is attainable
            assert rel == pytest.approx(math.pi, abs=1e-6)

    def test_viewpoint_jitter_scales(self):
        small = generate_scene(seed=15, n_instances=40,
                               profile=NoiseProfile(viewpoint_jitter=0.02))
        large = generate_scene(seed=15, n_instances=40,
                               profile=NoiseProfile(viewpoint_jitter=0.3))
        def mean_err(scene):
            return np.mean([
                geodesic_distance(euler_to_rotation(i.viewpoint),
                                  euler_to_rotation(d.viewpoint))
                for i, d in _scene_pairs(scene)
            ])
        assert mean_err(small) < mean_err(large)

    def test_forced_lateral_swap(self):
        scene = generate_scene(
            seed=16, n_instances=20, profile=NoiseProfile(lateral_swap_prob=1.0)
        )
        for inst, det in _scene_pairs(scene):
            k_c = len(inst.keypoints)
            for m in range(k_c // 2):
                a, b = 2 * m, 2 * m + 1
                assert det.keypoint_hypotheses[a].x == inst.keypoints[b].x
                assert det.keypoint_hypotheses[b].x == inst.keypoints[a].x

    def test_swapped_response_map_keeps_secondary_peak(self):
        scene = generate_scene(
            seed=17, n_instances=20, profile=NoiseProfile(lateral_swap_prob=1.0)
        )
        checked = 0
        for inst in scene.instances:
            fine = scene.response_maps[inst.id]["fine"]
            grid = dict(zip(inst.keypoints, normalize_keypoints(
                [inst.bbox], [[(kp.x, kp.y) for kp in inst.keypoints.values()]]
            )[0]))
            for m in range(len(inst.keypoints) // 2):
                a, b = 2 * m, 2 * m + 1
                own = (int(grid[a][1]), int(grid[a][0]))
                partner = (int(grid[b][1]), int(grid[b][0]))
                if abs(own[0] - partner[0]) + abs(own[1] - partner[1]) < 4:
                    continue
                row, col = np.unravel_index(int(fine[a].argmax()), fine[a].shape)
                assert (row, col) == partner
                # the true location keeps a bump roughly one unit down
                assert fine[a][own] >= -1.26
                checked += 1
        assert checked > 10

    def test_forced_false_positives(self):
        scene = generate_scene(
            seed=18, n_instances=15, profile=NoiseProfile(false_positive_rate=1.0)
        )
        assert len(scene.detections) == 30
        by_image = {}
        for det in scene.detections:
            by_image.setdefault(det.image_id, []).append(det)
        for inst in scene.instances:
            dets = by_image[inst.image_id]
            assert len(dets) == 2
            scores = sorted(d.score for d in dets)
            assert scores == [0.5, 1.0]
            spurious = min(dets, key=lambda d: d.score)
            assert iou(spurious.bbox, inst.bbox) == 0.0

    def test_keypoint_jitter_moves_hypotheses(self):
        scene = generate_scene(seed=19, n_instances=10,
                               profile=NoiseProfile(keypoint_jitter=3.0))
        moved = [
            abs(det.keypoint_hypotheses[k].x - inst.keypoints[k].x)
            for inst, det in _scene_pairs(scene)
            for k in inst.keypoints
        ]
        assert max(moved) > 0.5


# SHA-256 of the saved dataset tree (relative path, NUL, file bytes, in
# sorted path order) for scenes whose bytes must never change: every
# noise preset, a fixed box size, a small bank, and a profile forcing
# every injected error.
SCENE_DIGESTS = {
    "zero": (
        dict(seed=21, n_instances=60, profile=noise_preset("zero")),
        "6ef77d6c647e827ca69f410034df00fcf72a01fc2ae7a9e14bccff745b53bbef",
    ),
    "mild": (
        dict(seed=22, n_instances=60, profile=noise_preset("mild")),
        "7cf3513941b4735cc165fe4bf0852b014e40ea8b956d6842b046604ca24ff723",
    ),
    "moderate": (
        dict(seed=23, n_instances=60, profile=noise_preset("moderate")),
        "b7bbd578df1aa300cd50d9a49140d53f61e52a76c15a3d3a0cdcec330f0f0c62",
    ),
    "heavy": (
        dict(seed=24, n_instances=60, profile=noise_preset("heavy")),
        "396e19a1b16b118c67b20ecfc1c41ce4b17ec918e95188c13adb6de8d45b54ac",
    ),
    "box_size": (
        dict(seed=25, n_instances=60, profile=noise_preset("moderate"),
             box_size=(100.0, 100.0)),
        "badc87122969abba3dcd180cda8dc3f755c8a8998e350d61484657cd489d5c59",
    ),
    "bank_size": (
        dict(seed=27, n_instances=60, profile=noise_preset("mild"), bank_size=7),
        "e3b1306aece3b081a9ec3269cebe85cc7da2d5b015296295de14ce589072fca7",
    ),
    "forced": (
        dict(seed=28, n_instances=60, profile=NoiseProfile(0.3, 1.0, 1.0, 8.0, 1.0, 0.2)),
        "c31d40ed8eda57982b2be05d7919cde6abe64fa940408555c9b50e9aba88b01d",
    ),
}


def _tree_digest(base):
    h = hashlib.sha256()
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(base)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class TestSceneBytes:
    @pytest.mark.parametrize("case", sorted(SCENE_DIGESTS))
    def test_saved_tree_digest(self, case, tmp_path):
        kwargs, digest = SCENE_DIGESTS[case]
        save_dataset(generate_scene(**kwargs), tmp_path)
        assert _tree_digest(tmp_path) == digest


class TestOracleFuse:
    def test_matches_library_on_random_inputs(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            prior = rng.uniform(1e-12, 1.0, size=(12, 12))
            loglik = rng.normal(size=(12, 12))
            assert oracle_fuse(prior, loglik) == fuse_and_decode(prior, loglik)

    def test_matches_library_on_ties(self):
        loglik = np.zeros((12, 12))
        assert oracle_fuse(uniform_prior(), loglik) == fuse_and_decode(uniform_prior(), loglik)
        loglik[3, 7] = 1.5
        loglik[9, 2] = 1.5
        assert oracle_fuse(uniform_prior(), loglik) == (7.5, 3.5)
        assert fuse_and_decode(uniform_prior(), loglik) == (7.5, 3.5)

    def test_known_answer(self):
        prior = uniform_prior()
        loglik = np.zeros((12, 12))
        loglik[5, 11] = 2.0
        assert oracle_fuse(prior, loglik) == (11.5, 5.5)


class TestOracleAp:
    def _library_ap(self, ranking, n_gt):
        """AP the production way: stable score sort, cumulative counts."""
        order = sorted(range(len(ranking)), key=lambda i: -ranking[i][0])
        tp = np.array([1 if ranking[i][1] else 0 for i in order], dtype=np.int64)
        cum = np.cumsum(tp)
        recalls = cum / n_gt
        precisions = cum / np.arange(1, len(ranking) + 1)
        return voc_ap(recalls, precisions)

    def test_all_hits(self):
        ranking = [(0.9, True), (0.8, True)]
        assert oracle_ap(ranking, 2) == 1.0

    def test_all_misses(self):
        assert oracle_ap([(0.9, False), (0.1, False)], 3) == 0.0

    def test_tp_fp_tp(self):
        ranking = [(0.9, True), (0.8, False), (0.7, True)]
        np.testing.assert_allclose(oracle_ap(ranking, 2), 5.0 / 6.0, atol=1e-12)

    def test_missed_gt_caps_recall(self):
        assert oracle_ap([(0.9, True)], 2) == 0.5

    def test_matches_library_bit_for_bit(self):
        """Same sort, same divisions, same summation order: the oracle
        and the production path must agree exactly, not approximately."""
        rng = np.random.default_rng(72)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            n_gt = int(rng.integers(1, 15))
            hits = 0
            ranking = []
            for _ in range(n):
                is_tp = bool(rng.random() < 0.4) and hits < n_gt
                hits += is_tp
                ranking.append((float(rng.uniform(0, 1)), is_tp))
            assert oracle_ap(ranking, n_gt) == self._library_ap(ranking, n_gt)

    def test_rejects_empty_gt(self):
        with pytest.raises(ValueError, match="n_gt"):
            oracle_ap([(0.5, True)], 0)
