"""Tests for multi-scale response fusion and the viewpoint-conditioned prior.

The prior is verified against a literal double-loop reimplementation of the
Gaussian mixture written with math.exp on scalars, sharing no code with the
library path.
"""

import math
import re
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from posekit import cli, fusion
from posekit.dataio import ValidationError, read_response_map, write_response_map
from posekit.fusion import (
    FUSE_CHUNK,
    GRID_SIZE,
    NEIGHBOR_THRESHOLD,
    PRIOR_FLOOR,
    PRIOR_SIGMA,
    NoPriorSupportError,
    PriorBank,
    combine_scales,
    denormalize_keypoint,
    fuse_and_decode,
    fuse_instances,
    neighbor_set,
    normalize_keypoints,
    pose_prior,
    uniform_prior,
    upsample_coarse,
)
from posekit.so3 import EulerAngles, euler_to_rotation, geodesic_distance, geodesic_distances
from posekit.synth import generate_scene, noise_preset


def _rot_about_z(angle):
    return euler_to_rotation(EulerAngles(angle, 0.0, 0.0))


def _random_bank(rng, n=10, k=4, with_absent=False):
    rots = np.stack(
        [
            euler_to_rotation(
                EulerAngles(
                    float(rng.uniform(0, 2 * math.pi)),
                    float(rng.uniform(-1.2, 1.2)),
                    float(rng.uniform(-3.0, 3.0)),
                )
            )
            for _ in range(n)
        ]
    )
    kps = rng.uniform(0.0, 12.0 - 1e-6, size=(n, k, 2))
    present = rng.random((n, k)) > 0.3 if with_absent else None
    return PriorBank("thing", rots, kps, present)


def _prior_oracle(r, bank, keypoint_id, sigma, threshold):
    """Scalar reimplementation of the mixture prior, one cell at a time."""
    dists = [geodesic_distance(r, bank.rotations[i]) for i in range(len(bank))]
    near = [i for i, d in enumerate(dists) if d < threshold]
    if not near:
        near = [min(range(len(bank)), key=lambda i: dists[i])]
    members = [i for i in near if bank.present[i, keypoint_id]]
    if not members:
        return None
    out = np.zeros((12, 12))
    norm = 1.0 / (2.0 * math.pi * sigma * sigma)
    for row in range(12):
        for col in range(12):
            x, y = col + 0.5, row + 0.5
            total = 0.0
            for i in members:
                mx, my = bank.keypoints[i, keypoint_id]
                d2 = (x - mx) ** 2 + (y - my) ** 2
                total += norm * math.exp(-d2 / (2.0 * sigma * sigma))
            out[row, col] = max(total / len(members), 1e-12)
    return out


class TestUpsampling:
    def test_nearest_replicates_blocks(self):
        rng = np.random.default_rng(31)
        c = rng.normal(size=(6, 6))
        up = upsample_coarse(c)
        for i in range(12):
            for j in range(12):
                assert up[i, j] == c[i // 2, j // 2]

    def test_rejects_bad_shape_and_mode(self):
        with pytest.raises(ValueError, match="6x6"):
            upsample_coarse(np.zeros((12, 12)))
        # nearest-cell replication is the only mode left
        with pytest.raises(TypeError, match="mode"):
            upsample_coarse(np.zeros((6, 6)), mode="bilinear")


class TestCombineScales:
    def test_matches_manual_combination(self):
        rng = np.random.default_rng(32)
        fine = rng.normal(size=(12, 12))
        coarse = rng.normal(size=(6, 6))
        out = combine_scales(fine, coarse, w_fine=0.7, w_coarse=0.3)
        np.testing.assert_array_equal(out, 0.7 * fine + 0.3 * upsample_coarse(coarse))

    def test_default_weights_are_halves(self):
        fine = np.ones((12, 12))
        coarse = np.zeros((6, 6))
        np.testing.assert_array_equal(combine_scales(fine, coarse), np.full((12, 12), 0.5))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="12x12"):
            combine_scales(np.zeros((6, 6)), np.zeros((6, 6)))
        with pytest.raises(ValueError, match="finite"):
            combine_scales(np.zeros((12, 12)), np.zeros((6, 6)), w_fine=math.nan)
        with pytest.raises(ValueError, match="disagree"):
            combine_scales(np.zeros((3, 12, 12)), np.zeros((2, 6, 6)))


class TestNormalization:
    def test_box_center_maps_to_grid_center(self):
        grid = normalize_keypoints([(10.0, 20.0, 100.0, 50.0)], [[(60.0, 45.0)]])
        assert grid.tolist() == [[[6.0, 6.0]]]

    def test_roundtrip_inside_box(self):
        rng = np.random.default_rng(33)
        box = (12.0, -5.0, 80.0, 140.0)
        for _ in range(500):
            p = (
                float(rng.uniform(12.0, 91.9)),
                float(rng.uniform(-5.0, 134.9)),
            )
            gx, gy = normalize_keypoints([box], [[p]])[0, 0].tolist()
            back = denormalize_keypoint(box, (gx, gy))
            np.testing.assert_allclose(back, p, atol=1e-9)

    def test_clamps_to_grid(self):
        box = (0.0, 0.0, 10.0, 10.0)
        assert normalize_keypoints([box], [[(-5.0, 3.0)]])[0, 0, 0] == 0.0
        gx, gy = normalize_keypoints([box], [[(50.0, 50.0)]])[0, 0].tolist()
        assert gx == GRID_SIZE - 1e-9
        assert gy == GRID_SIZE - 1e-9
        assert int(gx) == GRID_SIZE - 1

    def test_rejects_degenerate_box(self):
        with pytest.raises(ValueError, match="degenerate"):
            normalize_keypoints([(0.0, 0.0, 0.0, 10.0)], [[(1.0, 1.0)]])
        with pytest.raises(ValueError, match="degenerate"):
            normalize_keypoints([(0.0, 0.0, math.nan, 10.0)], [[(1.0, 1.0)]])
        with pytest.raises(ValueError, match="degenerate"):
            denormalize_keypoint((0.0, 0.0, 10.0, -1.0), (1.0, 1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(4))
    def test_rejects_non_finite_box(self, field, value):
        """A NaN or infinite x, y, w or h is refused both ways, naming the
        first such box, as metrics refuses a record's box; none reaches a
        pixel or a grid cell."""
        bad = [0.0, 0.0, 10.0, 10.0]
        bad[field] = value
        boxes = [(0.0, 0.0, 10.0, 10.0), tuple(bad), (1.0, 1.0, -1.0, 1.0)]
        message = re.escape(f"degenerate box {tuple(bad)}")
        with pytest.raises(ValueError, match=message):
            normalize_keypoints(boxes, np.ones((3, 1, 2)))
        with pytest.raises(ValueError, match=message):
            fusion.denormalize_keypoints(boxes, np.ones((3, 1, 2)))


class TestNeighborSet:
    def test_strictly_within_threshold(self):
        bank = PriorBank(
            "c",
            np.stack([_rot_about_z(0.0), _rot_about_z(0.09), _rot_about_z(0.11)]),
            np.zeros((3, 1, 2)),
        )
        idx = neighbor_set(np.eye(3), bank, threshold=0.1)
        assert sorted(idx.tolist()) == [0, 1]

    def test_falls_back_to_nearest(self):
        bank = PriorBank(
            "c",
            np.stack([_rot_about_z(2.0), _rot_about_z(1.0), _rot_about_z(2.5)]),
            np.zeros((3, 1, 2)),
        )
        idx = neighbor_set(np.eye(3), bank, threshold=0.1)
        assert idx.tolist() == [1]

    def test_nearest_fallback_tie_takes_the_first_entry(self):
        rots = np.stack([_rot_about_z(a) for a in (2.0, 1.0, 2.5, 1.0)])
        bank = PriorBank("c", rots, np.zeros((4, 1, 2)))
        assert neighbor_set(np.eye(3), bank, threshold=0.1).tolist() == [1]

    def test_default_threshold(self):
        bank = PriorBank(
            "c",
            np.stack([_rot_about_z(math.pi / 6 - 0.01), _rot_about_z(math.pi / 6 + 0.01)]),
            np.zeros((2, 1, 2)),
        )
        idx = neighbor_set(np.eye(3), bank)
        assert idx.tolist() == [0]
        assert NEIGHBOR_THRESHOLD == pytest.approx(math.pi / 6)

    def test_bank_holding_the_query_exactly(self):
        """The query's own entry is 0.0 in the stacked distances, where the
        raw trace formula leaves ~2e-8 for this rotation; every other entry,
        and the neighbour set, is the raw formula's."""
        r = euler_to_rotation(
            EulerAngles(-2.8040335324766126, -1.0823789032327813, -6.6035246039635185)
        )
        rots = _random_bank(np.random.default_rng(21), n=50).rotations.copy()
        rots[17] = r
        bank = PriorBank("thing", rots, np.zeros((50, 1, 2)))
        qs = np.stack([r, _rot_about_z(0.3)])
        raw = np.arccos(np.clip((np.einsum("bij,nij->bn", qs, rots) - 1.0) / 2.0, -1.0, 1.0))
        assert raw[0, 17] > 0.0
        d = geodesic_distances(qs[:, None], bank.rotations)
        assert d[0, 17] == 0.0
        d[0, 17] = raw[0, 17]
        assert np.array_equal(d, raw)
        assert np.array_equal(neighbor_set(r, bank), np.flatnonzero(raw[0] < NEIGHBOR_THRESHOLD))

    def test_empty_bank_rejected(self):
        bank = PriorBank("c", np.zeros((0, 3, 3)), np.zeros((0, 1, 2)))
        with pytest.raises(ValueError, match="empty"):
            neighbor_set(np.eye(3), bank)


class TestPosePrior:
    def test_matches_scalar_oracle(self):
        """Vectorized mixture equals the cell-by-cell scalar version."""
        rng = np.random.default_rng(34)
        for _ in range(25):
            bank = _random_bank(rng, n=12, k=3, with_absent=True)
            r = bank.rotations[int(rng.integers(len(bank)))]
            k = int(rng.integers(3))
            expected = _prior_oracle(r, bank, k, 2.0, NEIGHBOR_THRESHOLD)
            if expected is None:
                with pytest.raises(NoPriorSupportError):
                    pose_prior(r, bank, k)
                continue
            np.testing.assert_allclose(pose_prior(r, bank, k), expected, atol=1e-12)

    def test_single_neighbor_peak_value(self):
        """A lone Gaussian centered on a cell center peaks at 1/(8*pi)."""
        bank = PriorBank(
            "c", np.eye(3)[None], np.array([[[5.5, 5.5]]]), np.ones((1, 1), bool)
        )
        prior = pose_prior(np.eye(3), bank, 0)
        assert prior[5, 5] == 1.0 / (2.0 * math.pi * 2.0 * 2.0)
        assert prior.argmax() == 5 * 12 + 5

    def test_floor_engages_far_from_mass(self):
        bank = PriorBank("c", np.eye(3)[None], np.array([[[0.5, 0.5]]]))
        prior = pose_prior(np.eye(3), bank, 0)
        assert prior[11, 11] == PRIOR_FLOOR

    def test_no_support_raises(self):
        bank = PriorBank(
            "c", np.eye(3)[None], np.array([[[5.0, 5.0]]]), np.zeros((1, 1), bool)
        )
        with pytest.raises(NoPriorSupportError, match="absent"):
            pose_prior(np.eye(3), bank, 0)

    def test_only_neighbors_contribute(self):
        """Mass follows the rotation: entries far from the query rotation
        are excluded from the mixture."""
        rots = np.stack([np.eye(3), _rot_about_z(2.0)])
        kps = np.array([[[2.5, 2.5]], [[9.5, 9.5]]])
        bank = PriorBank("c", rots, kps)
        prior = pose_prior(np.eye(3), bank, 0)
        assert prior[2, 2] > prior[9, 9]
        row, col = np.unravel_index(prior.argmax(), prior.shape)
        assert (row, col) == (2, 2)

    def test_parameter_validation(self):
        bank = PriorBank("c", np.eye(3)[None], np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="sigma"):
            pose_prior(np.eye(3), bank, 0, sigma=0.0)
        with pytest.raises(ValueError, match="keypoint id"):
            pose_prior(np.eye(3), bank, 5)

    @pytest.mark.parametrize("sigma", [1e-200, 1e-160, -2.0, math.nan])
    def test_sigma_without_a_finite_gaussian_refused(self, sigma):
        """At 1e-200, 2 sigma^2 rounds to 0; at 1e-160 the norm overflows and
        every cell would be NaN."""
        bank = PriorBank("c", np.eye(3)[None], np.full((1, 1, 2), 6.5))
        with pytest.raises(ValueError, match="^sigma must be positive with a finite Gaussian"):
            pose_prior(np.eye(3), bank, 0, sigma=sigma)

    def test_uniform_prior_sums_to_one(self):
        u = uniform_prior()
        assert u.shape == (12, 12)
        np.testing.assert_allclose(u.sum(), 1.0, atol=1e-12)
        assert np.all(u == u[0, 0])


class TestFuseAndDecode:
    def test_one_hot_likelihood_wins_under_uniform_prior(self):
        loglik = np.zeros((12, 12))
        loglik[7, 3] = 1.0
        assert fuse_and_decode(uniform_prior(), loglik) == (3.5, 7.5)

    def test_tie_takes_first_in_row_major_order(self):
        assert fuse_and_decode(uniform_prior(), np.zeros((12, 12))) == (0.5, 0.5)
        loglik = np.zeros((12, 12))
        loglik[4, 9] = 2.0
        loglik[6, 1] = 2.0
        assert fuse_and_decode(uniform_prior(), loglik) == (9.5, 4.5)

    def test_prior_shifts_decision(self):
        rng = np.random.default_rng(35)
        bank = PriorBank("c", np.eye(3)[None], np.array([[[2.5, 8.5]]]))
        prior = pose_prior(np.eye(3), bank, 0)
        loglik = rng.normal(scale=0.01, size=(12, 12))
        x, y = fuse_and_decode(prior, loglik)
        assert (x, y) == (2.5, 8.5)

    def test_floor_keeps_log_finite(self):
        prior = np.full((12, 12), PRIOR_FLOOR)
        loglik = np.zeros((12, 12))
        x, y = fuse_and_decode(prior, loglik)
        assert (x, y) == (0.5, 0.5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="12x12"):
            fuse_and_decode(np.ones((6, 6)), np.zeros((12, 12)))


def _mean_of_gaussians(means, sigma):
    """The mixture as a (m, 12, 12) stack averaged with mean(axis=0), the
    arithmetic that fused outputs were recorded with."""
    c = np.arange(12) + 0.5
    dx2 = (c[None, None, :] - means[:, 0][:, None, None]) ** 2
    dy2 = (c[None, :, None] - means[:, 1][:, None, None]) ** 2
    norm = 1.0 / (2.0 * math.pi * sigma * sigma)
    grid = norm * np.exp(-(dx2 + dy2) / (2.0 * sigma * sigma))
    return np.maximum(grid.mean(axis=0), PRIOR_FLOOR)


def _per_keypoint_reference(r, bank, fine, coarse, w_fine, w_coarse, sigma, threshold):
    """Priors and decoded cells, one keypoint at a time, as fusion ran
    before the per-instance engine."""
    neighbors = neighbor_set(r, bank, threshold)
    priors, cells = [], []
    for k in range(fine.shape[0]):
        try:
            prior = pose_prior(r, bank, k, sigma, threshold)
        except NoPriorSupportError:
            prior = uniform_prior()
        else:
            keep = neighbors[bank.present[neighbors, k]]
            assert np.array_equal(prior, _mean_of_gaussians(bank.keypoints[keep, k], sigma))
        combined = combine_scales(fine[k], coarse[k], w_fine, w_coarse)
        priors.append(prior)
        cells.append(fuse_and_decode(prior, combined))
    return np.array(priors), cells


def _stacked_priors(rs, bank, num_keypoints, sigma=PRIOR_SIGMA, threshold=NEIGHBOR_THRESHOLD,
                    chunk=None):
    """The (B, K, 12, 12) priors that fuse_instances decodes, summed over
    blocks of chunk viewpoints (all at once by default): each block's rows
    are the neighbor_set of each viewpoint, padded at its end with len(bank)."""
    chunk = chunk or len(rs)
    blocks = []
    for lo in range(0, len(rs), chunk):
        sets = [neighbor_set(r, bank, threshold) for r in rs[lo : lo + chunk]]
        rows = np.full((len(sets), max(map(len, sets))), len(bank))
        for row, neighbors in zip(rows, sets):
            row[: len(neighbors)] = neighbors
        blocks.append(rows)
    priors = np.empty((len(rs), num_keypoints, GRID_SIZE, GRID_SIZE))
    for k in range(num_keypoints):
        table, carried = fusion._table(bank, k, sigma)
        for j, rows in enumerate(blocks):
            priors[j * chunk : j * chunk + len(rows), k] = fusion._priors(table, carried, rows)[0]
    return priors


class TestFuseInstance:
    def _assert_matches_reference(
        self, r, bank, fine, coarse, w_fine=0.5, w_coarse=0.5, sigma=2.0,
        threshold=NEIGHBOR_THRESHOLD,
    ):
        ref_priors, ref_cells = _per_keypoint_reference(
            r, bank, fine, coarse, w_fine, w_coarse, sigma, threshold
        )
        priors = _stacked_priors(r[None], bank, fine.shape[0], sigma, threshold)[0]
        assert np.array_equal(priors, ref_priors)
        cells = fuse_instances(
            r[None], bank, fine[None], coarse[None], w_fine, w_coarse, sigma, threshold
        )[0]
        assert [tuple(c) for c in cells.tolist()] == ref_cells

    def test_equals_per_keypoint_reference(self):
        """Bitwise the same priors and cells as the per-keypoint path, on a
        synthetic scene and on banks that force both fallbacks."""
        scene = generate_scene(5, 90, noise_preset("moderate"), bank_size=1500)
        by_id = {inst.id: inst for inst in scene.instances}
        dets = {(d.image_id, d.bbox): d for d in scene.detections}
        for n, iid in enumerate(sorted(scene.response_maps)):
            inst = by_id[iid]
            vp = dets[(inst.image_id, inst.bbox)].viewpoint if n % 2 else inst.viewpoint
            maps = scene.response_maps[iid]
            weights = (0.5, 0.5) if n % 3 else (0.8, 0.3)
            self._assert_matches_reference(
                euler_to_rotation(vp), scene.prior_banks[inst.class_name],
                maps["fine"], maps["coarse"], *weights,
            )

        rng = np.random.default_rng(36)
        fine = rng.normal(size=(3, 12, 12)).astype(np.float32)
        coarse = rng.normal(size=(3, 6, 6)).astype(np.float32)
        kps = rng.uniform(0.0, 12.0 - 1e-6, size=(3, 3, 2))
        # nearest-entry fallback: no entry within the threshold of the query
        far = PriorBank(
            "c", np.stack([_rot_about_z(a) for a in (2.0, 1.0, 2.5)]), kps
        )
        assert neighbor_set(np.eye(3), far, 0.1).tolist() == [1]
        self._assert_matches_reference(np.eye(3), far, fine, coarse, threshold=0.1)
        # no-support fallback: keypoint 1 absent from every neighbor
        present = np.array([[True, False, True], [True, False, False], [False, False, True]])
        sparse = PriorBank(
            "c", np.stack([_rot_about_z(a) for a in (0.0, 0.1, 0.2)]), kps, present
        )
        with pytest.raises(NoPriorSupportError):
            pose_prior(np.eye(3), sparse, 1)
        self._assert_matches_reference(np.eye(3), sparse, fine, coarse, sigma=1.5)

    def test_rejects_more_channels_than_bank_keypoints(self):
        bank = PriorBank("c", np.eye(3)[None], np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="3 keypoints requested"):
            fuse_instances(
                np.eye(3)[None], bank, np.zeros((1, 3, 12, 12)), np.zeros((1, 3, 6, 6))
            )[0]

    def test_rejects_maps_for_another_number_of_instances(self):
        """Two viewpoints and a stack of one instance's maps, fine or coarse."""
        bank = PriorBank("c", np.eye(3)[None], np.zeros((1, 2, 2)))
        rs = np.stack([np.eye(3)] * 2)
        for n_fine, n_coarse in ((1, 2), (2, 1)):
            message = (
                rf"^fine and coarse maps of shapes \({n_fine}, 2, 12, 12\) and"
                rf" \({n_coarse}, 2, 6, 6\) for 2 viewpoints,"
                r" expected \(2, 2, 12, 12\) and \(2, 2, 6, 6\)$"
            )
            with pytest.raises(ValueError, match=message):
                fuse_instances(
                    rs, bank, np.zeros((n_fine, 2, 12, 12)), np.zeros((n_coarse, 2, 6, 6))
                )

    @pytest.mark.parametrize(
        "fine, coarse",
        [
            (np.zeros((1, 2, 12, 12)), np.zeros((1, 3, 6, 6))),
            (np.zeros((1, 3, 12, 12)), np.zeros((1, 2, 6, 6))),
            (np.zeros((3, 12, 12)), np.zeros((3, 6, 6))),
        ],
        ids=["fewer-fine", "fewer-coarse", "per-instance"],
    )
    def test_rejects_maps_with_other_channel_counts(self, fine, coarse):
        """The fine and coarse stacks carry the same number of channels, and
        one instance's (K, 12, 12) and (K, 6, 6) maps are not a stack; none
        is dropped or read out of range."""
        bank = PriorBank("c", np.eye(3)[None], np.zeros((1, 3, 2)))
        rs = np.stack([np.eye(3)] * len(fine))
        with pytest.raises(ValueError, match="^fine and coarse maps of shapes"):
            fuse_instances(rs, bank, fine, coarse)


class TestStackedEngine:
    """A stack of instances, fused whole or in chunks of any size, gives
    bitwise the priors and cells of the per-keypoint reference."""

    @staticmethod
    def _mixed_stack():
        rng = np.random.default_rng(37)
        angles = (0.0, 0.05, 0.1, 1.5, 1.55, 3.0)
        kps = rng.uniform(0.0, 12.0 - 1e-6, size=(len(angles), 4, 2))
        present = np.ones((len(angles), 4), dtype=bool)
        present[:3, 2] = False  # no support for keypoint 2 near azimuth 0
        present[5, 1] = False  # nor for keypoint 1 at the lone entry near pi
        bank = PriorBank("c", np.stack([_rot_about_z(a) for a in angles]), kps, present)
        # 2.2 and -2.0 have no entry within the threshold: nearest-only rows
        queries = (0.02, 2.2, 1.52, 0.07, -2.0, 1.6, 0.3)
        rs = np.stack([_rot_about_z(a) for a in queries])
        fine = rng.normal(size=(len(queries), 4, 12, 12)).astype(np.float32)
        coarse = rng.normal(size=(len(queries), 4, 6, 6)).astype(np.float32)
        return bank, rs, fine, coarse

    @staticmethod
    def _references(bank, rs, fine, coarse, weights):
        return [
            _per_keypoint_reference(r, bank, f, c, *weights, PRIOR_SIGMA, NEIGHBOR_THRESHOLD)
            for r, f, c in zip(rs, fine, coarse)
        ]

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.8, 0.3)])
    def test_chunks_equal_per_instance_reference(self, weights):
        bank, rs, fine, coarse = self._mixed_stack()
        refs = self._references(bank, rs, fine, coarse, weights)
        sizes = [neighbor_set(r, bank).size for r in rs]
        assert sizes == [3, 1, 2, 3, 1, 2, 3]
        for b in (1, 4):  # the lone neighbour is a fallback, not within the threshold
            assert geodesic_distance(rs[b], bank.rotations[neighbor_set(rs[b], bank)[0]]) >= (
                NEIGHBOR_THRESHOLD
            )
        uniform = [
            (b, k) for b, (p, _) in enumerate(refs) for k in range(4)
            if np.array_equal(p[k], uniform_prior())
        ]
        assert uniform == [(0, 2), (3, 2), (4, 1), (6, 2)]
        # chunks of 3 mix all three kinds of row and end in a chunk of one
        for chunk in (1, 3, 4, len(rs)):
            for lo in range(0, len(rs), chunk):
                hi = min(lo + chunk, len(rs))
                priors = _stacked_priors(rs[lo:hi], bank, 4)
                cells = fuse_instances(rs[lo:hi], bank, fine[lo:hi], coarse[lo:hi], *weights)
                assert priors.shape == (hi - lo, 4, 12, 12) and cells.shape == (hi - lo, 4, 2)
                for b in range(lo, hi):
                    assert np.array_equal(priors[b - lo], refs[b][0])
                    assert [tuple(c) for c in cells[b - lo].tolist()] == refs[b][1]

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.8, 0.3)])
    def test_whole_class_from_per_instance_maps(self, monkeypatch, weights):
        """One call over the whole class stack, each row one instance's
        maps, fused in blocks of 3, 3 and 1 instances."""
        bank, rs, fine, coarse = self._mixed_stack()
        refs = self._references(bank, rs, fine, coarse, weights)
        monkeypatch.setattr(fusion, "FUSE_CHUNK", 3)
        assert len(rs) % fusion.FUSE_CHUNK == 1
        priors = _stacked_priors(rs, bank, 4, chunk=3)
        cells = fuse_instances(rs, bank, fine, coarse, *weights)
        assert cells.shape == (len(rs), 4, 2)
        for b, (ref_priors, ref_cells) in enumerate(refs):
            assert np.array_equal(priors[b], ref_priors)
            assert [tuple(c) for c in cells[b].tolist()] == ref_cells

    @staticmethod
    def _populated_class():
        """One class whose queries mix nearest-entry fallbacks, keypoints that
        no neighbour carries and sets of 20 or more neighbours."""
        rng = np.random.default_rng(39)
        angles = [0.015 * i for i in range(30)] + [1.5, 1.55, 3.0]
        kps = rng.uniform(0.0, 12.0 - 1e-6, size=(len(angles), 4, 2))
        present = rng.random((len(angles), 4)) > 0.2
        present[30:32, 1] = False  # no support for keypoint 1 near azimuth 1.5
        present[32, 2] = False  # nor for keypoint 2 at the lone entry near pi
        bank = PriorBank("c", np.stack([_rot_about_z(a) for a in angles]), kps, present)
        # 2.2 and -2.0 have no entry within the threshold: nearest-only rows
        queries = (0.2, 2.2, 1.52, -0.25, 0.1, -2.0, 1.0, 0.3, 1.6, 2.9, 0.45, 0.05, 1.53)
        rs = np.stack([_rot_about_z(a) for a in queries])
        fine = rng.normal(size=(len(queries), 4, 12, 12)).astype(np.float32)
        coarse = rng.normal(size=(len(queries), 4, 6, 6)).astype(np.float32)
        return bank, rs, fine, coarse

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("chunk", [1, 3, FUSE_CHUNK])
    def test_sorted_blocks_equal_per_keypoint_reference(self, monkeypatch, chunk, shuffled):
        """Blocks cut from the queries sorted by neighbour count, largest
        first and stable, give bitwise the reference priors and cells, in
        one combine_scales call per block and keypoint."""
        bank, rs, fine, coarse = self._populated_class()
        if shuffled:
            perm = np.random.default_rng(40).permutation(len(rs))
            rs, fine, coarse = rs[perm], fine[perm], coarse[perm]
        refs = self._references(bank, rs, fine, coarse, (0.5, 0.5))
        sizes = [neighbor_set(r, bank).size for r in rs]
        assert max(sizes) >= 20 and sizes.count(30) >= 3 and min(sizes) == 1
        fallbacks = [
            b for b, r in enumerate(rs)
            if geodesic_distance(r, bank.rotations[neighbor_set(r, bank)[0]]) >= NEIGHBOR_THRESHOLD
        ]
        assert len(fallbacks) == 2
        uniform = {
            (b, k) for b, (p, _) in enumerate(refs) for k in range(4)
            if np.array_equal(p[k], uniform_prior())
        }
        assert len(uniform) >= 5 and {b for b, _ in uniform} & set(fallbacks)

        blocks, priors, combines = [], [], []
        sort, prior, combine = fusion._sorted_blocks, fusion._priors, fusion.combine_scales

        def sorted_blocks(*args):
            blocks.extend(sort(*args))
            return blocks

        def kept(*args):
            p, count = prior(*args)
            priors.append(p.copy())  # _decode overwrites the priors it is given
            return p, count

        def counted(*args):
            combines.append(len(args[0]))
            return combine(*args)

        monkeypatch.setattr(fusion, "FUSE_CHUNK", chunk)
        monkeypatch.setattr(fusion, "_sorted_blocks", sorted_blocks)
        monkeypatch.setattr(fusion, "_priors", kept)
        monkeypatch.setattr(fusion, "combine_scales", counted)
        cells = fuse_instances(rs, bank, fine, coarse)
        order = np.concatenate([q for q, _ in blocks]).tolist()
        assert order == sorted(range(len(rs)), key=lambda b: -sizes[b])
        assert len(combines) == math.ceil(len(rs) / chunk) * 4 == len(priors)
        stacked = np.empty((len(rs), 4, GRID_SIZE, GRID_SIZE))
        for i, p in enumerate(priors):
            stacked[blocks[i % len(blocks)][0], i // len(blocks)] = p
        for b, (ref_priors, ref_cells) in enumerate(refs):
            assert np.array_equal(stacked[b], ref_priors)
            assert [tuple(c) for c in cells[b].tolist()] == ref_cells

    @pytest.mark.parametrize("chunk", [1, 3, 8, 32, FUSE_CHUNK])
    def test_fuse_predictions_equals_one_instance_at_a_time(self, monkeypatch, chunk):
        scene = generate_scene(1, 40, noise_preset("moderate"), bank_size=300)
        viewpoints = cli.match_by_box(scene.instances, scene.detections)
        by_id = {inst.id: inst for inst in scene.instances}
        expected = {}
        for iid in sorted(scene.response_maps):
            inst = by_id[iid]
            maps = scene.response_maps[iid]
            r = euler_to_rotation(viewpoints[iid].viewpoint)
            bank = scene.prior_banks[inst.class_name]
            cells = fuse_instances(
                r[None], bank, maps["fine"][None], maps["coarse"][None], 0.8, 0.3
            )[0]
            expected[iid] = {
                k: denormalize_keypoint(inst.bbox, (x, y))
                for k, (x, y) in enumerate(cells.tolist())
            }
        per_class = Counter(inst.class_name for inst in scene.instances)
        # chunks of 3 split every class, and one class ends in a chunk of one
        assert len(per_class) == 3 and min(per_class.values()) > 3
        assert any(n % 3 == 1 for n in per_class.values())
        monkeypatch.setattr(fusion, "FUSE_CHUNK", chunk)
        fused = cli.fuse_predictions(scene, viewpoints, 0.8, 0.3)
        assert fused == expected
        assert list(fused) == sorted(expected)


class TestPriorTables:
    """Each bank entry's grid of a keypoint is evaluated once per fuse, and
    only one keypoint's grids are held at a time."""

    def test_fuse_builds_one_table_per_keypoint_of_a_class(self, monkeypatch):
        """One table per (class, keypoint), whatever the number of blocks,
        each over the whole bank plus the zero padding row."""
        scene = generate_scene(3, 60, noise_preset("moderate"), bank_size=40)
        viewpoints = cli.match_by_box(scene.instances, scene.detections)
        built = Counter()
        table = fusion._table

        def counted(bank, k, sigma):
            built[bank.class_name, k] += 1
            grids, carried = table(bank, k, sigma)
            assert grids.shape == (len(bank) + 1, GRID_SIZE * GRID_SIZE)
            assert carried.shape == (len(bank) + 1,)
            assert not grids[-1].any() and not carried[-1]
            return grids, carried

        monkeypatch.setattr(fusion, "_table", counted)
        monkeypatch.setattr(fusion, "FUSE_CHUNK", 3)  # many blocks per class
        cli.fuse_predictions(scene, viewpoints)
        classes = {inst.class_name for inst in scene.instances}
        assert len(classes) == 3
        assert built == Counter(
            {(cls, k): 1 for cls in classes for k in range(scene.prior_banks[cls].num_keypoints)}
        )

    def test_previous_table_is_freed_before_the_next_is_built(self, monkeypatch):
        """Within a class and across classes, no two tables are alive at once."""
        scene = generate_scene(3, 30, noise_preset("moderate"), bank_size=20)
        viewpoints = cli.match_by_box(scene.instances, scene.detections)
        table = fusion._table
        last = []  # a weak reference to the table built last
        alive = []  # whether it was still alive when the next was asked for

        def watched(bank, k, sigma):
            if last:
                alive.append(last[-1]() is not None)
            grids, carried = table(bank, k, sigma)
            last.append(weakref.ref(grids))
            return grids, carried

        monkeypatch.setattr(fusion, "_table", watched)
        cli.fuse_predictions(scene, viewpoints)
        keypoints = sum(bank.num_keypoints for bank in scene.prior_banks.values())
        assert len(last) == keypoints and alive == [False] * (keypoints - 1)

    def test_fusing_a_class_stays_below_4_mb(self):
        """A 1,000-entry bank with K = 8 and 1,300 instances: one keypoint's
        table is 1.15 MB, where a whole-class table would be 9.2 MB. The
        maps come as the class stacks that fuse reads, so the engine copies
        none of them."""
        rng = np.random.default_rng(38)
        bank = _random_bank(rng, n=1000, k=8, with_absent=True)
        rs = _random_bank(rng, n=1300, k=1).rotations
        fine = rng.normal(size=(1300, 8, 12, 12)).astype(np.float32)
        coarse = rng.normal(size=(1300, 8, 6, 6)).astype(np.float32)
        tracemalloc.start()
        try:
            cells = fuse_instances(rs, bank, fine, coarse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells.shape == (1300, 8, 2)
        assert peak < 4 * 2**20


class TestValidation:
    def test_response_grid_sizes(self, tmp_path):
        # Fine maps are 12x12 and coarse maps 6x6, singly or stacked; other
        # sizes are refused by fusion, and non-finite maps by VKRM I/O.
        assert combine_scales(np.zeros((12, 12)), np.zeros((6, 6))).shape == (12, 12)
        assert combine_scales(np.zeros((3, 12, 12)), np.zeros((3, 6, 6))).shape == (
            3,
            12,
            12,
        )
        with pytest.raises(ValueError, match="6x6"):
            upsample_coarse(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="12x12"):
            combine_scales(np.zeros((8, 8)), np.zeros((6, 6)))
        with pytest.raises(ValidationError, match="non-finite"):
            write_response_map(tmp_path / "a.vkrm", np.full((1, 6, 6), math.inf), 0)
        path = tmp_path / "b.vkrm"
        write_response_map(path, np.zeros((1, 6, 6)), 0)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([math.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match="non-finite"):
            read_response_map(path)

    def test_prior_bank_validation(self):
        with pytest.raises(ValueError, match="rotations"):
            PriorBank("c", np.zeros((2, 2, 2)), np.zeros((2, 1, 2)))
        with pytest.raises(ValueError, match="keypoints"):
            PriorBank("c", np.zeros((2, 3, 3)), np.zeros((3, 1, 2)))
        with pytest.raises(ValueError, match="present"):
            PriorBank("c", np.eye(3)[None], np.zeros((1, 2, 2)), np.ones((2, 2), bool))
        with pytest.raises(ValueError, match=r"\[0, 12\)"):
            PriorBank("c", np.eye(3)[None], np.array([[[12.0, 3.0]]]))

    def test_absent_coordinates_are_not_validated(self):
        bank = PriorBank(
            "c", np.eye(3)[None], np.array([[[99.0, -4.0]]]), np.zeros((1, 1), bool)
        )
        assert len(bank) == 1
