"""Tests for rotation conversions and distances.

The geodesic distance is checked against an independent quaternion-based
oracle: both rotations are converted to unit quaternions and the angle is
read off the inner product, with no shared code between the two paths.
"""

import dataclasses
import math

import numpy as np
import pytest

from posekit.metrics import Keypoint, KeypointHypothesis
from posekit.so3 import (
    GIMBAL_BAND,
    TWO_PI,
    EulerAngles,
    RotationError,
    azimuth_distance,
    check_rotations,
    euler_to_rotation,
    euler_to_rotations,
    geodesic_distance,
    geodesic_distances,
    pi_flip,
    rotation_matrix,
    rotation_to_euler,
    wrap_angle,
    wrap_signed,
    z_reflect_azimuth,
)


def _quat_to_matrix(q):
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _random_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def _quat_angle(q1, q2):
    """Relative rotation angle between two unit quaternions."""
    return 2.0 * math.acos(min(1.0, abs(float(np.dot(q1, q2)))))


def _zyx_matrix(az, el, cy):
    """ZYX intrinsic rotation built from scratch, no wrapping or folding."""
    cz, sz = math.cos(az), math.sin(az)
    ce, se = math.cos(el), math.sin(el)
    cx, sx = math.cos(cy), math.sin(cy)
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[ce, 0.0, se], [0.0, 1.0, 0.0], [-se, 0.0, ce]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    return rz @ ry @ rx


class TestWrapping:
    def test_wrap_angle_range(self):
        rng = np.random.default_rng(0)
        for a in rng.uniform(-50.0, 50.0, size=2000):
            w = wrap_angle(float(a))
            assert 0.0 <= w < TWO_PI

    def test_wrap_angle_identity_in_range(self):
        """Values already in [0, 2*pi) pass through bit-exactly."""
        rng = np.random.default_rng(1)
        for a in rng.uniform(0.0, TWO_PI, size=2000):
            assert wrap_angle(float(a)) == float(a)

    def test_wrap_angle_tiny_negative(self):
        # float modulo of a tiny negative can land on the modulus itself
        w = wrap_angle(-1e-19)
        assert 0.0 <= w < TWO_PI

    def test_wrap_angle_known(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(TWO_PI) == 0.0
        np.testing.assert_allclose(wrap_angle(-math.pi / 2), 3 * math.pi / 2, atol=1e-12)
        np.testing.assert_allclose(wrap_angle(5 * math.pi), math.pi, atol=1e-12)

    def test_wrap_signed_range(self):
        rng = np.random.default_rng(2)
        for a in rng.uniform(-50.0, 50.0, size=2000):
            w = wrap_signed(float(a))
            assert -math.pi <= w < math.pi

    def test_wrap_signed_known(self):
        assert wrap_signed(0.0) == 0.0
        np.testing.assert_allclose(wrap_signed(3 * math.pi / 2), -math.pi / 2, atol=1e-12)
        assert wrap_signed(math.pi) == -math.pi


class TestEulerAngles:
    def test_in_range_passthrough_is_bit_exact(self):
        """Normalizing an already-normalized triple must not perturb it."""
        rng = np.random.default_rng(3)
        for _ in range(500):
            az = float(rng.uniform(0.0, TWO_PI))
            el = float(rng.uniform(-math.pi / 2, math.pi / 2))
            cy = float(rng.uniform(-math.pi, math.pi))
            e = EulerAngles(az, el, cy)
            assert (e.azimuth, e.elevation, e.cyclorotation) == (az, el, cy)
            assert EulerAngles(e.azimuth, e.elevation, e.cyclorotation) == e

    def test_azimuth_wraps(self):
        e = EulerAngles(TWO_PI + 0.5, 0.0, 0.0)
        np.testing.assert_allclose(e.azimuth, 0.5, atol=1e-12)
        e = EulerAngles(-0.5, 0.0, 0.0)
        np.testing.assert_allclose(e.azimuth, TWO_PI - 0.5, atol=1e-12)

    def test_cyclorotation_wraps(self):
        e = EulerAngles(0.0, 0.0, math.pi)
        assert e.cyclorotation == -math.pi

    def test_elevation_fold_preserves_rotation(self):
        """An out-of-range elevation folds to an equivalent triple."""
        rng = np.random.default_rng(4)
        for _ in range(200):
            az = float(rng.uniform(0.0, TWO_PI))
            el = float(rng.uniform(math.pi / 2 + 0.01, math.pi))
            cy = float(rng.uniform(-math.pi, math.pi))
            folded = EulerAngles(az, el, cy)
            assert -math.pi / 2 <= folded.elevation <= math.pi / 2
            np.testing.assert_allclose(
                euler_to_rotation(folded), _zyx_matrix(az, el, cy), atol=1e-12
            )

    def test_fold_identity_examples(self):
        e = EulerAngles(0.0, 2.0, 0.0)
        np.testing.assert_allclose(e.azimuth, math.pi, atol=1e-12)
        np.testing.assert_allclose(e.elevation, math.pi - 2.0, atol=1e-12)
        np.testing.assert_allclose(e.cyclorotation, -math.pi + 0.0, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            EulerAngles(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            EulerAngles(0.0, math.inf, 0.0)

    def test_frozen(self):
        """EulerAngles and the two keypoint records are frozen and slotted
        (no per-record __dict__); equality, hashing, replace and astuple
        work as on any frozen dataclass."""
        records = (
            EulerAngles(1.0, 0.5, -0.5),
            Keypoint(10.0, 20.0, visible=False),
            KeypointHypothesis(10.0, 20.0, 0.5),
        )
        for record in records:
            first = dataclasses.fields(record)[0].name
            assert not hasattr(record, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, first, 2.0)
            same = dataclasses.replace(record)
            assert same == record and same is not record and hash(same) == hash(record)
            moved = dataclasses.replace(record, **{first: 2.0})
            assert moved != record and getattr(moved, first) == 2.0
            assert dataclasses.astuple(moved)[1:] == dataclasses.astuple(record)[1:]
            assert type(record)(*dataclasses.astuple(record)) == record
            assert len({record, same, moved}) == 2

    def test_replace_runs_the_init(self):
        """dataclasses.replace builds through the hand-written __init__: a
        replaced elevation folds as a constructed one does, and a replaced
        keypoint coordinate or hypothesis score is checked."""
        e = EulerAngles(1.0, 0.5, -0.5)
        moved = dataclasses.replace(e, elevation=2.0)
        assert moved == EulerAngles(1.0, 2.0, -0.5)
        assert (moved.azimuth, moved.elevation) == pytest.approx((1.0 + math.pi, math.pi - 2.0))
        wrapped = EulerAngles(azimuth=-1.0, elevation=0.0, cyclorotation=0.0)
        assert dataclasses.replace(wrapped) == wrapped == EulerAngles(TWO_PI - 1.0, 0.0, 0.0)
        kp = Keypoint(1.0, 2.0)
        assert kp.visible is True
        assert dataclasses.replace(kp, visible=False) == Keypoint(1.0, 2.0, False)
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(kp, x=math.inf)
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(kp, y=math.nan)
        hyp = KeypointHypothesis(1.0, 2.0, 0.5)
        assert dataclasses.replace(hyp, score=-1.0) == KeypointHypothesis(1.0, 2.0, -1.0)
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(hyp, score=math.inf)
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(hyp, x=math.inf)


class TestRotationMatrix:
    def test_accepts_valid(self):
        r = rotation_matrix(np.eye(3))
        assert not r.flags.writeable
        np.testing.assert_array_equal(r, np.eye(3))

    def test_rejects_non_orthonormal(self):
        m = np.eye(3)
        m[0, 0] = 1.1
        with pytest.raises(ValueError, match="orthonormal"):
            rotation_matrix(m)

    def test_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            rotation_matrix(m)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            rotation_matrix(np.eye(4))

    def test_rejects_non_finite(self):
        m = np.eye(3)
        m[1, 1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            rotation_matrix(m)


class TestCheckRotations:
    """The stacked check: the earliest bad matrix, with rotation_matrix's message."""

    @staticmethod
    def _stack(n, seed):
        rng = np.random.default_rng(seed)
        return np.stack([
            euler_to_rotation(EulerAngles(*rng.uniform(-3.0, 3.0, size=3))) for _ in range(n)
        ])

    def test_accepts_rotations_and_the_empty_stack(self):
        check_rotations(self._stack(50, 1))
        check_rotations(np.empty((0, 3, 3)))

    @pytest.mark.parametrize("a, b", [(0, 3), (2, 4), (4, 0)])
    def test_names_the_earliest_bad_matrix(self, a, b):
        skewed = np.eye(3)
        skewed[0, 1] = 0.1
        non_finite = np.eye(3)
        non_finite[2, 2] = math.inf
        deviation = np.abs(skewed.T @ skewed - np.eye(3)).max()
        bad = {  # each defect with the message rotation_matrix has always given
            "skewed": (skewed, f"matrix is not orthonormal (max deviation {deviation:.3e})"),
            "reflection": (
                np.diag([1.0, 1.0, -1.0]),
                "matrix determinant is -1.000000000000, expected 1",
            ),
            "non-finite": (non_finite, "rotation matrix has non-finite entries"),
        }
        for m_a, message_a in bad.values():
            for m_b, message_b in bad.values():
                rs = self._stack(5, 2)
                rs[a] = m_a
                rs[b] = m_b
                with pytest.raises(RotationError) as exc:
                    check_rotations(rs)
                assert exc.value.index == min(a, b)
                assert str(exc.value) == (message_a if a < b else message_b)

    def test_is_the_check_behind_rotation_matrix(self):
        with pytest.raises(RotationError) as exc:
            rotation_matrix(np.diag([1.0, -1.0, 1.0]))
        assert exc.value.index == 0


class TestEulerMatrixConversion:
    def test_known_quarter_turn(self):
        r = euler_to_rotation(EulerAngles(math.pi / 2, 0.0, 0.0))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(r, expected, atol=1e-15)

    def test_stacked_rows_are_the_one_triple_product_bitwise(self):
        """Row i of euler_to_rotations is bitwise euler_to_rotation of triple
        i and the from-scratch product of its normalized angles, on
        folded-elevation, gimbal-band and random triples."""
        rng = np.random.default_rng(17)
        triples = [tuple(rng.uniform(-7.0, 7.0, size=3)) for _ in range(300)]
        for az, el, cy in rng.uniform(-3.0, 3.0, size=(50, 3)):
            triples.append((az, math.copysign(math.pi / 2 + abs(el) / 2, el), cy))
            for d in (0.0, GIMBAL_BAND / 10, GIMBAL_BAND, 2 * GIMBAL_BAND):
                triples.append((az, math.copysign(math.pi / 2 - d, el), cy))
        es = [EulerAngles(*map(float, t)) for t in triples]
        rs = euler_to_rotations(es)
        assert rs.shape == (len(es), 3, 3)
        for e, r in zip(es, rs):
            assert np.array_equal(r, euler_to_rotation(e))
            assert np.array_equal(r, _zyx_matrix(e.azimuth, e.elevation, e.cyclorotation))
        assert euler_to_rotations([]).shape == (0, 3, 3)

    def test_stack_is_the_gathered_tuple_form_bitwise(self):
        """The plane stacks filled by assignment give the bytes, signed
        zeros included, of gathering one (0, 1, cos, sin, -sin) tuple per
        angle, on random triples and on every triple of +-0, +-pi/2 and pi."""
        planes = np.array(
            [
                [2, 4, 0, 3, 2, 0, 0, 0, 1],
                [2, 0, 3, 0, 1, 0, 4, 0, 2],
                [1, 0, 0, 0, 2, 4, 0, 3, 2],
            ]
        ) + [[0], [5], [10]]

        def gathered(angles):
            entries = np.array(
                [
                    (0.0, 1.0, math.cos(a), math.sin(a), -math.sin(a))
                    for e in angles
                    for a in (e.azimuth, e.elevation, e.cyclorotation)
                ]
            ).reshape(-1, 15)
            rz, ry, rx = entries[:, planes].reshape(-1, 3, 3, 3).transpose(1, 0, 2, 3)
            return rz @ ry @ rx

        rng = np.random.default_rng(23)
        special = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi)
        es = [EulerAngles(*map(float, t)) for t in rng.uniform(-7.0, 7.0, size=(500, 3))]
        es += [EulerAngles(a, b, c) for a in special for b in special for c in special]
        assert any(math.copysign(1.0, e.azimuth) < 0 for e in es)
        got, expected = euler_to_rotations(es), gathered(es)
        assert got.tobytes() == expected.tobytes()
        assert np.signbit(got).any()

    def test_identity(self):
        e = rotation_to_euler(np.eye(3))
        assert (e.azimuth, e.elevation, e.cyclorotation) == (0.0, 0.0, 0.0)

    def test_roundtrip_matrices(self):
        """euler -> matrix -> euler -> matrix reproduces the matrix."""
        rng = np.random.default_rng(5)
        for _ in range(2000):
            az = float(rng.uniform(0.0, TWO_PI))
            el = float(rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01))
            cy = float(rng.uniform(-math.pi, math.pi))
            r = euler_to_rotation(EulerAngles(az, el, cy))
            back = euler_to_rotation(rotation_to_euler(r))
            np.testing.assert_allclose(back, r, atol=1e-12)

    def test_roundtrip_angles_away_from_gimbal(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            az = float(rng.uniform(0.0, TWO_PI))
            el = float(rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01))
            cy = float(rng.uniform(-math.pi, math.pi))
            e = rotation_to_euler(euler_to_rotation(EulerAngles(az, el, cy)))
            assert azimuth_distance(e.azimuth, az) < 1e-9
            assert abs(e.elevation - el) < 1e-9
            assert azimuth_distance(e.cyclorotation, cy) < 1e-9

    def test_gimbal_lock_recovers_rotation(self):
        """At elevation +-pi/2 the split is degenerate; cyclorotation
        is pinned to zero but the decoded matrix must still match."""
        for el in (math.pi / 2, -math.pi / 2):
            for az, cy in [(0.3, 1.1), (5.0, -2.0), (0.0, 0.0)]:
                r = euler_to_rotation(EulerAngles(az, el, cy))
                e = rotation_to_euler(r)
                assert e.cyclorotation == 0.0
                np.testing.assert_allclose(euler_to_rotation(e), r, atol=1e-9)

    def test_near_gimbal_band(self):
        """Inside the degenerate band the cyclorotation folds into the
        azimuth; the matrix error is bounded by the distance to the pole."""
        delta = GIMBAL_BAND / 10
        el = math.pi / 2 - delta
        for cy in (0.5, -2.0, 3.0):
            r = euler_to_rotation(EulerAngles(1.0, el, cy))
            e = rotation_to_euler(r)
            assert e.cyclorotation == 0.0
            assert np.abs(euler_to_rotation(e) - r).max() < 10 * delta


class TestGeodesicDistance:
    def test_identity_is_exact_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            r = _quat_to_matrix(_random_quat(rng))
            assert geodesic_distance(r, r) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            r1 = _quat_to_matrix(_random_quat(rng))
            r2 = _quat_to_matrix(_random_quat(rng))
            assert geodesic_distance(r1, r2) == geodesic_distance(r2, r1)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            a = _quat_to_matrix(_random_quat(rng))
            b = _quat_to_matrix(_random_quat(rng))
            c = _quat_to_matrix(_random_quat(rng))
            dab = geodesic_distance(a, b)
            dbc = geodesic_distance(b, c)
            dac = geodesic_distance(a, c)
            assert dac <= dab + dbc + 1e-12

    def test_range(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            r1 = _quat_to_matrix(_random_quat(rng))
            r2 = _quat_to_matrix(_random_quat(rng))
            d = geodesic_distance(r1, r2)
            assert 0.0 <= d <= math.pi

    def test_matches_quaternion_oracle(self):
        """Trace formula agrees with the quaternion inner-product angle."""
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(2000):
            q1, q2 = _random_quat(rng), _random_quat(rng)
            d = geodesic_distance(_quat_to_matrix(q1), _quat_to_matrix(q2))
            worst = max(worst, abs(d - _quat_angle(q1, q2)))
        assert worst < 1e-9

    def test_known_z_rotations(self):
        for theta in (0.1, math.pi / 6, 1.0, 2.5):
            r = euler_to_rotation(EulerAngles(theta, 0.0, 0.0))
            np.testing.assert_allclose(
                geodesic_distance(np.eye(3), r), theta, atol=1e-12
            )

    def test_half_turn_is_pi(self):
        r = euler_to_rotation(EulerAngles(math.pi, 0.0, 0.0))
        np.testing.assert_allclose(geodesic_distance(np.eye(3), r), math.pi, atol=1e-9)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(12)
        r = _quat_to_matrix(_random_quat(rng))
        rs = np.stack([_quat_to_matrix(_random_quat(rng)) for _ in range(50)])
        ds = geodesic_distances(r, rs)
        for i in range(50):
            assert ds[i] == geodesic_distance(r, rs[i])


    def test_stacked_queries_equal_one_query_at_a_time_bitwise(self):
        """Each entry of a broadcast (B, 1) x (n,) query, and of B pairs, is
        bitwise the one-pair arithmetic, einsum "ij,ij->" then arccos."""
        rng = np.random.default_rng(13)
        qs = np.stack([_quat_to_matrix(_random_quat(rng)) for _ in range(9)])
        rs = np.stack([_quat_to_matrix(_random_quat(rng)) for _ in range(300)])

        def one(q, r):
            return np.arccos(np.clip((np.einsum("ij,ij->", q, r) - 1.0) / 2.0, -1.0, 1.0))

        ds = geodesic_distances(qs[:, None], rs)
        assert ds.shape == (9, 300)
        for q, row in zip(qs, ds):
            assert np.array_equal(row, [one(q, r) for r in rs])
            assert np.array_equal(geodesic_distances(q, rs), row)
        pairwise = geodesic_distances(qs, rs[:9])
        assert pairwise.shape == (9,)
        assert np.array_equal(pairwise, [one(q, r) for q, r in zip(qs, rs)])


class TestAzimuthDistance:
    def test_known_pair(self):
        np.testing.assert_allclose(
            azimuth_distance(1.0, 4.5), TWO_PI - 3.5, atol=1e-12
        )

    def test_wraps_shorter_way(self):
        np.testing.assert_allclose(azimuth_distance(0.1, TWO_PI - 0.1), 0.2, atol=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            a, b = rng.uniform(-10, 10, size=2)
            d = azimuth_distance(float(a), float(b))
            assert d == azimuth_distance(float(b), float(a))
            assert 0.0 <= d <= math.pi + 1e-15

    def test_equals_geodesic_for_pure_azimuth(self):
        """With elevation and cyclorotation shared, the rotation angle
        reduces to the circular azimuth distance."""
        rng = np.random.default_rng(14)
        for _ in range(300):
            a1, a2 = rng.uniform(0, TWO_PI, size=2)
            el = float(rng.uniform(-1.0, 1.0))
            cy = float(rng.uniform(-2.0, 2.0))
            r1 = euler_to_rotation(EulerAngles(float(a1), el, cy))
            r2 = euler_to_rotation(EulerAngles(float(a2), el, cy))
            np.testing.assert_allclose(
                geodesic_distance(r1, r2),
                azimuth_distance(float(a1), float(a2)),
                atol=1e-9,
            )


class TestSymmetryHelpers:
    def test_pi_flip_shifts_azimuth(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            e = EulerAngles(
                float(rng.uniform(0, TWO_PI)),
                float(rng.uniform(-1.2, 1.2)),
                float(rng.uniform(-3.0, 3.0)),
            )
            flipped = rotation_to_euler(pi_flip(euler_to_rotation(e)))
            assert azimuth_distance(flipped.azimuth, e.azimuth + math.pi) < 1e-9
            np.testing.assert_allclose(flipped.elevation, e.elevation, atol=1e-9)

    def test_pi_flip_is_half_turn_away(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            r = _quat_to_matrix(_random_quat(rng))
            np.testing.assert_allclose(
                geodesic_distance(r, pi_flip(r)), math.pi, atol=1e-9
            )

    def test_z_reflect_azimuth(self):
        np.testing.assert_allclose(z_reflect_azimuth(1.0), TWO_PI - 1.0, atol=1e-12)
        assert z_reflect_azimuth(0.0) == 0.0
        np.testing.assert_allclose(z_reflect_azimuth(-0.5), 0.5, atol=1e-12)
