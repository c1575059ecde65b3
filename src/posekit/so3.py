"""Rotation representations, conversions, and distances on SO(3).

A viewpoint is either a (azimuth, elevation, cyclorotation) euler triple or
a 3x3 rotation matrix. The euler convention is ZYX intrinsic throughout:

    R = Rz(azimuth) @ Ry(elevation) @ Rx(cyclorotation)

Canonical ranges: azimuth in [0, 2*pi), elevation in [-pi/2, pi/2],
cyclorotation in [-pi, pi). Everything here is a pure function on immutable
values; rotation matrices are plain float64 numpy arrays.

There is one rotation builder, euler_to_rotations, and one distance rule,
geodesic_distances, which broadcasts over stacks, takes np.arccos, and
returns exactly 0 for identical matrices; euler_to_rotation and
geodesic_distance are their one-row views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Tolerances for the rotation-matrix invariants and the gimbal-lock band.
ORTHONORMAL_TOL = 1e-9
GIMBAL_BAND = 1e-6


def wrap_angle(a: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    w = float(a) % TWO_PI
    # modulo of a tiny negative value can round up to the modulus itself
    return 0.0 if w == TWO_PI else w


def wrap_signed(a: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return wrap_angle(float(a) + math.pi) - math.pi


@dataclass(frozen=True, slots=True, init=False)
class EulerAngles:
    """A viewpoint as ZYX euler angles, normalized on construction.

    Azimuth wraps to [0, 2*pi) and cyclorotation to [-pi, pi). An elevation
    outside [-pi/2, pi/2] is folded through the equivalent euler triple
    (azimuth+pi, pi-elevation, cyclorotation+pi), which represents the same
    rotation, so any finite triple normalizes without changing the viewpoint.
    """

    azimuth: float
    elevation: float
    cyclorotation: float

    def __init__(self, azimuth: float, elevation: float, cyclorotation: float) -> None:
        az, el, cy = float(azimuth), float(elevation), float(cyclorotation)
        if not (math.isfinite(az) and math.isfinite(el) and math.isfinite(cy)):
            raise ValueError("euler angles must be finite")
        # In-range values pass through untouched so that re-normalizing an
        # already normalized triple is bit-exact (wrapping is not).
        if not -math.pi / 2 <= el <= math.pi / 2:
            el = wrap_signed(el)
            if el == -math.pi:  # sign artifact of wrapping; pi and -pi coincide
                el = math.pi
            if abs(el) > math.pi / 2:
                az += math.pi
                cy += math.pi
                el = math.copysign(math.pi, el) - el
        if not 0.0 <= az < TWO_PI:
            az = wrap_angle(az)
        if not -math.pi <= cy < math.pi:
            cy = wrap_signed(cy)
        object.__setattr__(self, "azimuth", az)
        object.__setattr__(self, "elevation", el)
        object.__setattr__(self, "cyclorotation", cy)


class RotationError(ValueError):
    """A matrix of a stack is not a rotation; index is its place in the stack."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


def check_rotations(rs: np.ndarray) -> None:
    """Check that every matrix of an (n, 3, 3) float64 stack is a rotation.

    A rotation is finite, orthonormal (max |R^T R - I| <= ORTHONORMAL_TOL)
    and has det(R) = 1 within the same tolerance. Raises RotationError for
    the first matrix that is not, naming the first of these tests it fails.
    """
    finite = np.isfinite(rs).all(axis=(1, 2))
    if not finite.all():
        # keep NaN out of det, which would warn; those rows fail already
        rs = np.where(finite[:, None, None], rs, np.eye(3))
    err = np.abs(np.matmul(rs.transpose(0, 2, 1), rs) - np.eye(3)).max(axis=(1, 2))
    det = np.linalg.det(rs)
    bad = ~finite | (err > ORTHONORMAL_TOL) | (np.abs(det - 1.0) > ORTHONORMAL_TOL)
    if not bad.any():
        return
    i = int(bad.argmax())
    if not finite[i]:
        raise RotationError(i, "rotation matrix has non-finite entries")
    if err[i] > ORTHONORMAL_TOL:
        raise RotationError(i, f"matrix is not orthonormal (max deviation {err[i]:.3e})")
    raise RotationError(i, f"matrix determinant is {det[i]:.12f}, expected 1")


def rotation_matrix(r: np.ndarray) -> np.ndarray:
    """Validate and freeze a 3x3 rotation matrix.

    Checks it with check_rotations, then returns a read-only float64 copy.
    Use this as the constructor for matrices coming from outside the
    library.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got shape {r.shape}")
    check_rotations(r[None])
    out = r.copy()
    out.flags.writeable = False
    return out


def euler_to_rotations(angles: Sequence[EulerAngles]) -> np.ndarray:
    """(n, 3, 3) rotations of n euler triples: Rz(az) @ Ry(el) @ Rx(cy).

    Sines and cosines come from math, one angle at a time: np.sin and
    np.cos agree on common builds but dispatch to SIMD kernels on some CPUs.
    """
    flat = [a for e in angles for a in (e.azimuth, e.elevation, e.cyclorotation)]
    cos = np.fromiter(map(math.cos, flat), np.float64, len(flat)).reshape(-1, 3).T
    sin = np.fromiter(map(math.sin, flat), np.float64, len(flat)).reshape(-1, 3).T
    rz, ry, rx = np.zeros((3, len(flat) // 3, 3, 3))
    # [[c, -s, 0], [s, c, 0], [0, 0, 1]]
    rz[:, 0, 0] = rz[:, 1, 1] = cos[0]
    rz[:, 0, 1], rz[:, 1, 0], rz[:, 2, 2] = -sin[0], sin[0], 1.0
    # [[c, 0, s], [0, 1, 0], [-s, 0, c]]
    ry[:, 0, 0] = ry[:, 2, 2] = cos[1]
    ry[:, 0, 2], ry[:, 2, 0], ry[:, 1, 1] = sin[1], -sin[1], 1.0
    # [[1, 0, 0], [0, c, -s], [0, s, c]]
    rx[:, 1, 1] = rx[:, 2, 2] = cos[2]
    rx[:, 1, 2], rx[:, 2, 1], rx[:, 0, 0] = -sin[2], sin[2], 1.0
    return rz @ ry @ rx


def euler_to_rotation(e: EulerAngles) -> np.ndarray:
    """Rotation matrix for a euler triple: euler_to_rotations of one."""
    return euler_to_rotations([e])[0]


def rotation_to_euler(r: np.ndarray) -> EulerAngles:
    """Euler triple of a rotation matrix (inverse of euler_to_rotation).

    Exact away from gimbal lock. Within 1e-6 of |elevation| = pi/2 the
    decomposition is degenerate: cyclorotation is reported as 0 and azimuth
    absorbs the remaining freedom, still reproducing the input rotation.
    """
    r = np.asarray(r, dtype=np.float64)
    s = min(1.0, max(-1.0, -float(r[2, 0])))
    elevation = math.asin(s)
    if abs(s) >= 1.0 - GIMBAL_BAND:
        azimuth = math.atan2(-float(r[0, 1]), float(r[1, 1]))
        cyclo = 0.0
    else:
        azimuth = math.atan2(float(r[1, 0]), float(r[0, 0]))
        cyclo = math.atan2(float(r[2, 1]), float(r[2, 2]))
    return EulerAngles(azimuth, elevation, cyclo)


def geodesic_distances(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Geodesic distances between two stacks of rotations, in [0, pi].

    r1 and r2 have shapes (..., 3, 3) that broadcast over at least one
    leading axis; the result has the broadcast leading shape. Each distance
    is arccos((trace(r1^T r2) - 1) / 2) with the argument clipped to [-1, 1],
    which equals the Frobenius norm of the relative log map divided by
    sqrt(2) while avoiding NaN at the tolerance boundary. Identical
    matrices get exactly 0: the float trace of r^T r can land a few ulp
    under 3, which the formula would report as an error of ~1e-8 radians.
    """
    r1, r2 = np.asarray(r1), np.asarray(r2)
    # one buffer, in the dtype (trace - 1.0) / 2.0 would have
    d = np.asarray(np.einsum("...ij,...ij->...", r1, r2), np.result_type(r1, r2, 1.0))
    d -= 1.0
    d /= 2.0
    # Only pairs this close can be identical: a matrix that passes
    # check_rotations has trace(R^T R) within 3 * ORTHONORMAL_TOL of 3.
    same = d > 1.0 - 2 * ORTHONORMAL_TOL
    np.clip(d, -1.0, 1.0, out=d)
    np.arccos(d, out=d)
    if same.any():
        shape = d.shape + (3, 3)
        a, b = np.broadcast_to(r1, shape)[same], np.broadcast_to(r2, shape)[same]
        same[same] = (a == b).all(axis=(-2, -1))
        d[same] = 0.0
    return d


def geodesic_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    """geodesic_distances of one pair of rotations."""
    return float(geodesic_distances(np.asarray(r1)[None], r2)[0])


def azimuth_distance(a1: float, a2: float) -> float:
    """Circular distance between two azimuths, in [0, pi]."""
    d = abs(wrap_angle(a1) - wrap_angle(a2))
    return min(d, TWO_PI - d)


def pi_flip(r: np.ndarray) -> np.ndarray:
    """Rotate a pose by pi about the Z axis: Rz(pi) @ R."""
    # Built per call, not at import: its matmul would set up BLAS buffers
    # in every process, including commands that multiply no matrices.
    return euler_to_rotation(EulerAngles(math.pi, 0.0, 0.0)) @ np.asarray(r, dtype=np.float64)


def z_reflect_azimuth(a: float) -> float:
    """Azimuth of the pose reflected across the image plane: (-a) mod 2*pi."""
    return wrap_angle(-float(a))
