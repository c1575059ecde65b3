"""Resolving a left/right keypoint confusion with the viewpoint prior.

Local appearance cannot tell a left wheel from a right wheel: the response
map for "left front wheel" fires at both wheels. This script builds that
situation by hand, then shows the viewpoint-conditioned prior picking the
correct peak.

The prior is a mixture of Gaussians over grid locations, built from stored
training instances whose viewpoint is geodesically near the query one.
"""

import math

import numpy as np

from posekit.fusion import (
    GRID_SIZE,
    PriorBank,
    denormalize_keypoint,
    fuse_and_decode,
    normalize_keypoints,
    pose_prior,
    uniform_prior,
)
from posekit.so3 import EulerAngles, euler_to_rotation


def cone(center, sharpness=1.2):
    # quadratic log-score peaking at `center`, in grid coordinates
    c = np.arange(GRID_SIZE) + 0.5
    dx2 = (c[None, :] - center[0]) ** 2
    dy2 = (c[:, None] - center[1]) ** 2
    return -(dx2 + dy2) / (2.0 * sharpness**2)


# ground truth: the keypoint sits at (3.5, 7.5) on the 12x12 grid, and its
# mirror-image distractor at (8.5, 7.5). Appearance scores the distractor
# slightly HIGHER, as a confused detector would.
true_loc = (3.5, 7.5)
distractor = (8.5, 7.5)
response = np.maximum(cone(true_loc) - 0.3, cone(distractor))

appearance_only = fuse_and_decode(uniform_prior(), response)
print("appearance-only argmax lands at", tuple(map(float, appearance_only)), "(the distractor)")

# training corpus: 40 instances seen from viewpoints near ours, each with
# the keypoint recorded near the true location, plus 40 from the opposite
# side where the keypoint appears mirrored.
rng = np.random.default_rng(8)
rots, kps = [], []
for side, base in ((0.4, true_loc), (0.4 + math.pi, distractor)):
    for _ in range(40):
        az = side + rng.normal(0.0, 0.1)
        rots.append(euler_to_rotation(EulerAngles(az, 0.1, 0.0)))
        kps.append([[base[0] + rng.normal(0.0, 0.4), base[1] + rng.normal(0.0, 0.4)]])
bank = PriorBank("car", np.stack(rots), np.array(kps))

# query viewpoint is on the first side, so only the first 40 instances are
# geodesic neighbors and the prior mass sits over the true location
query = euler_to_rotation(EulerAngles(0.45, 0.1, 0.0))
prior = pose_prior(query, bank, keypoint_id=0)
peak = np.unravel_index(np.argmax(prior), prior.shape)
print("prior peaks at cell (row=%d, col=%d)" % peak)

fused = fuse_and_decode(prior, response)
print("fused argmax lands at", tuple(map(float, fused)), "(the true location)")

# grid coordinates map back to pixels through the instance box
box = (12.0, 30.0, 180.0, 120.0)
pixels = denormalize_keypoint(box, fused)
print("in pixels:", tuple(round(float(v), 1) for v in pixels))
print("sanity: normalize back ->", tuple(normalize_keypoints([box], [[pixels]])[0, 0].tolist()))
