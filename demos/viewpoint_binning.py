"""Discretizing azimuths into angle bins, and AVP's bin-match test.

angle_to_bin maps an angle to the nearest of n equal bins, bin 0 centered
on angle 0. AVP counts a detection's viewpoint as correct when its azimuth
lands in the same bin as the ground truth's, so the bin count sets how
forgiving the test is.
"""

import math

from posekit.metrics import Detection, Instance, bin_match
from posekit.so3 import EulerAngles
from posekit.viewpoint import angle_to_bin

# where does azimuth 100 degrees land? coarser bins are wider
for n in (4, 8, 16, 24):
    b = angle_to_bin(math.radians(100), n)
    print("%2d bins: az=100deg -> bin %2d, centered at %5.1f deg (width %.1f deg)"
          % (n, b, 360.0 * b / n, 360.0 / n))

# bins wrap around: just below 360 degrees is bin 0 again
print("az=359deg, 24 bins -> bin", angle_to_bin(math.radians(359), 24))

# a viewpoint test scores the localized claims of one class at once: the
# detections and the ground truths they claimed, one verdict per claim.
# A detection 20 degrees off in azimuth passes only the coarsest test;
# one 180 degrees off passes none.
box = (10.0, 10.0, 50.0, 40.0)
offsets = (0, 20, 180)
gts = [Instance(id="i%d" % i, image_id="im%d" % i, class_name="car", bbox=box,
                viewpoint=EulerAngles(math.radians(100), 0.0, 0.0))
       for i in range(len(offsets))]
dets = [Detection(image_id="im%d" % i, class_name="car", bbox=box, score=0.9,
                  viewpoint=EulerAngles(math.radians(100 + off), 0.0, 0.0))
        for i, off in enumerate(offsets)]
for n in (4, 8, 16, 24):
    verdicts = bin_match(n, dets, gts)
    print("%2d bins: 100deg vs" % n,
          ", ".join("%ddeg %s" % (100 + off, "match" if ok else "no match")
                    for off, ok in zip(offsets, verdicts)))
