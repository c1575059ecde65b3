"""The evaluation metrics, traced on small hand-built fixtures."""

import math

from posekit.metrics import (
    Detection,
    Instance,
    Keypoint,
    KeypointHypothesis,
    accuracy_at,
    apk,
    avp,
    avp_theta,
    arp_theta,
    evaluate_detections,
    iou,
    median_error,
    pck,
    voc_ap,
)
from posekit.so3 import EulerAngles, euler_to_rotation


def vp(az_deg):
    return EulerAngles(math.radians(az_deg), 0.2, 0.0)


# --- known boxes: median error and accuracy ---------------------------------
pairs = [
    (euler_to_rotation(vp(30)), euler_to_rotation(vp(30 + err)))
    for err in (2, 5, 11, 40, 170)
]
print("MedErr: %.1f deg" % median_error(pairs))
print("Acc at 30deg: %.2f" % accuracy_at(pairs, math.radians(30)))

# --- detection setting: AP with viewpoint constraints -----------------------
gts = [
    Instance(id="g0", image_id="im0", class_name="car", bbox=(0, 0, 50, 50), viewpoint=vp(30)),
    Instance(id="g1", image_id="im1", class_name="car", bbox=(0, 0, 50, 50), viewpoint=vp(120)),
]
dets = [
    Detection(image_id="im0", class_name="car", bbox=(0, 0, 50, 50), score=0.9, viewpoint=vp(33)),
    Detection(image_id="im1", class_name="car", bbox=(0, 0, 50, 50), score=0.8, viewpoint=vp(300)),
    Detection(image_id="im1", class_name="car", bbox=(2, 0, 50, 50), score=0.7, viewpoint=vp(118)),
]
# a detection localizes on a same-image ground truth with IoU above 0.5
print("IoU with the im1 ground truth:", [round(iou(d.bbox, gts[1].bbox), 3) for d in dets[1:]])
print("AVP (24 azimuth bins):", avp(dets, gts, 24))
print("AVP_theta (azimuth within 30deg):", avp_theta(dets, gts, math.radians(30)))
print("ARP_theta (full rotation within 30deg):", arp_theta(dets, gts, math.radians(30)))

# the precision/recall trace behind those numbers
evals = evaluate_detections(dets, gts, lambda d, g: True)
print("localization-only recalls:", evals["car"].recalls.tolist())
print("localization-only precisions:", [round(p, 3) for p in evals["car"].precisions.tolist()])
print("all-points AP of that trace: %.3f" % voc_ap(evals["car"].recalls, evals["car"].precisions))

# --- keypoints: PCK with known boxes, APK for scored hypotheses -------------
inst = Instance(
    id="g0", image_id="im0", class_name="car", bbox=(0, 0, 100, 100),
    keypoints={0: Keypoint(20.0, 20.0), 1: Keypoint(80.0, 20.0)},
)
preds = {"g0": {0: (24.0, 21.0), 1: (80.0, 45.0)}}  # kp 0 close, kp 1 off
result = pck([inst], preds, alpha=0.1)
print("PCK per keypoint:", result.per_keypoint)
print("PCK mean: %.2f" % result.mean())

hyp_det = Detection(
    image_id="im0", class_name="car", bbox=(0, 0, 100, 100), score=0.9,
    keypoint_hypotheses={
        0: KeypointHypothesis(24.0, 21.0, 0.9),
        1: KeypointHypothesis(80.0, 45.0, 0.7),
    },
)
print("APK:", {k: round(v, 3) for k, v in apk([hyp_det], [inst], 0.1).per_class.items()})
