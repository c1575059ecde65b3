"""End to end: synthesize a noisy scene, fuse, evaluate, diagnose.

Everything here is also reachable from the command line:

    posekit synth --seed 5 --n 200 --noise-profile moderate --out /tmp/scene
    posekit fuse --dataset /tmp/scene --out /tmp/fused.jsonl
    posekit evaluate-keypoints --dataset /tmp/scene --preds /tmp/fused.jsonl
    posekit diagnose --dataset /tmp/scene --preds /tmp/scene/detections.jsonl \
        --slices size --error-modes
"""

import math

from posekit import cli, diagnostics, metrics, synth
from posekit.so3 import euler_to_rotations

scene = synth.generate_scene(5, 200, synth.noise_preset("moderate"))
print("scene: %d instances, %d detections, classes %s" % (
    len(scene.instances), len(scene.detections), list(scene.manifest.classes)
))

# pair each annotation with the detection reproducing its box exactly
matched = cli.match_by_box(scene.instances, scene.detections)
views = diagnostics.viewpoint_pairs(scene.instances, matched)
gt, pred = (euler_to_rotations([pair[k] for pair in views.values()]) for k in (0, 1))
pairs = list(zip(gt, pred))
print("MedErr %.1f deg, Acc(pi/6) %.2f" % (
    metrics.median_error(pairs),
    metrics.accuracy_at(pairs, math.pi / 6),
))

# appearance keypoints straight from the detector hypotheses
raw = {
    inst.id: {k: (h.x, h.y) for k, h in matched[inst.id].keypoint_hypotheses.items()}
    for inst in scene.instances
}
print("PCK from raw hypotheses: %.3f" % metrics.pck(scene.instances, raw, 0.1).mean())

# decode the response maps through the viewpoint-conditioned prior instead
fused = cli.fuse_predictions(scene, matched)
print("PCK after fusion:        %.3f" % metrics.pck(scene.instances, fused, 0.1).mean())

# where do the viewpoint errors live?
tally = diagnostics.error_mode_decomposition(
    [
        (inst.viewpoint.azimuth, matched[inst.id].viewpoint.azimuth)
        for inst in scene.instances
    ]
)
print("error modes (%):", {k: round(v, 1) for k, v in tally.percentages().items()})

# each instance's error is computed once; every slice reads its members' errors
sliced = diagnostics.sliced_report(diagnostics.size_slices(scene.instances), views, math.pi / 6)
for name, rows in sliced.sections.items():
    print("  %-6s acc=%.2f" % (name, rows["acc"]))
