"""Pose evaluation toolkit: SO(3) viewpoint geometry, azimuth binning,
viewpoint-conditioned keypoint fusion, detection-setting metrics, error
diagnostics, bit-exact dataset files, and a deterministic synthetic
harness with independent oracles.
"""

from .dataio import (
    Dataset,
    DatasetError,
    Manifest,
    NonFiniteError,
    ParseError,
    SchemaVersionError,
    ValidationError,
    render_report,
    save_dataset,
    write_report,
)
from .diagnostics import (
    ErrorModeTally,
    error_mode_decomposition,
    left_right_pck,
    size_slices,
    sliced_report,
)
from .fusion import (
    GRID_SIZE,
    NoPriorSupportError,
    PriorBank,
    combine_scales,
    denormalize_keypoint,
    denormalize_keypoints,
    fuse_and_decode,
    fuse_instances,
    keypoint_priors,
    neighbor_set,
    normalize_keypoint,
    pose_prior,
    uniform_prior,
    upsample_coarse,
)
from .metrics import (
    ApkResult,
    Detection,
    EvalReport,
    Instance,
    Keypoint,
    KeypointHypothesis,
    PckResult,
    accuracy_at,
    apk,
    arp_theta,
    avp,
    avp_theta,
    evaluate_detection_tests,
    evaluate_detections,
    iou,
    median_error,
    pck,
    score_hypothesis,
    voc_ap,
)
from .so3 import (
    EulerAngles,
    azimuth_distance,
    euler_to_rotation,
    geodesic_distance,
    geodesic_distances,
    pi_flip,
    rotation_matrix,
    rotation_to_euler,
    wrap_angle,
    wrap_signed,
    z_reflect_azimuth,
)
from .synth import (
    NoiseProfile,
    generate_scene,
    noise_preset,
    oracle_ap,
    oracle_fuse,
)
from .viewpoint import angle_to_bin

__version__ = "0.1.0"
