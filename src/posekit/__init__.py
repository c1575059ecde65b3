"""Pose evaluation toolkit. The package exports nothing itself; import its
modules: so3 (SO(3) viewpoint geometry), viewpoint (azimuth binning),
fusion (viewpoint-conditioned keypoint fusion), metrics (known-box and
detection-setting metrics), diagnostics (error analysis), dataio (bit-exact
dataset files and reports), synth (a deterministic synthetic harness with
independent oracles) and cli (the command line).
"""
