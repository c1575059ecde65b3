"""Command-line entry points.

Subcommands: evaluate-viewpoint, evaluate-keypoints, fuse, diagnose, synth.
Exit codes: 0 on success, 2 when inputs fail to parse or validate, 3 on
I/O failure. All randomness is controlled by --seed.

Prediction files come in two shapes. Detection records (the detections.jsonl
format) carry boxes, scores, viewpoints, and keypoint hypotheses; they feed
evaluate-viewpoint, evaluate-keypoints --mode apk, diagnose, and the
viewpoints used by fuse. Keypoint-prediction records ({"id", "keypoints"}
lines, as written by fuse) feed evaluate-keypoints --mode pck. In known-box
settings a detection is paired with the instance whose image id and box it
reproduces exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import heapq
import math
import sys
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import dataio, diagnostics, fusion, metrics, synth
from .metrics import Detection, EvalReport, Instance
from .so3 import EulerAngles, euler_to_rotations
from .so3 import euler_to_rotation  # noqa: F401  (perfbench/selftest.py traces this alias)
from .viewpoint import angle_to_bin  # noqa: F401  (perfbench/selftest.py traces this alias)


_box = attrgetter("image_id", "bbox")  # a record's (image id, box)


def match_by_box(
    instances: Sequence[Instance], detections: Iterable[Detection]
) -> dict[str, Detection]:
    """Pair each instance with the single detection at its exact box; the
    detections are iterated once, and one at no instance's box is dropped
    as it is read."""
    by_box: dict[tuple, list[Detection]] = {_box(inst): [] for inst in instances}
    for det in detections:
        candidates = by_box.get(_box(det))
        if candidates is not None:
            candidates.append(det)
    out = {}
    for inst in instances:
        candidates = by_box[_box(inst)]
        if len(candidates) != 1:
            raise dataio.ValidationError(
                f"instance {inst.id!r}: expected exactly one prediction at its"
                f" box, found {len(candidates)}"
            )
        out[inst.id] = candidates[0]
    return out


def fuse_class(
    maps: dataio.ClassMaps,
    banks: Mapping[str, fusion.PriorBank],
    viewpoints: Mapping[str, EulerAngles] | None = None,
    w_fine: float = fusion.FINE_WEIGHT,
    w_coarse: float = fusion.COARSE_WEIGHT,
    sigma: float = fusion.PRIOR_SIGMA,
    threshold: float = fusion.NEIGHBOR_THRESHOLD,
) -> np.ndarray:
    """(n_c, K, 2) pixel predictions of one class's members, row i for
    maps.members[i], decoded through the viewpoint-conditioned prior.

    The prior for a member conditions on its predicted viewpoint when the
    {id: viewpoint} map of its matched detections is supplied, otherwise
    on the annotated one; a keypoint with no support among the prior-bank
    neighbors falls back to a uniform prior. The members are checked in id
    order before any is fused: the first that lacks a map kind, a viewpoint
    or a bank raises ValidationError. Then all are fused in one
    fusion.fuse_instances call.
    """
    vps = []
    both = (maps.read["fine"] & maps.read["coarse"]).tolist()
    for inst, read in zip(maps.members, both):
        vps.append(inst.viewpoint if viewpoints is None else viewpoints.get(inst.id))
        if not read:
            fault = "needs both fine and coarse response maps"
        elif vps[-1] is None:
            fault = "no viewpoint to condition on"
        elif inst.class_name not in banks:
            fault = f"no prior bank for class {inst.class_name!r}"
        else:
            continue
        raise dataio.ValidationError(f"instance {inst.id!r}: {fault}")
    bank = banks[maps.members[0].class_name]
    cells = fusion.fuse_instances(
        euler_to_rotations(vps), bank, maps.fine, maps.coarse, w_fine, w_coarse, sigma, threshold
    )
    return fusion.denormalize_keypoints([inst.bbox for inst in maps.members], cells)


def _fuse_classes(
    classes: Iterable[dataio.ClassMaps],
    banks: Mapping[str, fusion.PriorBank],
    viewpoints: Mapping[str, EulerAngles] | None,
    settings: tuple[float, float, float, float],
) -> Iterator[tuple[str, dict[int, tuple[float, float]]]]:
    """fuse_class over each class as it is read; once all are fused, returns
    the (id, {keypoint id: (x, y)}) rows in id order, each built as it is read."""
    fused: list[tuple[list[str], np.ndarray]] = []  # (member ids, pixels) per class
    for maps in classes:
        pixels = fuse_class(maps, banks, viewpoints, *settings)
        fused.append(([inst.id for inst in maps.members], pixels))
        # free this class's maps before the reader resumes with the next class
        del maps
    # each class's members are in id order: merge them into one id order
    rows = heapq.merge(*(zip(ids, pixels) for ids, pixels in fused), key=itemgetter(0))
    return ((iid, {k: (x, y) for k, (x, y) in enumerate(kps.tolist())}) for iid, kps in rows)


def fuse_predictions(
    dataset: dataio.Dataset,
    viewpoints: Mapping[str, Detection] | None = None,
    w_fine: float = fusion.FINE_WEIGHT,
    w_coarse: float = fusion.COARSE_WEIGHT,
    sigma: float = fusion.PRIOR_SIGMA,
    threshold: float = fusion.NEIGHBOR_THRESHOLD,
) -> dict[str, dict[int, tuple[float, float]]]:
    """The fuse command on an in-memory dataset, as {id: {keypoint id:
    (x, y)}} in id order: fuse_class over dataio.class_maps, so the first
    error is the one the command reports for the saved dataset."""
    settings = (w_fine, w_coarse, sigma, threshold)
    vps = _viewpoints_of(viewpoints)
    return dict(_fuse_classes(dataio.class_maps(dataset), dataset.prior_banks, vps, settings))


def _viewpoints_of(matched: Mapping[str, Detection] | None) -> dict[str, EulerAngles] | None:
    """Each matched detection's viewpoint by instance id; None (fuse on
    the annotated viewpoints) stays None."""
    return None if matched is None else {iid: det.viewpoint for iid, det in matched.items()}


def _emit_report(report: EvalReport, args: argparse.Namespace) -> None:
    if args.report:
        dataio.write_report(report, args.report, args.format)
    else:
        sys.stdout.write(dataio.render_report(report, args.format))


def _without_keypoints(records: Iterable[Instance | Detection]) -> Iterator:
    """Each record as it is read, its keypoint map emptied: the line was
    checked in full, but the caller reads none of its keypoints, so they go
    before the next line is read."""
    for record in records:
        keypoints = record.keypoints if type(record) is Instance else record.keypoint_hypotheses
        keypoints.clear()
        yield record


def _cmd_evaluate_viewpoint(args: argparse.Namespace) -> int:
    # viewpoint metrics read no keypoint: instances and detections are held
    # without them, and under --gt-boxes a detection at no instance's box is
    # dropped as it is read
    manifest, instances = dataio.load_ground_truth(args.dataset)
    instances = list(_without_keypoints(instances))
    preds = _without_keypoints(dataio.load_detections(args.preds, manifest))
    if args.gt_boxes:
        views = diagnostics.viewpoint_pairs(instances, match_by_box(instances, preds))
        report = diagnostics.sliced_report(metrics.by_class(instances), views, args.theta)
    else:
        report = EvalReport()
        avp_name = f"avp{args.bins}"
        tests = {
            avp_name: partial(metrics.bin_match, args.bins),
            "avp_theta": partial(metrics.azimuth_within, args.theta),
            "arp_theta": partial(metrics.rotation_within, args.theta),
        }
        evals = metrics.evaluate_detection_tests(preds, instances, tests)
        for cls, by_test in sorted(evals.items()):
            report.sections[cls] = {name: e.ap for name, e in by_test.items()}
            report.curves[f"avp/{cls}"] = (by_test[avp_name].recalls, by_test[avp_name].precisions)
    rows = list(report.sections.values())
    report.sections["mean"] = {
        key: metrics.mean_present(r.get(key) for r in rows)
        for key in sorted({k for r in rows for k in r})
    }
    _emit_report(report, args)
    return 0


def _cmd_evaluate_keypoints(args: argparse.Namespace) -> int:
    report = EvalReport()
    manifest, instances = dataio.load_ground_truth(args.dataset)
    if args.mode == "pck":
        # each instance is pooled into columns as it is read, and each
        # prediction line gives its instance's row its (x, y) as it is read
        columns = metrics.PckColumns.pool(instances, attrgetter("id"), args.alpha)
        # load_instances refuses a repeated id: the ids number the rows
        codes = columns.targets.classes.tolist()
        classes = {iid: columns.names[code] for iid, code in zip(columns.keys, codes)}
        for iid, points in dataio.load_keypoint_predictions(args.preds, manifest, classes):
            columns.predict(columns.keys[iid], points)
        result = metrics.pck_of_columns(columns, {})
        report.sections["pck/pooled"] = dict(result.pooled_per_class)
    else:
        # apk pools each record into columns as it is read: the instances
        # first, then the detections, the order of their faults
        preds = dataio.load_detections(args.preds, manifest)
        result = metrics.apk(preds, instances, args.alpha, args.lam)
    for cls, aps in result.per_keypoint.items():
        names = manifest.keypoint_names[cls]
        report.sections[f"{args.mode}/{cls}"] = {names[k]: v for k, v in aps.items()}
    report.sections[f"{args.mode}/mean"] = dict(result.per_class, all=result.mean())
    _emit_report(report, args)
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    # fusion reads no annotated keypoint and no keypoint hypothesis: only an
    # instance's id, class, image id, box and viewpoint, and a detection's
    # box and viewpoint, of which only the matched viewpoints are kept
    base = Path(args.dataset)
    manifest, instances = dataio.load_ground_truth(base)
    instances = list(_without_keypoints(instances))
    banks = dataio.load_prior_banks(args.prior_bank or base / "prior_bank.jsonl", manifest)
    viewpoints = None
    if args.preds:
        detections = _without_keypoints(dataio.load_detections(args.preds, manifest))
        viewpoints = _viewpoints_of(match_by_box(instances, detections))
    settings = (args.w_fine, args.w_coarse, args.sigma, args.threshold)
    classes = dataio.response_maps_by_class(args.maps or base / "responses", manifest, instances)
    dataio.save_keypoint_predictions(_fuse_classes(classes, banks, viewpoints, settings), args.out)
    print(f"fused {len(instances)} instances -> {args.out}")
    return 0


def _pooled_then_emptied(instances: Iterable[Instance], read: list[Instance]) -> Iterator:
    """Each instance as it is read; once the caller has taken its keypoints
    and asks for the next one, they are emptied and the instance joins read."""
    for inst in instances:
        yield inst
        inst.keypoints.clear()
        read.append(inst)


def _predicting(
    detections: Iterable[Detection], columns: metrics.PckColumns
) -> Iterator[Detection]:
    """Each detection as it is read, its hypotheses emptied: first they give
    their (x, y) to the instances pooled under its (image id, box)."""
    for det in detections:
        hyps = det.keypoint_hypotheses
        number = columns.keys.get(_box(det))
        if number is not None:
            columns.predict(number, {k: (h.x, h.y) for k, h in hyps.items()})
        hyps.clear()
        yield det


def _cmd_diagnose(args: argparse.Namespace) -> int:
    if not (args.slices or args.error_modes or args.left_right):
        raise ValueError("nothing to diagnose: pass --slices, --error-modes, or --left-right")
    # --left-right scores pooled columns: no instance or detection is held
    # with its keypoints, and the other sections read none
    manifest, instances = dataio.load_ground_truth(args.dataset)
    excluded = set(manifest.excluded_classes)
    read: list[Instance] = []
    pooled = (i for i in _pooled_then_emptied(instances, read) if i.class_name not in excluded)
    columns = metrics.PckColumns.pool(pooled, _box, args.alpha)
    if not read:
        raise dataio.ValidationError("instances.jsonl holds no instances")
    kept = [inst for inst in read if inst.class_name not in excluded]
    if not kept:
        raise dataio.ValidationError("no instances left after class exclusion")
    detections = _predicting(dataio.load_detections(args.preds, manifest), columns)
    matched = match_by_box(kept, detections)
    report = EvalReport()
    if args.slices or args.error_modes:
        views = diagnostics.viewpoint_pairs(kept, matched)

    if args.slices:
        slices = diagnostics.named_slices(args.slices, kept)
        sliced = diagnostics.sliced_report(slices, views, args.theta)
        report.sections.update((f"slice/{name}", rows) for name, rows in sliced.sections.items())

    if args.error_modes:
        azimuths = [(gt.azimuth, pred.azimuth) for gt, pred in views.values()]
        tally = diagnostics.error_mode_decomposition(azimuths)
        rows = dict(sorted(tally.percentages().items()))
        rows["count"] = float(tally.total)
        report.sections["error-modes"] = rows

    if args.left_right:
        base = metrics.pck_of_columns(columns, {})
        swapped = metrics.pck_of_columns(columns, manifest.symmetry_pairs)
        report.sections["pck"] = dict(base.per_class, all=base.mean())
        report.sections["left-right-pck"] = dict(swapped.per_class, all=swapped.mean())

    _emit_report(report, args)
    return 0


def _load_profile(value: str) -> synth.NoiseProfile:
    if value in synth.NOISE_PRESETS:
        return synth.NOISE_PRESETS[value]
    path = Path(value)
    if path.exists():
        record = dataio.read_json(path)
        if not isinstance(record, dict):
            raise ValueError(f"{path.name}: noise profile must be an object")
        known = {f.name for f in dataclasses.fields(synth.NoiseProfile)}
        unknown = sorted(set(record) - known)
        if unknown:
            raise ValueError(
                f"{path.name}: unknown noise profile key {unknown[0]!r}"
                f" (known: {', '.join(sorted(known))})"
            )
        try:
            return synth.NoiseProfile(**record)
        except ValueError as exc:
            raise ValueError(f"{path.name}: {exc}") from None
    known = ", ".join(sorted(synth.NOISE_PRESETS))
    raise ValueError(f"unknown noise profile {value!r}: not a preset ({known}) or a file")


def _cmd_synth(args: argparse.Namespace) -> int:
    profile = _load_profile(args.noise_profile)
    dataset = synth.generate_scene(args.seed, args.n, profile)
    dataio.save_dataset(dataset, args.out)
    print(
        f"wrote {len(dataset.instances)} instances"
        f" ({len(dataset.detections)} detections) to {args.out}"
    )
    return 0


def _checked(parse, ok, rule: str):
    """argparse type: `parse` the text, then refuse it unless `ok(value)`.

    argparse reports the refusal with the flag's name and exits 2.
    """

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return convert


_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_nonnegative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_finite = _checked(float, math.isfinite, "a finite number")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument(
        "--format",
        choices=("table", "machine"),
        default="table",
        help="report format (default table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posekit",
        description="Viewpoint and keypoint evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "evaluate-viewpoint", help="median error/accuracy or detection-setting AP"
    )
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--preds", required=True, help="detections.jsonl-format predictions")
    p.add_argument("--theta", type=_positive, default=metrics.VIEWPOINT_THETA, help="radians")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--gt-boxes", action="store_true", help="known boxes: MedErr and Acc_theta"
    )
    mode.add_argument(
        "--detections", action="store_true", help="detection setting: AVP/AVP_theta/ARP_theta"
    )
    p.add_argument("--bins", type=_count, default=24, help="azimuth bins for AVP")
    _add_report_flags(p)
    p.set_defaults(func=_cmd_evaluate_viewpoint)

    p = sub.add_parser("evaluate-keypoints", help="PCK (known boxes) or APK (detections)")
    p.add_argument("--dataset", required=True)
    p.add_argument(
        "--preds",
        required=True,
        help="keypoint predictions (pck) or detections.jsonl (apk)",
    )
    p.add_argument("--alpha", type=_positive, default=metrics.PCK_ALPHA)
    p.add_argument("--mode", choices=("pck", "apk"), default="pck")
    p.add_argument(
        "--lambda",
        dest="lam",
        type=_finite,
        default=metrics.APK_LAMBDA,
        help="detector-score weight when rescoring apk hypotheses",
    )
    _add_report_flags(p)
    p.set_defaults(func=_cmd_evaluate_keypoints)

    p = sub.add_parser("fuse", help="decode response maps through the pose prior")
    p.add_argument("--dataset", required=True)
    p.add_argument("--maps", help="response-map directory (default <dataset>/responses)")
    p.add_argument(
        "--prior-bank", help="bank file (default <dataset>/prior_bank.jsonl)"
    )
    p.add_argument(
        "--preds",
        help="detections supplying predicted viewpoints (default: annotated ones)",
    )
    p.add_argument("--w-fine", type=_nonnegative, default=fusion.FINE_WEIGHT)
    p.add_argument("--w-coarse", type=_nonnegative, default=fusion.COARSE_WEIGHT)
    p.add_argument("--sigma", type=_positive, default=fusion.PRIOR_SIGMA)
    p.add_argument("--threshold", type=_positive, default=fusion.NEIGHBOR_THRESHOLD)
    p.add_argument("--out", required=True, help="keypoint predictions file to write")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("diagnose", help="slices, error modes, left/right confusion")
    p.add_argument("--dataset", required=True)
    p.add_argument("--preds", required=True, help="detections.jsonl-format predictions")
    p.add_argument("--slices", help="comma list from: size, occlusion, truncation")
    p.add_argument("--error-modes", action="store_true")
    p.add_argument("--left-right", action="store_true")
    p.add_argument("--alpha", type=_positive, default=metrics.PCK_ALPHA)
    p.add_argument("--theta", type=_positive, default=metrics.VIEWPOINT_THETA)
    _add_report_flags(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--n", type=_count, required=True, help="number of instances")
    p.add_argument(
        "--noise-profile",
        "--noise",
        dest="noise_profile",
        default="zero",
        help="preset name or JSON profile file",
    )
    p.add_argument("--out", required=True, help="dataset directory to write")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector off. Its records
    hold no reference cycles, so reference counting frees them, and a pass
    over the tens of thousands a load builds would find nothing to free.
    The caller's collector setting is restored on return.
    """
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (dataio.DatasetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
