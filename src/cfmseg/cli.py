"""Command-line front end: one subcommand per pipeline stage.

Reports go to stdout as JSON; binary artifacts are only written to --out
paths. Operation failures exit 1 with a JSON error on stderr, usage errors
exit 2. All randomness is controlled by explicit --seed flags, so fixed
inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import classify, formats, netgeom, pipeline, pooling, pursuit, synth, toynet
from .core import BinaryMask, InstanceSegment, PixelBox, ValidationError, proposal_from_mask
from .masking import project_mask
from .formats import FormatError


def _print_json(obj) -> None:
    sys.stdout.write(formats.canonical_json(obj))


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from None


def _given(args, *names) -> dict:
    """The named flags that were given; one left out takes the library's default."""
    return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}


def _pipeline_config(args) -> pipeline.PipelineConfig:
    kwargs = _given(args, "design", "paste_inhibit_iou", "warp_side")
    if getattr(args, "scales", None) is not None:  # "" is no scale, not the default
        kwargs["scales"] = tuple(_parse_ints(args.scales))
    if getattr(args, "levels", None) is not None:
        kwargs["pyramid"] = pooling.PyramidSpec(tuple(_parse_ints(args.levels)))
    return pipeline.PipelineConfig(**kwargs)


def _pipeline_setup(args):
    """(net, geometry, config) from the shared --net/--design/--scales/--levels."""
    net = toynet.init_toynet(toynet.load_spec(args.net))
    g = netgeom.compose_geometry(net.spec.geometry_layers())
    return net, g, _pipeline_config(args)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_geometry(args) -> None:
    g = netgeom.compose_geometry(netgeom.load_layers(args.layers))
    _print_json({"stride": g.stride, "rf_size": g.rf_size, "offset": g.offset})


def cmd_forward(args) -> None:
    net = toynet.init_toynet(toynet.load_spec(args.net))
    image = formats.load_feature_map(args.image)
    out = toynet.forward(net, image)
    formats.save_feature_map(args.out, out)
    _print_json(
        {"channels": out.channels, "height": out.height, "width": out.width,
         "out": args.out}
    )


def cmd_mask_project(args) -> None:
    g = netgeom.compose_geometry(netgeom.load_layers(args.geometry))
    mask = formats.load_mask(args.mask)
    # each pixel row (column) votes for one cell row (column); more cells stay unset
    if args.fh > mask.height or args.fw > mask.width:
        raise ValidationError(
            f"feature grid {args.fh}x{args.fw} exceeds mask {mask.height}x{mask.width}"
        )
    whole = (0, 0, args.fh - 1, args.fw - 1)  # a batch of one, cropped to the whole grid
    box = (0, 0, mask.height - 1, mask.width - 1)  # unread: the identity drops no pixel
    fmask = BinaryMask(project_mask(g, [mask.bits], [(0, 0)], mask.bits.shape,
                                    mask.bits.shape, args.fh, args.fw, [whole], [box])[0])
    formats.save_mask(args.out, fmask)
    _print_json(
        {"set_cells": int(fmask.bits.sum()), "fh": args.fh, "fw": args.fw,
         "out": args.out}
    )


def cmd_pool(args) -> None:
    fm = formats.load_feature_map(args.image)
    window = _parse_ints(args.window)
    if len(window) != 4:
        raise ValidationError(f"--window needs x0,y0,x1,y1, got {args.window!r}")
    pooled = pooling.spp_pool(fm, PixelBox(*window), _pipeline_config(args).pyramid)
    pooling.save_pooled_feature(args.out, pooled)
    _print_json({"length": int(pooled.values.size), "out": args.out})


def cmd_pursue(args) -> None:
    proposals = formats.load_proposal_index(args.proposals)
    stuff = formats.load_mask(args.stuff)
    cfg = pursuit.PursuitConfig(**_given(args, "purity_pos", "inhibit_iou"))
    purities = [pursuit.purity(p, stuff) for p in proposals]
    cands = pursuit.candidate_set(proposals, purities, cfg)
    picks = pursuit.pursue(cands, cfg, args.mode, args.seed)
    _print_json(
        {
            "mode": args.mode,
            "candidates": [
                {"id": c.proposal.id, "area": c.area, "purity": c.purity}
                for c in cands
            ],
            "selected": [c.proposal.id for c in picks],
        }
    )


def cmd_synth(args) -> None:
    if args.spec:
        spec = formats.load_json(args.spec, _scene_spec_from_json)
    else:
        spec = synth.random_scene_spec(synth.CorpusConfig(), args.seed)
    scene = synth.generate_scene(spec)
    proposals = synth.scene_proposals(scene, synth.derive_seed(args.seed, 2))
    out = Path(args.out_dir)
    write_scene_dir(out, scene, proposals)
    _print_json(
        {
            "out_dir": str(out),
            "instances": len(scene.instances),
            "proposals": len(proposals),
        }
    )


def cmd_train(args) -> None:
    net, g, cfg = _pipeline_setup(args)
    scenes = [read_scene_dir(p) for p in sorted(Path(args.corpus).iterdir())
              if p.is_dir()]
    if not scenes:
        raise ValidationError(f"no scene directories under {args.corpus}")
    models = pipeline.train_category_models(
        scenes, _parse_ints(args.object_cats), _parse_ints(args.stuff_cats), net, g,
        cfg, seed=args.seed, threads=args.threads, **_given(args, "reg", "epochs"),
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for m in models:
        classify.save_model(out / f"category_{m.category:03d}.json", m)
    _print_json({"models": len(models), "out_dir": str(out)})


def _load_models(models_dir: str) -> list[classify.LinearModel]:
    paths = sorted(Path(models_dir).glob("category_*.json"))
    if not paths:
        raise ValidationError(f"no model files under {models_dir}")
    return [classify.load_model(p) for p in paths]


def cmd_infer(args) -> None:
    net, g, cfg = _pipeline_setup(args)
    models = _load_models(args.models)
    image = formats.load_feature_map(args.image)
    proposals = formats.load_proposal_index(args.proposals)
    labeled = pipeline.predict_scene(
        models, image, proposals, net, g, cfg, threads=args.threads
    )
    formats.save_label_map(args.out_labels, labeled)
    report = {
        "out_labels": args.out_labels,
        "regions_scored": len(models) * len(proposals),
        "pixels_labeled": int((labeled.labels != 0).sum()),
    }
    if args.gt:
        gt = formats.load_label_map(args.gt)
        num = max(int(labeled.labels.max()), int(gt.labels.max())) + 1
        ious, mean = pipeline.mean_iou([labeled], [gt], num)
        report["mean_iou"] = mean
        report["per_category_iou"] = _iou_json(ious)
    if args.overlay:
        _write_overlay(args.overlay, labeled)
        report["overlay"] = args.overlay
    _print_json(report)


def cmd_paste(args) -> None:
    if min(args.width, args.height) < 1:
        raise ValidationError(f"paste size {args.width}x{args.height} is below 1x1")
    cfg = _pipeline_config(args)
    scored = formats.load_json(
        args.scored, partial(_scored_regions, Path(args.scored).parent)
    )
    labeled = pipeline.paste(scored, args.height, args.width, cfg)
    formats.save_label_map(args.out, labeled)
    _print_json(
        {"out": args.out, "pixels_labeled": int((labeled.labels != 0).sum())}
    )


def cmd_eval(args) -> None:
    preds = [formats.load_label_map(p) for p in args.pred]
    gts = [formats.load_label_map(p) for p in args.gt]
    ious, mean = pipeline.mean_iou(preds, gts, args.categories)
    _print_json({"mean_iou": mean, "per_category_iou": _iou_json(ious)})


def cmd_bench(args) -> None:
    net, g, cfg = _pipeline_setup(args)
    image = formats.load_feature_map(args.image)
    proposals = formats.load_proposal_index(args.proposals)
    counts = _parse_ints(args.counts)
    if not counts or not all(1 <= c <= len(proposals) for c in counts):  # before timing
        raise ValidationError(f"--counts needs integers in 1..{len(proposals)} "
                              f"(the index size), got {args.counts!r}")
    thread_settings = [1] if args.threads <= 1 else [1, args.threads]
    runs = []
    for count in counts:
        for threads in thread_settings:
            report = pipeline.benchmark(
                image, proposals[:count], net, g, cfg, threads=threads
            )
            runs.append(dataclasses.asdict(report))
    _print_json({"runs": runs})


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _iou_json(ious: np.ndarray) -> list:
    return [None if np.isnan(v) else float(v) for v in ious]


def _write_overlay(path: str, labeled) -> None:
    """Gray-level visualization of a label map (not a loadable mask)."""
    top = max(int(labeled.labels.max()), 1)
    gray = (labeled.labels.astype(np.float64) * (255.0 / top)).astype(np.uint8)
    header = f"P5\n{labeled.width} {labeled.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + gray.tobytes())


def _spec_ints(entry, names, **defaults) -> dict[str, int]:
    """Strict integer fields; an absent required key raises KeyError (FormatError)."""
    entry = {**defaults, **entry}
    return formats.int_fields({name: entry[name] for name in names}, names)


def _scene_spec_from_json(obj) -> synth.SceneSpec:
    scene = _spec_ints(obj, ("width", "height", "seed"), seed=0)
    shape_ints = ("category", "cx", "cy", "half_w", "half_h", "thickness")
    shapes = tuple(
        synth.ShapeSpec(s["kind"], **_spec_ints(s, shape_ints, thickness=3))
        for s in obj.get("shapes", [])
    )
    bands = tuple(
        synth.BandSpec(
            **_spec_ints(b, ("category", "row0", "row1")),
            base_color=b["base_color"], noise_amp=b["noise_amp"],
        )
        for b in obj.get("bands", [])
    )
    return synth.SceneSpec(shapes=shapes, bands=bands, **scene)


def _scored_regions(base: Path, entries) -> list[pipeline.ScoredRegion]:
    return [
        pipeline.ScoredRegion(
            proposal_from_mask(formats.string_id(e), _entry_mask(base, e)),
            _spec_ints(e, ["category"])["category"],
            formats.finite_number(e["score"], "score"),
        )
        for e in entries
    ]


def _instances(base: Path, entries) -> list[InstanceSegment]:
    return [
        InstanceSegment(_spec_ints(e, ["category"])["category"], _entry_mask(base, e))
        for e in entries
    ]


def _entry_mask(base: Path, entry):
    return formats.load_mask(formats.contained(base, entry["mask"]))


def write_scene_dir(out: Path, scene: synth.Scene, proposals) -> None:
    out.mkdir(parents=True, exist_ok=True)
    formats.save_feature_map(out / "image.cfmt", scene.image)
    formats.save_label_map(out / "labels.cfml", scene.labels)
    instances = []
    for i, inst in enumerate(scene.instances):
        rel = f"instance_{i:03d}.pgm"
        formats.save_mask(out / rel, inst.mask)
        instances.append({"category": inst.category, "mask": rel})
    formats.dump_json(instances, out / "instances.json")
    formats.save_proposal_index(out / "proposals.json", proposals)


def read_scene_dir(path: Path) -> pipeline.TrainScene:
    image = formats.load_feature_map(path / "image.cfmt")
    labels = formats.load_label_map(path / "labels.cfml")
    instances = formats.load_json(path / "instances.json", partial(_instances, path))
    proposals = formats.load_proposal_index(path / "proposals.json")
    return pipeline.TrainScene(image, labels, instances, proposals)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmseg",
        description="Segment-mask features on shared convolutional maps.",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="internal parallelism; results are identical for any value",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # train, infer and bench build the same net, geometry and config
    pipeline_opts = argparse.ArgumentParser(add_help=False)
    pipeline_opts.add_argument("--net", required=True, help="network spec JSON")
    pipeline_opts.add_argument("--design", choices=pooling.DESIGNS,
                               help="feature wiring (none = unmasked box pyramid)")
    pipeline_opts.add_argument("--scales", help="comma-separated shorter-edge scales")
    pipeline_opts.add_argument("--levels", help="pyramid grid sizes")

    p = sub.add_parser("geometry", help="stride / receptive field / offset of a stack")
    p.add_argument("--layers", required=True, help="layer-stack JSON file")
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("forward", help="run the toy net on an image tensor")
    p.add_argument("--net", required=True, help="network spec JSON")
    p.add_argument("--image", required=True, help="input CFMT tensor")
    p.add_argument("--out", required=True, help="output CFMT tensor")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("mask-project", help="project an image mask to feature cells")
    p.add_argument("--geometry", required=True, help="layer-stack JSON file")
    p.add_argument("--mask", required=True, help="input P5 mask")
    p.add_argument("--fh", type=int, required=True, help="feature rows")
    p.add_argument("--fw", type=int, required=True, help="feature columns")
    p.add_argument("--out", required=True, help="output P5 feature mask")
    p.set_defaults(func=cmd_mask_project)

    p = sub.add_parser("pool", help="pyramid-pool a feature window to a vector")
    p.add_argument("--image", required=True, help="input CFMT tensor")
    p.add_argument("--window", required=True, help="x0,y0,x1,y1 feature window")
    p.add_argument("--levels", help="pyramid grid sizes")
    p.add_argument("--out", required=True, help="output CFMT vector")
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("pursue", help="select a compact stuff cover")
    p.add_argument("--proposals", required=True, help="proposal index JSON")
    p.add_argument("--stuff", required=True, help="stuff P5 mask")
    p.add_argument("--mode", choices=pursuit.PURSUIT_MODES,
                   default="deterministic", help="selection rule")
    p.add_argument("--seed", type=int, default=0, help="stochastic draw seed")
    p.add_argument("--purity-pos", dest="purity_pos", type=float,
                   help="candidate purity bound (strict)")
    p.add_argument("--inhibit-iou", dest="inhibit_iou", type=float,
                   help="overlap above which picks suppress candidates")
    p.set_defaults(func=cmd_pursue)

    p = sub.add_parser("synth", help="generate a synthetic scene with proposals")
    p.add_argument("--spec", help="scene spec JSON (omit for a seeded random scene)")
    p.add_argument("--seed", type=int, default=0, help="scene and proposal seed")
    p.add_argument("--out-dir", dest="out_dir", required=True,
                   help="directory for the scene artifacts")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[pipeline_opts],
                       help="train per-category classifiers on a corpus")
    p.add_argument("--corpus", required=True, help="directory of scene directories")
    p.add_argument("--object-cats", dest="object_cats", required=True,
                   help="comma-separated object category indices")
    p.add_argument("--stuff-cats", dest="stuff_cats", required=True,
                   help="comma-separated stuff category indices")
    p.add_argument("--reg", type=float, help="L2 regularization strength")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--seed", type=int, default=0, help="training seed")
    p.add_argument("--out-dir", dest="out_dir", required=True,
                   help="directory for the model files")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", parents=[pipeline_opts],
                       help="score proposals, paste labels, optionally eval")
    p.add_argument("--models", required=True, help="directory of model files")
    p.add_argument("--image", required=True, help="input CFMT tensor")
    p.add_argument("--proposals", required=True, help="proposal index JSON")
    p.add_argument("--inhibit", dest="paste_inhibit_iou", type=float,
                   help="pasting inhibition IoU")
    p.add_argument("--gt", help="ground-truth CFML for evaluation")
    p.add_argument("--out-labels", dest="out_labels", required=True,
                   help="output CFML path")
    p.add_argument("--overlay", help="optional gray-level P5 visualization")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("paste", help="paste scored regions into a label map")
    p.add_argument("--scored", required=True, help="scored-region JSON")
    p.add_argument("--width", type=int, required=True, help="output width")
    p.add_argument("--height", type=int, required=True, help="output height")
    p.add_argument("--inhibit", dest="paste_inhibit_iou", type=float,
                   help="pasting inhibition IoU")
    p.add_argument("--out", required=True, help="output CFML path")
    p.set_defaults(func=cmd_paste)

    p = sub.add_parser("eval", help="dataset mean IoU of predictions vs ground truth")
    p.add_argument("--pred", nargs="+", required=True,
                   help="predicted CFML files, one per image")
    p.add_argument("--gt", nargs="+", required=True,
                   help="ground-truth CFML files, matching order")
    p.add_argument("--categories", type=int, required=True,
                   help="category count including background")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", parents=[pipeline_opts],
                       help="shared-map vs per-region timing comparison")
    p.add_argument("--image", required=True, help="input CFMT tensor")
    p.add_argument("--proposals", required=True, help="proposal index JSON")
    p.add_argument("--counts", default="1,10,50,200",
                   help="comma-separated proposal counts to time")
    p.add_argument("--warp", dest="warp_side", type=int,
                   help="baseline crop-and-warp side")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        if args.threads < 1:
            raise ValidationError(f"--threads must be >= 1, got {args.threads}")
        args.func(args)
    except (ValidationError, FormatError, OSError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
