"""Command-line driver.

Subcommands:

* ``run-suite`` executes a named invariant suite and reports per-check
  residuals (exit 0 on pass, 1 on any failure, 2 on usage errors);
* ``bench`` times the naive versus fast shrinkage paths over an exponent
  grid and fits their scaling slopes;
* ``demo-episode`` runs the synthetic episode pipeline and prints per-RoI
  similarity rankings and relation norms.

``--out`` writes a report (``--format json`` or ``csv``) or, for ``demo-episode``, a TNSC dump.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import storage, suites
from .errors import InvalidArgumentError, TensorPoolError
from .heads import HeadWeights
from .pipeline import SplitConfig, forward_episode, plan, support_similarity, synth_episode
from .tso import TsoParams

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _seed(text: str) -> int:
    """``--seed`` value: NumPy's generators take only non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # reported below, like a negative seed
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _cmd_run_suite(args) -> int:
    if args.input:
        tensor = storage.read_tensor(args.input)
        print(f"loaded tensor: order={tensor.order} dim={tensor.dim} from {args.input}")
    report = suites.run_suite(args.suite, seed=args.seed)
    sys.stdout.write(suites.report_to_text(report))
    if args.out:
        render = suites.report_to_csv if args.format == "csv" else suites.report_to_json
        Path(args.out).write_text(render(report))
    return EXIT_OK if report["passed"] else EXIT_FAILURE


def _parse_eta_list(raw: str) -> list[int]:
    """``--eta``'s grid, checked here so that an empty or non-positive one's error names the flag."""
    try:
        etas = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        etas = []  # reported below, like an empty grid
    if not etas or min(etas) < 1:
        raise InvalidArgumentError(f"--eta expects comma-separated integers >= 1, got {raw!r}")
    return etas


def _cmd_bench(args) -> int:
    records = bench_mod.bench_tso(
        order=args.order,
        dim=args.dim,
        etas=_parse_eta_list(args.eta),
        repeats=args.repeats,
        seed=args.seed,
    )
    summary = bench_mod.summarize(records)
    for key, value in summary.items():
        if key == "schema_version":
            continue
        print(f"{key}: {value:.4f}" if isinstance(value, float) else f"{key}: {value}")
    payload = (
        bench_mod.records_to_csv(records)
        if args.format == "csv"
        else bench_mod.records_to_json(records)
    )
    if args.out:
        Path(args.out).write_text(payload)
    return EXIT_OK


def _cmd_demo_episode(args) -> int:
    cfg = SplitConfig.parse(args.split)
    params = TsoParams(eta2=args.eta, eta3=args.eta, eta4=args.eta, eta_prime=args.eta_prime)
    # Reject an oversized width before the episode and the 2d x 2d weights are drawn.
    plan(args.dim, args.grid, cfg, params)
    episode = synth_episode(
        args.seed, args.supports, args.rois, args.dim, args.grid, args.separation
    )
    weights = HeadWeights.seeded(args.dim, seed=args.seed)
    result = forward_episode(
        episode, cfg, params, weights, heads=args.heads, sigma=args.sigma
    )
    for order, requested, used in result.metadata["eta_substitutions"]:
        print(f"note: order-{order} exponent rounded {requested} -> {used}")

    sims = support_similarity(result.support_hop, result.roi_hop, args.sigma)
    ranking = np.argsort(sims)[::-1]
    print(f"episode seed={args.seed} shots={args.supports} rois={args.rois} "
          f"dim={args.dim} split={cfg} eta={args.eta} eta'={args.eta_prime:g} "
          f"sigma={args.sigma:g}")
    print("roi  label  support_similarity  rank")
    for b, sim in enumerate(sims):
        label = episode.labels[b] if episode.labels else "-"
        rank = int(np.where(ranking == b)[0][0]) + 1
        print(f"{b:3d}  {label!s:>5}  {sim:18.12f}  {rank:4d}")
    print("roi  |R_spatial|_F  |R_fo_ho|_2  |R_combined|_F")
    for b, rel in enumerate(result.relations):
        print(
            f"{b:3d}  {np.linalg.norm(rel.r_spatial):13.6f}  "
            f"{np.linalg.norm(rel.r_fo_ho):11.6f}  "
            f"{np.linalg.norm(rel.r_combined):14.6f}"
        )
    if args.out:
        sections = episode.to_sections()
        sections["support_hop"] = result.support_hop
        sections["roi_hop"] = result.roi_hop
        sections["modulated_map"] = result.modulated_map
        sections["zshot_output"] = result.zshot_output
        for b, rel in enumerate(result.relations):
            sections[f"relations/{b}/spatial"] = rel.r_spatial
            sections[f"relations/{b}/fo_ho"] = rel.r_fo_ho
            sections[f"relations/{b}/combined"] = rel.r_combined
        storage.write_container(args.out, sections)
        print(f"dumped intermediates to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorpool",
        description="High-order tensor pooling property suites, benchmarks, and demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("run-suite", help="run a named invariant suite")
    p_suite.add_argument(
        "suite", choices=suites.SUITE_NAMES + ("all",), help="suite to execute"
    )
    p_suite.add_argument("--seed", type=_seed, default=0)
    p_suite.add_argument("--input", help="optional TNSR tensor file to validate first")
    p_suite.add_argument("--out", help="write the report to this path")
    p_suite.add_argument("--format", choices=("json", "csv"), default="json")
    p_suite.set_defaults(handler=_cmd_run_suite)

    p_bench = sub.add_parser("bench", help="time naive vs fast shrinkage paths")
    p_bench.add_argument("--order", type=int, default=2)
    p_bench.add_argument("--dim", type=int, default=64)
    p_bench.add_argument(
        "--eta", default="2,4,8,16,32,64,128,256,512,1024",
        help="comma-separated exponent grid",
    )
    p_bench.add_argument("--repeats", type=int, default=9)
    p_bench.add_argument("--seed", type=_seed, default=0)
    p_bench.add_argument("--out", help="write records to this path")
    p_bench.add_argument("--format", choices=("json", "csv"), default="csv")
    p_bench.set_defaults(handler=_cmd_bench)

    p_demo = sub.add_parser("demo-episode", help="run the synthetic episode pipeline")
    p_demo.add_argument("--seed", type=_seed, default=0)
    p_demo.add_argument("--supports", type=int, default=3, help="shot count Z")
    p_demo.add_argument("--rois", type=int, default=2, help="proposal count B")
    p_demo.add_argument("--dim", type=int, default=32)
    p_demo.add_argument("--grid", type=int, default=16, help="columns per box")
    p_demo.add_argument("--separation", type=float, default=10.0)
    p_demo.add_argument("--split", default="5:2:1", help="channel ratios a:b:c")
    p_demo.add_argument("--eta", type=int, default=7)
    p_demo.add_argument("--eta-prime", type=float, default=200.0)
    p_demo.add_argument("--sigma", type=float, default=0.5)
    p_demo.add_argument("--heads", type=int, default=1)
    p_demo.add_argument("--out", help="write the episode and all intermediates to this TNSC path")
    p_demo.set_defaults(handler=_cmd_demo_episode)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TensorPoolError, OSError) as exc:  # OSError: an unreadable --input, an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
