"""Command-line interface.

Verbs: count, sample, stats, interface, walk2map, map2walk, embed, verify.
Stdout carries data, stderr carries diagnostics; every stochastic verb
requires an explicit --seed.  Exit codes: 0 success, 1 infeasible inputs or
failed verification, 2 usage errors or malformed input, 3 resource budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import enumeration, simulate
from .errors import (BipolarError, EnumerationBudgetError, MapStructureError,
                     NoMapsError, RejectionBudgetError)
from .planar_map import map_from_json, map_to_json
from .rng import CounterRng
from .sewing import map_to_walk, walk_to_map
from .svg import render_svg
from .walks import walk_from_text, walk_to_text
from .weights import (direct_distribution_from_text, preset_weights,
                      step_distribution, weights_from_text)

_PRESETS = ("tri", "quad", "uniform")


def _load_weights(spec: str):
    if spec in _PRESETS or spec.startswith("kgon:"):
        return preset_weights(spec)
    return weights_from_text(Path(spec).read_text())


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write(path: str | None, data: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(data)
    else:
        Path(path).write_text(data)


def _dist_from_args(args):
    if getattr(args, "nu", None):
        return direct_distribution_from_text(Path(args.nu).read_text()), None
    w = _load_weights(args.weights)
    return step_distribution(w), w


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _require_seed(parser, args) -> None:
    if args.seed is None:
        parser.error("--seed is required for stochastic verbs")


def _sample_walks(args, w, dist):
    walks = []
    for rep in range(args.replicas):
        rng = CounterRng(args.seed, rep)
        if args.method == "exact":
            if w is None:
                raise BipolarError("exact sampling needs --weights, not --nu")
            walks.append(enumeration.exact_sample(
                w, args.m, args.n, args.edges, rng, budget=args.budget))
        elif args.method == "rejection":
            walks.append(simulate.rejection_sample(
                dist, args.m, args.n, args.edges, rng,
                max_tries=args.max_tries))
        else:
            walks.append(simulate.free_walk(dist, args.edges - 1, rng))
    return walks


def cmd_count(args) -> int:
    if args.closed_form:
        print(enumeration.triangulation_count_by_edges(args.edges))
        return 0
    w = _load_weights(args.weights)
    print(enumeration.count_walks(w, args.m, args.n, args.edges,
                                  budget=args.budget))
    return 0


def cmd_sample(args, parser) -> int:
    _require_seed(parser, args)
    dist, w = _dist_from_args(args)
    walks = _sample_walks(args, w, dist)
    for rep, walk in enumerate(walks):
        tag = f"{rep:03d}"
        if args.walk_out:
            _write(args.walk_out.replace("{}", tag), walk_to_text(walk))
        if args.map_out:
            mp = walk_to_map(walk)
            _write(args.map_out.replace("{}", tag), map_to_json(mp))
    if not args.walk_out and not args.map_out:
        for walk in walks:
            sys.stdout.write(walk_to_text(walk))
    return 0


def cmd_stats(args, parser) -> int:
    _require_seed(parser, args)
    dist, w = _dist_from_args(args)
    walks = _sample_walks(args, w, dist)
    rng = CounterRng(args.seed, 10_000)  # reducer stream, distinct from replicas
    report = simulate.covariance_report(walks, dist, rng,
                                        bootstrap=args.bootstrap)
    if (args.method in ("exact", "rejection") and w is not None
            and not w.uniform and set(w.support) == {3}):
        simulate.attach_degree_stats(
            report, *map(simulate.degrees_from_walk, walks), eps=args.eps)
    if args.json:
        _write(args.json, json.dumps(report.to_json_dict(), indent=2) + "\n")
    print(report.human_table())
    return 0


def cmd_interface(args, parser) -> int:
    _require_seed(parser, args)
    dist, w = _dist_from_args(args)
    walks = _sample_walks(args, w, dist)
    rows = simulate.interface_export(walks[0], args.grid_points)
    _write(args.out, simulate.interface_csv(rows))
    return 0


def cmd_walk2map(args) -> int:
    walk = walk_from_text(_read(args.infile))
    _write(args.out, map_to_json(walk_to_map(walk)))
    return 0


def cmd_map2walk(args) -> int:
    mp = map_from_json(_read(args.infile))
    _write(args.out, walk_to_text(map_to_walk(mp)))
    return 0


def cmd_embed(args) -> int:
    mp = map_from_json(_read(args.infile))
    _write(args.out, render_svg(mp, layers_fallback=args.layers_fallback))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification
    failures = run_verification(quick=args.quick, seed=args.seed or 0,
                                log=sys.stderr)
    if failures:
        print(f"verification failed: {failures} check(s)", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with default argument values")
    p = argparse.ArgumentParser(
        prog="bipolar",
        parents=[common],
        description="Bipolar-oriented planar maps and quadrant walks: exact "
                    "counting, sampling, statistics, and upward drawings.")
    sub = p.add_subparsers(dest="verb", required=True,
                           parser_class=lambda **kw: argparse.ArgumentParser(
                               parents=[common], **kw))

    def add_common(q, stochastic=False, boundary=True):
        q.add_argument("--weights", default="tri",
                       help="preset (tri, quad, uniform, kgon:K) or config file")
        if boundary:
            q.add_argument("--m", type=int, default=0,
                           help="west boundary length minus one")
            q.add_argument("--n", type=int, default=1,
                           help="east boundary length minus one")
        q.add_argument("--edges", type=_positive_int, required=True,
                       help="total edge count of the map")
        q.add_argument("--budget", type=int, default=enumeration.DEFAULT_BUDGET,
                       help="cell budget for exact count tables")
        if stochastic:
            q.add_argument("--nu", help="direct step-distribution file "
                                        "(lines 'dx dy prob')")
            q.add_argument("--seed", type=int, default=None,
                           help="mandatory base seed")
            q.add_argument("--replicas", type=_positive_int, default=1)
            q.add_argument("--method",
                           choices=("exact", "rejection", "free"),
                           default="exact")
            q.add_argument("--max-tries", type=int, default=1_000_000)

    q = sub.add_parser("count", help="exact number of maps / quadrant walks")
    add_common(q)
    q.add_argument("--closed-form", action="store_true",
                   help="use the closed-form triangulation count")

    q = sub.add_parser("sample", help="draw walks/maps and write them out")
    add_common(q, stochastic=True)
    q.add_argument("--walk-out", help="walk file ({} expands to the replica)")
    q.add_argument("--map-out", help="map JSON file ({} expands to the replica)")

    q = sub.add_parser("stats", help="covariance / degree statistics report")
    add_common(q, stochastic=True)
    q.add_argument("--json", help="also write the report as JSON")
    q.add_argument("--bootstrap", type=int, default=1000)
    q.add_argument("--eps", type=float, default=0.05,
                   help="fraction of walk ends excluded from degree stats")

    q = sub.add_parser("interface", help="scaled interface functions as CSV")
    add_common(q, stochastic=True)
    q.add_argument("--grid-points", type=int, default=101)
    q.add_argument("--out", default="-")

    q = sub.add_parser("walk2map", help="walk text to map JSON")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", default="-")

    q = sub.add_parser("map2walk", help="map JSON to walk text")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", default="-")

    q = sub.add_parser("embed", help="upward straight-line drawing as SVG")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", default="-")
    q.add_argument("--layers-fallback", action="store_true",
                   help="layered layout for maps outside the embedding domain")

    q = sub.add_parser("verify", help="run the built-in invariant suite")
    q.add_argument("--quick", action="store_true")
    q.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # pre-scan for --config so file values become defaults
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        cfg = json.loads(Path(known.config).read_text())
        for action in parser._subparsers._group_actions[0].choices.values():
            action.set_defaults(**{k: v for k, v in cfg.items()
                                   if k in {a.dest for a in action._actions}})
    args = parser.parse_args(argv)
    try:
        if args.verb == "count":
            return cmd_count(args)
        if args.verb == "sample":
            return cmd_sample(args, parser)
        if args.verb == "stats":
            return cmd_stats(args, parser)
        if args.verb == "interface":
            return cmd_interface(args, parser)
        if args.verb == "walk2map":
            return cmd_walk2map(args)
        if args.verb == "map2walk":
            return cmd_map2walk(args)
        if args.verb == "embed":
            return cmd_embed(args)
        if args.verb == "verify":
            return cmd_verify(args)
        parser.error(f"unknown verb {args.verb}")
    except NoMapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EnumerationBudgetError, RejectionBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MapStructureError, ValueError) as exc:  # malformed input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BipolarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
