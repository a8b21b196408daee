"""Command-line interface.

Verbs: count, sample, stats, interface, walk2map, map2walk, embed, verify.
Stdout carries data, stderr carries diagnostics; every stochastic verb
requires an explicit --seed, and replica r draws from stream r of it, with
no other stream drawn.  Exit codes: 0 success, 1 infeasible inputs or
failed verification, 2 usage errors or malformed input, 3 resource budget
exceeded (out of memory included).

At load this module imports only ``errors`` and ``rng``, which import no
other module of the package; each verb imports the modules it runs, so
``walk2map`` and ``map2walk`` load ``walks``, ``planar_map`` and
``sewing``, ``embed`` adds ``embedding`` and ``svg``, and
``count --closed-form`` loads no map code.

``count`` and ``sample --method exact`` take their method from one rule,
``enumeration._exact_method``: the hook-length tableau for tri (0,0) and
(0,1) past 120 edges or past ``--budget``, the count table otherwise;
``count --closed-form`` takes the tableau's count or refuses.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (DEFAULT_BUDGET, BipolarError, EnumerationBudgetError,
                     MapStructureError, NoMapsError, RejectionBudgetError)
from .rng import CounterRng

_PRESETS = ("tri", "quad", "uniform")


def _load_weights(spec: str):
    from .weights import preset_weights, weights_from_text
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
    from .weights import direct_distribution_from_text, step_distribution
    if getattr(args, "nu", None):
        return direct_distribution_from_text(Path(args.nu).read_text()), None
    w = _load_weights(args.weights)
    return step_distribution(w), w


def _checked(parse, ok, want: str):
    """An argparse type: ``parse(text)``, refused unless it parses and is ``ok``."""
    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None  # not a number: refused below
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text}")
        return value
    return check


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_trim_fraction = _checked(float, lambda v: 0 <= v < 0.5, "in [0, 0.5)")
_seed = _checked(int, lambda v: 0 <= v < 1 << 64, "an integer in [0, 2**64)")


def _sampler(args, w, dist):
    """The run's one draw(rng) function, chosen from --method and built
    once: the exact count table, or the law's increment draw table, serves
    every replica."""
    if args.method == "exact":
        if w is None:
            raise ValueError("exact sampling needs --weights, not --nu; "
                             "use --method rejection or --method free")
        from .enumeration import exact_sampler
        return exact_sampler(w, args.m, args.n, args.edges, budget=args.budget)
    from . import simulate
    if args.method == "rejection":
        draw = simulate.rejection_sampler(dist, args.m, args.n, args.edges,
                                          max_tries=args.max_tries)
        return lambda rng: draw(rng, 1)[0]
    return simulate.free_sampler(dist, args.edges - 1)


def _replica_walks(args, w, dist):
    draw = _sampler(args, w, dist)
    return [draw(CounterRng(args.seed, rep)) for rep in range(args.replicas)]


def cmd_count(args, parser) -> int:
    from . import enumeration
    w = _load_weights(args.weights)
    table = None if args.closed_form else lambda: enumeration.count_walks(
        w, args.m, args.n, args.edges, budget=args.budget)
    count = enumeration._exact_method(
        w, args.m, args.n, args.edges, table,
        lambda k, r: 0 if r else enumeration.closed_form_triangulations(k))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a count may have more than 4 300 digits
    try:
        print(count)
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def cmd_sample(args, parser) -> int:
    if args.replicas > 1:
        for flag, path in (("--walk-out", args.walk_out), ("--map-out", args.map_out)):
            if path not in (None, "-") and "{}" not in path:
                parser.error(f"{flag} {path}: with --replicas {args.replicas} "
                             "the file name needs {} for the replica number")
    from .walks import walk_to_text
    dist, w = _dist_from_args(args)
    walks = _replica_walks(args, w, dist)
    for rep, walk in enumerate(walks):
        tag = f"{rep:03d}"
        if args.walk_out:
            _write(args.walk_out.replace("{}", tag), walk_to_text(walk))
        if args.map_out:
            from .planar_map import map_to_json
            from .sewing import walk_to_map
            mp = walk_to_map(walk)
            _write(args.map_out.replace("{}", tag), map_to_json(mp))
    if not args.walk_out and not args.map_out:
        for walk in walks:
            sys.stdout.write(walk_to_text(walk))
    return 0


def cmd_stats(args, parser) -> int:
    from . import enumeration, simulate
    dist, w = _dist_from_args(args)
    walks = _replica_walks(args, w, dist)
    report = simulate.covariance_report(walks, dist)
    if (args.method in ("exact", "rejection") and w is not None
            and enumeration.is_triangulation(w)):
        simulate.attach_degree_stats(
            report, *map(simulate.degrees_from_walk, walks), eps=args.eps)
    if args.json:
        _write(args.json, json.dumps(report.to_json_dict(), indent=2) + "\n")
    print(report.human_table())
    return 0


def cmd_interface(args, parser) -> int:
    dist, w = _dist_from_args(args)
    draw = _sampler(args, w, dist)
    # after the sampler accepts the boundary data, so infeasible data exit
    # without it, and before the draw, so compiling it adds no peak memory
    from . import simulate
    walk = draw(CounterRng(args.seed, 0))
    rows = simulate.interface_export(walk, args.grid_points)
    _write(args.out, simulate.interface_csv(rows))
    return 0


def cmd_walk2map(args, parser) -> int:
    from .planar_map import map_to_json
    from .sewing import walk_to_map
    from .walks import walk_from_text
    walk = walk_from_text(_read(args.infile))
    _write(args.out, map_to_json(walk_to_map(walk)))
    return 0


def cmd_map2walk(args, parser) -> int:
    from .planar_map import map_from_json
    from .sewing import map_to_walk
    from .walks import walk_to_text
    mp = map_from_json(_read(args.infile))
    _write(args.out, walk_to_text(map_to_walk(mp)))
    return 0


def cmd_embed(args, parser) -> int:
    from .planar_map import map_from_json
    from .svg import render_svg
    mp = map_from_json(_read(args.infile))
    _write(args.out, render_svg(mp))
    return 0


def cmd_verify(args, parser) -> int:
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

    def add_common(q, stochastic=False):
        q.add_argument("--weights", default="tri",
                       help="preset (tri, quad, uniform, kgon:K) or config file")
        q.add_argument("--m", type=int, default=0,
                       help="west boundary length minus one")
        q.add_argument("--n", type=int, default=1,
                       help="east boundary length minus one")
        q.add_argument("--edges", type=_positive_int, required=True,
                       help="total edge count of the map")
        q.add_argument("--budget", type=_positive_int,
                       default=DEFAULT_BUDGET,
                       help="cell budget for exact count tables")
        if stochastic:
            q.add_argument("--nu", help="direct step-distribution file "
                                        "(lines 'dx dy prob')")
            q.add_argument("--seed", type=_seed, default=None,
                           help="mandatory base seed, 0 <= seed < 2**64")
            q.add_argument("--method",
                           choices=("exact", "rejection", "free"),
                           default="exact")
            q.add_argument("--max-tries", type=_positive_int, default=1_000_000)

    q = sub.add_parser("count", help="exact number of maps / quadrant walks")
    q.set_defaults(run=cmd_count)
    add_common(q)
    q.add_argument("--closed-form", action="store_true",
                   help="take the hook-length count of tri (0,0) or (0,1), or refuse")

    q = sub.add_parser("sample", help="draw walks/maps and write them out")
    q.set_defaults(run=cmd_sample)
    add_common(q, stochastic=True)
    q.add_argument("--replicas", type=_positive_int, default=1)
    q.add_argument("--walk-out", help="walk file ({} expands to the replica)")
    q.add_argument("--map-out", help="map JSON file ({} expands to the replica)")

    q = sub.add_parser("stats", help="covariance / degree statistics report")
    q.set_defaults(run=cmd_stats)
    add_common(q, stochastic=True)
    q.add_argument("--replicas", type=_positive_int, default=1)
    q.add_argument("--json", help="also write the report as JSON")
    q.add_argument("--eps", type=_trim_fraction, default=0.05,
                   help="fraction of walk ends excluded from degree stats")

    q = sub.add_parser("interface", help="scaled interface functions as CSV")
    q.set_defaults(run=cmd_interface)
    add_common(q, stochastic=True)
    q.add_argument("--grid-points", type=int, default=101)
    q.add_argument("--out", default="-")

    q = sub.add_parser("walk2map", help="walk text to map JSON")
    q.set_defaults(run=cmd_walk2map)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", default="-")

    q = sub.add_parser("map2walk", help="map JSON to walk text")
    q.set_defaults(run=cmd_map2walk)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", default="-")

    q = sub.add_parser("embed", help="certified upward drawing as SVG")
    q.set_defaults(run=cmd_embed)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", default="-")

    q = sub.add_parser("verify", help="run the built-in invariant suite")
    q.set_defaults(run=cmd_verify)
    q.add_argument("--quick", action="store_true")
    q.add_argument("--seed", type=_seed, default=0)
    return p


def _apply_config(parser, path: str) -> None:
    """Make a JSON object's values the verbs' defaults, checked like typed values.

    argparse runs an option's type and choices only on command-line strings,
    so each value goes through them here; a bad value or file is a usage
    error (exit 2).
    """
    try:
        cfg = json.loads(Path(path).read_text())
    # json.loads raises RecursionError on too deep a nesting
    except (OSError, ValueError, RecursionError) as exc:
        parser.error(f"--config {path}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"--config {path}: expected a JSON object, "
                     f"got {type(cfg).__name__}")
    for verb in parser._subparsers._group_actions[0].choices.values():
        defaults = {}
        for action in verb._actions:
            if action.dest not in cfg:
                continue
            value = cfg[action.dest]
            try:
                if action.nargs == 0:  # a flag
                    if not isinstance(value, bool):
                        raise argparse.ArgumentError(
                            action, f"expected true or false, got {value!r}")
                else:
                    value = verb._get_value(action, str(value))
                    verb._check_value(action, value)
            except argparse.ArgumentError as exc:
                parser.error(f"--config {path}: {exc}")
            defaults[action.dest] = value
        verb.set_defaults(**defaults)


# the exit code of each kind of error, the first match counting
_EXIT_CODES = ((NoMapsError, 1),
               ((EnumerationBudgetError, RejectionBudgetError, MemoryError), 3),
               ((MapStructureError, ValueError, OSError), 2),  # malformed input
               (BipolarError, 1))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # pre-scan for --config so file values become defaults
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        _apply_config(parser, known.config)
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) is None:  # a stochastic verb without --seed
        parser.error("--seed is required for stochastic verbs")
    try:
        return args.run(args, parser)
    except (BipolarError, ValueError, OSError, MemoryError) as exc:
        # a MemoryError may carry no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
