"""The four workloads: inputs made from the seed, one pass of timed work,
the checks on every operation, and the traced-only extras.

Each class builds its inputs in ``__init__`` (the untimed preparation that
``setup_s`` measures) for the run's number of passes, runs one pass of its
timed body in ``run_pass``, and in the traced run adds ``extras`` and reads
its per-layer metrics from the spans.  ``PASS_S`` is the time of one pass's
timed body on the host the benchmark was written on (see harness.py); it
sets how many passes a run makes.  Why each workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import gc
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import bipolar_maps as bm
from bipolar_maps import simulate
from bipolar_maps.enumeration import build_count_table

from harness import OpFailed, Run, loglog_slope, median, percentile
from oracles import drawing_problems, quadrant_walk_count, walk_problem


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# -- large_maps ---------------------------------------------------------------

LARGE_ELL = 30_000
MAPS_PER_PASS = 2
LARGE_LADDER = (3_750, 7_500, 15_000, 30_000)
LARGE_STAGES = ("enumeration.tableau_draw", "sewing.walk_to_map",
                "planar_map.validate", "sewing.map_to_walk", "planar_map.dual",
                "simulate.degrees", "simulate.covariance", "planar_map.to_json")


class LargeMaps:
    """Tri maps with boundary (0,1), drawn by the tableau sampler, through the
    whole analysis pipeline."""

    PASS_S = 5.0

    def __init__(self, seed: int, root: Path, passes: int):
        self.seed = seed
        self.dist = bm.step_distribution(bm.preset_weights("tri"))
        self.draw = bm.exact_sampler(bm.preset_weights("tri"), 0, 1, LARGE_ELL)

    def run_pass(self, run: Run, p: int) -> None:
        for j in range(MAPS_PER_PASS):
            k = p * MAPS_PER_PASS + j
            self._pipeline(run, self.draw, k, f"map{k}", item=True)

    def _pipeline(self, run: Run, draw, stream: int, op: str, item: bool) -> None:
        gc.collect()
        rng = bm.CounterRng(self.seed, stream)
        walk = m = viol = back = dual = report = text = None
        with run.timed("large_maps.map", op, item=item):
            walk = run.call("enumeration.tableau_draw", op, draw, rng)
            m = run.call("sewing.walk_to_map", op, bm.walk_to_map, walk)
            viol = run.call("planar_map.validate", op, bm.validate_bipolar, m)
            back = run.call("sewing.map_to_walk", op, bm.map_to_walk, m)
            dual = run.call("planar_map.dual", op, bm.dual_map, m)
            trace = run.call("simulate.degrees", op, bm.degrees_from_walk, walk)
            report = run.call("simulate.covariance", op, _report, walk, self.dist,
                              bm.CounterRng(self.seed, 1_000_000 + stream), trace)
            text = run.call("planar_map.to_json", op, bm.map_to_json, m)
        if viol is not None:
            run.check("planar_map.validate", op, "violations on a sampled map",
                      lambda: not viol)
        if back is not None:
            run.check("sewing.map_to_walk", op, "map_to_walk(walk_to_map(w)) != w",
                      lambda: back == walk)
        if dual is not None:
            run.check("planar_map.dual", op, "dual map has violations",
                      lambda: not bm.validate_bipolar(dual))
        if report is not None:
            run.check("simulate.covariance", op, "Var[X-Y]/Var[X+Y] not within 5% of 3",
                      lambda: abs(report.ratio / 3.0 - 1.0) <= 0.05)
        # the round trip builds a second map: free the pipeline's first, so
        # that the check does not set the process's peak memory
        del m, viol, back, dual
        if text is not None:
            run.check("planar_map.to_json", op, "JSON round trip != walk",
                      lambda: bm.map_to_walk(bm.map_from_json(text)) == walk)
            run.artifact(f"{op}.walk", bm.walk_to_text(walk))
            run.artifact(f"{op}.map", text)
            run.artifact(f"{op}.report", json.dumps(report.to_json_dict(), sort_keys=True))

    def extras(self, run: Run) -> dict:
        """Per-map pipeline at each ladder size; log-log slope per layer."""
        for ell in LARGE_LADDER:
            draw = bm.exact_sampler(bm.preset_weights("tri"), 0, 1, ell)
            self._pipeline(run, draw, 2_000_000 + ell, f"ladder{ell}", item=False)
        out = {}
        for stage in LARGE_STAGES:
            out[f"{stage}_s"] = median(run.tracer.durations(stage, "map"))
            times = [median(run.tracer.durations(stage, f"ladder{ell}"))
                     for ell in LARGE_LADDER]
            out[f"{stage}.slope"] = loglog_slope(LARGE_LADDER, times)
        return out


def _report(walk, dist, rng, trace):
    report = bm.covariance_report([walk], dist, rng, bootstrap=1000)
    return simulate.attach_degree_stats(report, trace)


# -- small_maps ---------------------------------------------------------------

TABLE_DRAWS = 300
REJECTION_DRAWS = 100
QUAD_ELL = 201
REJECT_ELL = 9


class SmallMaps:
    """Exact counts (table writes), one table sampler and many draws from it
    (table reads), and rejection draws of the uniform model."""

    PASS_S = 5.4

    def __init__(self, seed: int, root: Path, passes: int):
        self.seed = seed
        self.tri = bm.preset_weights("tri")
        self.k5 = bm.preset_weights("kgon:5")
        self.quad = bm.preset_weights("quad")
        self.uniform = bm.step_distribution(bm.preset_weights("uniform"))
        self._k5_expected = None

    def run_pass(self, run: Run, p: int) -> None:
        tri = k5 = draw = None
        op = f"p{p}"
        with run.timed("enumeration.count", op):
            tri = run.call("enumeration.count.tri300", op, bm.count_walks,
                           self.tri, 0, 1, 300, budget=10**7)
            k5 = run.call("enumeration.count.k5_121", op, bm.count_walks,
                          self.k5, 0, 0, 121)
        if tri is not None:
            run.check("enumeration.count.tri300", op, "!= closed form for n = 100",
                      lambda: tri == bm.closed_form_triangulations(100))
            run.artifact(f"{op}.tri300", str(tri))
        if k5 is not None:
            run.check("enumeration.count.k5_121", op, "!= forward recurrence",
                      lambda: k5 == self._k5_oracle())
            run.artifact(f"{op}.k5_121", str(k5))

        with run.timed("enumeration.sampler_build", op):
            draw = run.call("enumeration.sampler_build", op, bm.exact_sampler,
                            self.quad, 0, 0, QUAD_ELL)
        if draw is not None:
            for k in range(TABLE_DRAWS):
                self._table_draw(run, draw, p * 1000 + k, f"p{p}.d{k}")
        for k in range(REJECTION_DRAWS):
            self._rejection_draw(run, 500_000 + p * 1000 + k, f"p{p}.r{k}")

    def _k5_oracle(self) -> int:
        if self._k5_expected is None:
            self._k5_expected = quadrant_walk_count(5, 0, 0, 120)
        return self._k5_expected

    def _table_draw(self, run: Run, draw, stream: int, op: str) -> None:
        rng = bm.CounterRng(self.seed, stream)
        walk = text = None
        with run.timed("small_maps.table_sample", op, item=True):
            walk = run.call("enumeration.table_draw", op, draw, rng)
            m = run.call("sewing.walk_to_map.small", op, bm.walk_to_map, walk)
            text = run.call("planar_map.to_json.small", op, bm.map_to_json, m)
        if walk is not None:
            run.check("enumeration.table_draw", op, "not a quad walk (0,0)->(0,0)",
                      lambda: walk_problem(walk, (0, 0), (0, 0), QUAD_ELL - 1, {4}) is None)
        if text is not None:
            run.check("planar_map.to_json.small", op, "JSON round trip != walk",
                      lambda: bm.map_to_walk(bm.map_from_json(text)) == walk)
            run.artifact(f"{op}.map", text)

    def _rejection_draw(self, run: Run, stream: int, op: str) -> None:
        walk = None
        with run.timed("small_maps.rejection_sample", op):
            walk = run.call("simulate.rejection_draw", op, bm.rejection_sample,
                            self.uniform, 0, 0, REJECT_ELL, bm.CounterRng(self.seed, stream))
        if walk is not None:
            run.check("simulate.rejection_draw", op, "not a quadrant walk (0,0)->(0,0)",
                      lambda: walk_problem(walk, (0, 0), (0, 0), REJECT_ELL - 1) is None
                      and not bm.validate_bipolar(bm.walk_to_map(walk)))
            run.artifact(f"{op}.walk", bm.walk_to_text(walk))

    def extras(self, run: Run) -> dict:
        """Per-layer medians, plus the exact table sizes of the three instances."""
        draws = run.tracer.durations("enumeration.table_draw")
        rejects = run.tracer.durations("simulate.rejection_draw")
        out = {
            "enumeration.count_s": median(run.tracer.durations("enumeration.count")),
            "enumeration.sampler_build_s":
                median(run.tracer.durations("enumeration.sampler_build")),
            "enumeration.table_draw_ms": _ms(median(draws)),
            "sewing.walk_to_map.small_ms":
                _ms(median(run.tracer.durations("sewing.walk_to_map.small"))),
            "planar_map.to_json.small_ms":
                _ms(median(run.tracer.durations("planar_map.to_json.small"))),
            "simulate.rejection_draw_ms": _ms(median(rejects)),
            "simulate.rejection_draw.p90_ms": _ms(percentile(rejects, 90)),
        }
        for key, w, m, n, ell in (("tri300", self.tri, 0, 1, 300),
                                  ("k5_121", self.k5, 0, 0, 121),
                                  ("quad201", self.quad, 0, 0, QUAD_ELL)):
            with suppress(OpFailed):
                table = run.call("enumeration.table_states", key, build_count_table,
                                 w, m, n, ell, budget=10**7)
                out[f"enumeration.table_states.{key}"] = table.states
        return out


# -- embed_ladder -------------------------------------------------------------

RUNGS = (150, 300)
TRACED_ONLY_RUNGS = (600, 1200)
CLIMBS_PER_PASS = 4
TOP_CLIMB = 9_999  # stream of the traced-only maps, apart from every pool climb


class EmbedLadder:
    """Upward drawings of simple triangulations on a doubling ladder of sizes.

    The pool holds CLIMBS_PER_PASS climbs (one map per rung each) for each
    pass of the run, so no climb is drawn twice.
    """

    PASS_S = 0.93

    def __init__(self, seed: int, root: Path, passes: int):
        self.seed = seed
        self.pool = [[(ell, self._simple_map(ell, c)) for ell in RUNGS]
                     for c in range(passes * CLIMBS_PER_PASS)]
        self.first_bits: dict[int, int] = {}

    def _simple_map(self, ell: int, c: int):
        walk = bm.sample_simple_triangulation_walk(
            0, 1, ell, bm.CounterRng(self.seed, c * 10_000 + ell))
        return bm.walk_to_map(walk)

    def run_pass(self, run: Run, p: int) -> None:
        for j in range(CLIMBS_PER_PASS):
            c = p * CLIMBS_PER_PASS + j
            self._climb(run, self.pool[c], f"p{p}.c{c}", item=True, first=c == 0)

    def _climb(self, run: Run, climb, op: str, item: bool, first: bool) -> None:
        done = []
        with run.timed("embed_ladder.climb", op, item=item):
            for ell, m in climb:
                emb = svg = None
                with suppress(OpFailed):
                    emb = run.call(f"embedding.upward_embed.l{ell}", op, bm.upward_embed, m)
                    svg = run.call(f"svg.render.l{ell}", op, bm.render_svg, m, emb)
                done.append((ell, m, emb, svg))
        for ell, m, emb, svg in done:
            if emb is not None:
                run.check(f"embedding.upward_embed.l{ell}", op, "drawing certificate failed",
                          lambda: not drawing_problems(m, emb.coords))
                if first:
                    self.first_bits.setdefault(ell, emb.max_coord_bits())
                if run.tracer.active:
                    problems = run.call(f"embedding.verify.l{ell}", op,
                                        bm.verify_upward_planar, m, emb)
                    run.check(f"embedding.verify.l{ell}", op, "verify_upward_planar found problems",
                              lambda: not problems)
            if svg is not None:
                run.check(f"svg.render.l{ell}", op, "SVG lacks an element per edge and vertex",
                          lambda: svg.count("<line ") == m.n_edges
                          and svg.count("<circle ") == m.n_vertices)
                run.artifact(f"{op}.l{ell}.svg", svg)
            if emb is not None:
                run.artifact(f"{op}.l{ell}.map", bm.map_to_json(m))

    def extras(self, run: Run) -> dict:
        """One map on each upper rung (too slow and too seed-dependent to time
        end to end), per-rung medians, coordinate bits and log-log slopes."""
        top = [(ell, self._simple_map(ell, TOP_CLIMB)) for ell in TRACED_ONLY_RUNGS]
        self._climb(run, top, "top", item=False, first=True)
        out = {}
        rungs = RUNGS + TRACED_ONLY_RUNGS
        for ell in rungs:
            for layer in ("embedding.upward_embed", "embedding.verify", "svg.render"):
                out[f"{layer}.l{ell}_s"] = median(run.tracer.durations(f"{layer}.l{ell}"))
        for ell in rungs:
            out[f"embedding.coord_bits.l{ell}"] = self.first_bits.get(ell, 0)
        for layer in ("embedding.upward_embed", "embedding.verify"):
            out[f"{layer}.slope"] = loglog_slope(
                rungs, [out[f"{layer}.l{ell}_s"] for ell in rungs])
        return out


# -- cli_readme ---------------------------------------------------------------

# The README's CLI lines, verbatim and in order ("bipolar" is the installed
# script; the benchmark runs the same entry point with python -m).
README_LINES = (
    ("count", "count --weights tri --m 0 --n 1 --edges 6"),
    ("count_closed_form", "count --edges 18 --closed-form"),
    ("sample", "sample --weights tri --edges 12 --seed 7 --walk-out w.txt --map-out m.json"),
    ("walk2map", "walk2map --in w.txt --out m.json"),
    ("map2walk", "map2walk --in m.json"),
    ("stats", "stats --weights tri --edges 30000 --m 0 --n 1 --seed 5 --method exact "
              "--json r.json"),
    ("interface", "interface --weights tri --edges 10000 --seed 9 --grid-points 101 "
                  "--out path.csv"),
    ("embed", "embed --in m.json --out m.svg"),
    ("verify_quick", "verify --quick"),
)


class CliExit(Exception):
    """A CLI line exited with a nonzero status."""


class CliReadme:
    """Each README CLI line in a fresh interpreter, one at a time.

    The lines are fixed, so the seed does not change the inputs.
    """

    PASS_S = 4.95

    def __init__(self, seed: int, root: Path, passes: int):
        self.base = root / ".perfbench_out" / f"cli-{os.getpid()}"
        self.work = self.base / "work"
        self.io = self.base / "io"
        self.io.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.python = sys.executable

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)

    def _exec(self, run: Run, argv: list[str]) -> str:
        out, err = self.io / "stdout", self.io / "stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            proc = subprocess.Popen(argv, cwd=self.work, stdout=fo, stderr=fe,
                                    env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        run.peak_child_rss_kb = max(run.peak_child_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            tail = err.read_text(errors="replace").strip().splitlines()
            raise CliExit(f"exit {proc.returncode}: {tail[-1] if tail else ''}")
        return out.read_text()

    def run_pass(self, run: Run, p: int) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()
        for verb, line in README_LINES:
            op = f"p{p}"
            argv = [self.python, "-m", "bipolar_maps.cli", *shlex.split(line)]
            stdout = None
            with run.timed("cli_readme.line", op, item=True):
                stdout = run.call(f"cli.{verb}", op, self._exec, run, argv)
            if stdout is not None:
                self._check(run, verb, op, stdout)
                run.artifact(f"{verb}.stdout", stdout)
        for f in sorted(self.work.iterdir()):
            run.artifact(f.name, f.read_bytes())

    def _check(self, run: Run, verb: str, op: str, stdout: str) -> None:
        name = f"cli.{verb}"

        def read(f):
            return (self.work / f).read_text()

        def roundtrip():
            return (bm.map_to_walk(bm.map_from_json(read("m.json")))
                    == bm.walk_from_text(read("w.txt")))

        if verb == "count":
            run.check(name, op, "does not print 5", lambda: stdout.strip() == "5")
        elif verb == "count_closed_form":
            run.check(name, op, "does not print 87516", lambda: stdout.strip() == "87516")
        elif verb in ("sample", "walk2map"):
            run.check(name, op, "m.json does not encode w.txt", roundtrip)
        elif verb == "map2walk":
            run.check(name, op, "printed walk != w.txt",
                      lambda: bm.walk_from_text(stdout) == bm.walk_from_text(read("w.txt")))
        elif verb == "stats":
            run.check(name, op, "r.json ratio not within 5% of 3",
                      lambda: abs(json.loads(read("r.json"))["ratio"] / 3 - 1) <= 0.05)
        elif verb == "interface":
            run.check(name, op, "path.csv is not a header and 101 rows",
                      lambda: len(read("path.csv").splitlines()) == 102)
        elif verb == "embed":
            run.check(name, op, "m.svg is not an SVG document",
                      lambda: "<svg" in read("m.svg"))
        elif verb == "verify_quick":
            run.check(name, op, "does not report success",
                      lambda: "all checks passed" in stdout)

    def extras(self, run: Run) -> dict:
        """Interpreter start plus `import bipolar_maps.cli`, and each verb's time."""
        starts = []
        for k in range(5):
            t0 = time.perf_counter()
            with suppress(OpFailed):
                run.call("cli.import", f"import{k}", self._exec, run,
                         [self.python, "-c", "import bipolar_maps.cli"])
                starts.append(time.perf_counter() - t0)
        out = {"cli.import_s": median(starts)}
        for verb, _ in README_LINES:
            out[f"cli.{verb}_s"] = median(run.tracer.durations(f"cli.{verb}"))
        return out


WORKLOADS = {
    "large_maps": LargeMaps,
    "small_maps": SmallMaps,
    "embed_ladder": EmbedLadder,
    "cli_readme": CliReadme,
}
