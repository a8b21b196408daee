#!/usr/bin/env python3
"""Benchmark of the bipolar_maps library and CLI.

One run measures one workload in this single process, pinned with its
children to one CPU, then prints one JSON line (the last line of stdout):

    python3 perfbench/run.py --workload large_maps --seed 1 --seconds 18 --trace 0

The work of a run is fixed: as many passes of the workload's timed body as
make about --seconds of timed work at its reference pass time (PASS_S in
workloads.py), so a seed always gives the same operations.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from spans around
every call into the library (per-layer metrics of other workloads read 0).
Times are reported at reference speed (see harness.py); the measured
values are kept in the result file.
``--workload all`` runs every workload untraced and traced in turn and
prints a table.  Run from the root of a checkout: the program is imported
from ./src and nothing is installed.  Results, span traces and artifact
digests go to ./.perfbench_out/.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

# single-threaded numeric libraries in this process and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
NAMES = ("large_maps", "small_maps", "embed_ladder", "cli_readme")


def import_program():
    """Imports bipolar_maps from ./src, refusing any other copy."""
    pkg = SRC / "bipolar_maps"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"run.py: no program source at {pkg}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import bipolar_maps
    if Path(bipolar_maps.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"run.py: imported bipolar_maps from {bipolar_maps.__file__}, not {pkg}")
    return bipolar_maps


def metric_spec() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def setup_probe(workload: str, seed: int, passes: int) -> None:
    """Child process: cold import plus the workload's preparation, in seconds."""
    t0 = time.perf_counter()
    import_program()
    t_import = time.perf_counter() - t0
    import workloads
    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[workload](seed, ROOT, passes)
    t_prep = time.perf_counter() - t1
    getattr(wl, "close", lambda: None)()
    print(json.dumps(t_import + t_prep))


def measure_setup(workload: str, seed: int, passes: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, and reference times taken between them."""
    from harness import reference_time
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                              "--workload", workload, "--seed", str(seed),
                              "--passes", str(passes)],
                             capture_output=True, text=True, cwd=ROOT, check=True)
        times.append(float(res.stdout.strip().splitlines()[-1]))
        probes += [reference_time(), reference_time()]
    return times, probes


def pass_count(cls, seconds: float, traced: bool) -> int:
    """Fixed work for a run: as many passes as fill ``seconds`` at the
    workload's reference pass time.  A traced run makes at least two.

    The count depends only on the arguments, never on the clock, so a
    seed always gives the same operations (and the same failures).
    """
    return max(2 if traced else 1, round(seconds / cls.PASS_S))


def measure(wl, run, passes: int, traced: bool) -> tuple[list, list, list]:
    """Runs the passes; in a traced run odd passes are traced.

    Pass inputs depend only on (seed, pass index); pass 0 feeds the digest.
    Returns the timed-body times of untraced and traced passes, and the
    whole time of each pass (checks included).
    """
    plain, spanned, whole = [], [], []
    for p in range(passes):
        run.tracer.active = traced and p % 2 == 1
        run.record_artifacts = p == 0
        run.pass_time = 0.0
        gc.collect()
        t0 = time.perf_counter()
        wl.run_pass(run, p)
        whole.append(time.perf_counter() - t0)
        (spanned if run.tracer.active else plain).append(run.pass_time)
    run.record_artifacts = False
    run.tracer.active = traced
    return plain, spanned, whole


def code_hash() -> str:
    h = hashlib.sha256()
    for f in sorted(list((SRC / "bipolar_maps").rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def check_digest(workload: str, seed: int, digest: str) -> str | None:
    """Same-seed runs of the same code must produce identical artifacts."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}|{seed}|{code_hash()}"
    if key in known and known[key] != digest:
        return f"artifact digest {digest[:16]} differs from {known[key][:16]} of an earlier run"
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def machine_info() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(),
            "code_sha256": code_hash()}


def git_sha() -> str:
    """HEAD of the checkout when it is a git repository."""
    if (ROOT / ".git").exists():
        with suppress(OSError, subprocess.CalledProcessError):
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                  capture_output=True, text=True).stdout.strip()
    return "unknown (not a git checkout)"


def run_one(args) -> int:
    end_units, layer_units = metric_spec()
    # one CPU for this process and every child it starts, so that the
    # reference probes run where the measured work runs (see harness.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_program()
    import workloads
    from harness import Run, median, percentile, speed_factor

    cls = workloads.WORKLOADS[args.workload]
    passes = pass_count(cls, args.seconds, bool(args.trace))
    setup, setup_probes = (([], []) if args.trace
                           else measure_setup(args.workload, args.seed, passes))
    wl = cls(args.seed, ROOT, passes)
    run = Run()
    try:
        plain, spanned, whole = measure(wl, run, passes, bool(args.trace))
        extra = wl.extras(run) if args.trace else {}
    finally:
        getattr(wl, "close", lambda: None)()

    if args.trace:
        values = {name: 0.0 for name in layer_units}
        values.update(extra)
        values["trace.overhead_s"] = median(spanned) - median(plain)
        units = layer_units
    else:
        rss_kb = run.peak_child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"wall_s": median(plain), "setup_s": median(setup),
                  "peak_rss_mb": rss_kb / 1024.0,
                  "item_p50_ms": percentile(run.items, 50) * 1000.0,
                  "item_p85_ms": percentile(run.items, 85) * 1000.0}
        units = end_units
    unknown = sorted(set(values) - set(units))
    if unknown:
        print(f"run.py: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
    # each time is scaled by the reference times taken in its own period
    factor = speed_factor(run.probes)
    setup_factor = speed_factor(setup_probes)
    raw = {name: values[name] for name in units}
    values = {name: v * (setup_factor if name == "setup_s" else factor)
              if units[name] in ("s", "ms") else v for name, v in raw.items()}

    digest = run.digest.hexdigest()
    OUT.mkdir(exist_ok=True)
    mismatch = check_digest(args.workload, args.seed, digest)
    correct = run.wrong == 0 and mismatch is None
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": correct, "attempted": run.attempted, "failed": len(run.failed_ops),
              "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps({
        **result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": {"untraced": plain, "traced": spanned, "whole": whole}, "items": run.items,
        "setup_samples": setup, "setup_reference_s": setup_probes,
        "setup_speed_factor": setup_factor,
        "speed_factor": factor, "reference_s": run.probes,
        "raw_values": raw, "digest": digest, "digest_mismatch": mismatch,
        "peak_rss_kb": {"process": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                        "at_end_of_timed_blocks": run.timed_rss_kb,
                        "cli_children": run.peak_child_rss_kb},
        "failures": dict(run.reasons), "machine": machine_info()}, indent=1))
    if args.trace:
        (OUT / "traces").mkdir(exist_ok=True)
        (OUT / "traces" / f"{stem}.json").write_text(json.dumps(run.tracer.as_json()))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(spanned)} traced passes, {len(run.items)} items")
    for name, m in metrics.items():
        if not args.trace or name in extra or name == "trace.overhead_s":
            print(f"  {name} = {m['value']:.6g} {m['unit']} (measured {raw[name]:.6g})")
    for reason, count in sorted(run.reasons.items()):
        print(f"  failed x{count}: {reason}")
    if mismatch:
        print(f"  {mismatch}")
    print(f"  speed factor {factor:.4f} from {len(run.probes)} reference probes "
          f"(set-up {setup_factor:.4f} from {len(setup_probes)})")
    print(f"  digest sha256:{digest}")
    print(f"  correct={correct} attempted={run.attempted} failed={len(run.failed_ops)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, with the tracing overhead."""
    status = 0
    for name in NAMES:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)],
                                  capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                status = 1
                break
            *summary, last = proc.stdout.strip().splitlines()
            print("\n".join(summary))
            results[trace] = json.loads(last)
        if len(results) == 2:
            overhead = results[1]["metrics"]["trace.overhead_s"]["value"]
            wall = results[0]["metrics"]["wall_s"]["value"]
            ok = results[0]["correct"] and results[1]["correct"]
            print(f"== {name}: correct={ok} failed={results[0]['failed']}/"
                  f"{results[0]['attempted']} tracing overhead "
                  f"{overhead:+.4f} s on a {wall:.4f} s pass\n")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--passes", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.passes)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
