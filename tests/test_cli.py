import importlib
import io
import json
import os
import shlex
import subprocess
import sys
import warnings
from math import factorial
from pathlib import Path

import pytest

import bipolar_maps
from bipolar_maps import enumeration, simulate
from bipolar_maps.cli import main
from bipolar_maps.embedding import visibility_drawing
from bipolar_maps.enumeration import exact_sample
from bipolar_maps.planar_map import canonical_form, map_from_json, map_to_json
from bipolar_maps.rng import CounterRng
from bipolar_maps.sewing import walk_to_map
from bipolar_maps.simulate import interface_csv, interface_export
from bipolar_maps.walks import walk_from_text, walk_to_text
from bipolar_maps.weights import preset_weights, step_distribution, weights_from_text


@pytest.fixture(autouse=True)
def int_str_digits():
    """Each test here gets the interpreter's limit on int-to-str digits back,
    if it lifts the limit to parse a long count."""
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--weights", "tri", "--m", "0",
                       "--n", "1", "--edges", "6")
    assert code == 0 and out.strip() == "5"


def test_count_closed_form(capsys):
    code, out, _ = run(capsys, "count", "--edges", "18", "--closed-form")
    assert code == 0 and out.strip() == "87516"


def test_count_zero(capsys):
    code, out, _ = run(capsys, "count", "--weights", "quad", "--m", "1",
                       "--n", "0", "--edges", "8")
    assert code == 0 and out.strip() == "0"


def test_sample_deterministic_and_unique(capsys):
    code, out, _ = run(capsys, "sample", "--weights", "tri", "--edges", "3",
                       "--m", "0", "--n", "1", "--seed", "7")
    assert code == 0
    walk = walk_from_text(out)
    assert len(walk.moves) == 2
    code2, out2, _ = run(capsys, "sample", "--weights", "tri", "--edges", "3",
                         "--m", "0", "--n", "1", "--seed", "7")
    assert out2 == out


def test_sample_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "sample", "--weights", "tri", "--edges", "3")
    assert exc.value.code == 2


def test_sample_infeasible_exit_code(capsys):
    code, _, err = run(capsys, "sample", "--weights", "quad", "--m", "1",
                       "--n", "0", "--edges", "8", "--seed", "1")
    assert code == 1 and "odd" in err


def test_sample_without_a_walk_exit_code(capsys):
    # 29 steps cannot bring y down from 40; no proposal is drawn
    code, _, err = run(capsys, "sample", "--weights", "uniform", "--method",
                       "rejection", "--m", "40", "--n", "0", "--edges", "30",
                       "--seed", "1")
    assert code == 1 and err.startswith("error: no such maps") and "edge moves" in err


def test_weights_without_a_zero_drift_root_are_an_error(tmp_path, capsys):
    for degree, reason in (
            # below lambda = 1 the drift sum is NaN: the degree-10**200 term is inf * 0.0
            (10 ** 200, "the drift sum is NaN"),
            # the root lies between 1.0 and the float below it
            (10 ** 20, "the root lies within a float step of lambda=1.0,")):
        weights = tmp_path / "w.txt"
        weights.write_text(f"3 1\n{degree} 1\n")
        for argv in (["sample", "--seed", "1"], ["sample", "--seed", "1", "--method", "free"],
                     ["stats", "--seed", "1"], ["stats", "--seed", "1", "--method", "free"]):
            code, _, err = run(capsys, *argv, "--weights", str(weights), "--edges", "30")
            assert code == 1, argv
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            if "free" in argv:
                assert reason in err, err
        # counting needs no step law, and only the triangles fit in 29 steps
        code, out, _ = run(capsys, "count", "--weights", str(weights), "--edges", "30")
        assert code == 0 and out == run(capsys, "count", "--edges", "30")[1]


def test_budget_exit_code(capsys):
    # tri (2,2) at 2 000 edges is off the congruence (1 999 is not 2 mod 3):
    # it prints 0 before the budget is looked at; at 2 001 the table is over it
    flags = ("count", "--weights", "tri", "--m", "2", "--n", "2", "--budget", "1000")
    assert run(capsys, *flags, "--edges", "2000") == (0, "0\n", "")
    code, _, err = run(capsys, *flags, "--edges", "2001")
    assert code == 3 and "budget" in err


def test_count_checks_feasibility_before_the_budget(capsys):
    # the table would be 2 001 000 cells, but quad walks of odd length do
    # not close: count prints 0 at once, where sample finds no maps
    flags = ("--weights", "quad", "--m", "0", "--n", "0", "--edges", "3000")
    assert run(capsys, "count", *flags) == (0, "0\n", "")
    code, _, err = run(capsys, "sample", *flags, "--seed", "1")
    assert code == 1 and "congruence" in err


def test_law_too_large_to_draw_from_is_a_budget_error(tmp_path, capsys):
    # a draw table of 10**9 face moves is refused before it is built; an
    # exact draw of 29 steps takes only the triangles and draws as tri does
    weights = tmp_path / "w.txt"
    weights.write_text("3 1\n1000000000 1\n")
    for method, edges in (("free", "10"), ("rejection", "30")):
        code, out, err = run(capsys, "sample", "--weights", str(weights), "--method",
                             method, "--edges", edges, "--seed", "1")
        assert code == 3 and out == "", method
        assert len(err.splitlines()) == 1 and err.startswith("error: draw table"), err
        assert "1000000001 face moves" in err and str(enumeration.DEFAULT_BUDGET) in err
    code, out, _ = run(capsys, "sample", "--weights", str(weights), "--edges", "30",
                       "--seed", "1")
    assert code == 0
    assert out == run(capsys, "sample", "--edges", "30", "--seed", "1")[1]


@pytest.mark.parametrize("argv, call, message", [
    (["stats", "--method", "free", "--edges", "30", "--seed", "1"], "covariance_report",
     "Unable to allocate 22.4 GiB for an array with shape (1000000000, 3) and "
     "data type int64"),
    (["interface", "--edges", "30", "--seed", "1", "--grid-points", "1000000000"],
     "interface_export", ""),
], ids=["stats-bootstrap", "interface-grid"])
def test_out_of_memory_is_a_budget_error(monkeypatch, capsys, argv, call, message):
    def allocate(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(bipolar_maps.simulate, call, allocate)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: {message or 'out of memory'}\n"


def test_walk_map_conversion(tmp_path, capsys):
    walk_file = tmp_path / "w.txt"
    map_file = tmp_path / "m.json"
    code, _, _ = run(capsys, "sample", "--weights", "tri", "--edges", "12",
                     "--seed", "3", "--walk-out", str(walk_file),
                     "--map-out", str(map_file))
    assert code == 0
    code, out, _ = run(capsys, "walk2map", "--in", str(walk_file))
    assert code == 0
    mp = map_from_json(out)
    expect = walk_to_map(walk_from_text(walk_file.read_text()))
    assert canonical_form(mp) == canonical_form(expect)
    code, out, _ = run(capsys, "map2walk", "--in", str(map_file))
    assert code == 0
    assert walk_from_text(out) == walk_from_text(walk_file.read_text())


def test_embed_svg(tmp_path, capsys):
    map_file = tmp_path / "m.json"
    while True:  # find a simple sample for embedding
        for seed in range(50):
            run(capsys, "sample", "--weights", "tri", "--edges", "9",
                "--seed", str(seed), "--map-out", str(map_file))
            mp = map_from_json(map_file.read_text())
            seen = set()
            if all((t, h) not in seen and not seen.add((t, h))
                   for t, h in mp.edges):
                code, out, _ = run(capsys, "embed", "--in", str(map_file))
                assert code == 0
                assert out.startswith("<?xml") and "interface" in out
                assert 'class="edge nw-tree' in out or 'nw-tree' in out
                return
        raise AssertionError("no simple sample found")


def test_embed_fallback(tmp_path, capsys):
    # the closed 4-edge map has a doubled edge: it draws certified, each
    # bent edge one polyline, and the layered fallback's flag is gone
    map_file = tmp_path / "m.json"
    run(capsys, "sample", "--weights", "tri", "--edges", "4", "--m", "0",
        "--n", "0", "--seed", "1", "--map-out", str(map_file))
    code, out, _ = run(capsys, "embed", "--in", str(map_file))
    assert code == 0 and "data-planarity" not in out
    mp = map_from_json(map_file.read_text())
    assert out.count('<polyline id="e') == len(visibility_drawing(mp).bends) == 3
    with pytest.raises(SystemExit) as exc:
        run(capsys, "embed", "--in", str(map_file), "--layers-fallback")
    assert exc.value.code == 2


def test_interface_csv(capsys):
    code, out, _ = run(capsys, "interface", "--weights", "tri", "--edges",
                       "12", "--seed", "2", "--grid-points", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,y" and len(lines) == 6


def test_stats_json(tmp_path, capsys):
    out_json = tmp_path / "r.json"
    code, out, _ = run(capsys, "stats", "--weights", "tri", "--edges", "600",
                       "--m", "0", "--n", "1", "--seed", "4", "--method",
                       "exact", "--json", str(out_json))
    assert code == 0 and "Var[X-Y]" in out
    data = json.loads(out_json.read_text())
    assert data["n_steps"] == 599
    assert "degrees" in data


def test_stats_json_is_strict_on_tiny_samples(tmp_path, capsys):
    # three steps of two distinct increments: the interval has width 0, not NaN
    out_json = tmp_path / "r.json"

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    def stats(*argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "stats", *argv, "--seed", "1",
                                 "--json", str(out_json))
        assert code == 0 and not caught and "Warning" not in err
        return out, json.loads(out_json.read_text(), parse_constant=reject)

    _, data = stats("--method", "free", "--edges", "4")
    assert data["ratio_ci_95"] == [9.0, 9.0]
    # conditioned maps of 4 and 7 edges have bulk degrees of one value on a
    # side, whose correlation is undefined: null, and "-" in the table
    for edges in ("4", "7"):
        out, data = stats("--weights", "tri", "--m", "0", "--n", "0", "--edges", edges,
                          "--method", "exact", "--replicas", "1")
        assert data["degrees"]["in_out_correlation"] is None
        assert out.splitlines()[-1].split() == ["corr(in,", "out)", "-"]


def test_stats_builds_one_count_table(monkeypatch, capsys):
    calls = []
    build = enumeration.build_count_table

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(enumeration, "build_count_table", counted)
    code, _, _ = run(capsys, "stats", "--weights", "quad", "--m", "0", "--n", "0",
                     "--edges", "21", "--seed", "1", "--replicas", "3")
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("method", ["free", "rejection"])
def test_sample_builds_one_draw_table(tmp_path, monkeypatch, capsys, method):
    # the replicas share one draw table of the step law (building it was the
    # cost of a 300 000-gon law's draw), and replica r still draws stream r
    law = tmp_path / "law.txt"
    law.write_text("3 1\n30 1\n")
    dist = step_distribution(weights_from_text(law.read_text()))
    draws = {"free": lambda rng: simulate.free_walk(dist, 29, rng),
             "rejection": lambda rng: simulate.rejection_sample(dist, 0, 1, 30, rng)}
    expected = "".join(walk_to_text(draws[method](CounterRng(1, r))) for r in range(3))
    calls = []
    build = simulate._increment_draw

    def counted(dist):
        calls.append(dist)
        return build(dist)

    monkeypatch.setattr(simulate, "_increment_draw", counted)
    assert run(capsys, "sample", "--weights", str(law), "--method", method,
               "--edges", "30", "--seed", "1", "--replicas", "3") == (0, expected, "")
    assert len(calls) == 1


def test_sample_replica_r_draws_stream_r(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "sample", "--weights", "quad", "--m", "0", "--n", "0",
                     "--edges", "21", "--seed", "1", "--replicas", "3",
                     "--walk-out", "w{}.txt")
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "w000.txt", "w001.txt", "w002.txt"]
    quad = preset_weights("quad")
    for r in range(3):
        walk = exact_sample(quad, 0, 0, 21, CounterRng(1, r))
        assert (tmp_path / f"w{r:03d}.txt").read_text() == walk_to_text(walk)


def test_sample_replicas_need_numbered_files(tmp_path, monkeypatch, capsys):
    # one file for several replicas would keep only the last; stdout keeps all
    monkeypatch.chdir(tmp_path)
    argv = ["sample", "--weights", "quad", "--m", "0", "--n", "0", "--edges", "9",
            "--seed", "1", "--replicas", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--walk-out", "w.txt"])
    assert exc.value.code == 2 and list(tmp_path.iterdir()) == []
    assert "--walk-out w.txt" in capsys.readouterr().err
    code, out, _ = run(capsys, *argv, "--walk-out", "-")
    quad = preset_weights("quad")
    assert code == 0 and out == "".join(
        walk_to_text(exact_sample(quad, 0, 0, 9, CounterRng(1, r))) for r in range(2))
    code, _, _ = run(capsys, *argv[:-1], "1", "--walk-out", "w.txt")
    assert code == 0 and [p.name for p in tmp_path.iterdir()] == ["w.txt"]


def test_stats_replica_r_draws_stream_r(monkeypatch, capsys):
    # the interval draws nothing: the only streams are the replicas' own
    streams = []
    init = CounterRng.__init__

    def recording(self, seed, stream=0):
        init(self, seed, stream)
        streams.append((seed, stream))

    monkeypatch.setattr(CounterRng, "__init__", recording)
    for method in ("exact", "rejection", "free"):
        streams.clear()
        code, _, _ = run(capsys, "stats", "--method", method, "--edges", "30",
                         "--seed", "1", "--replicas", "12")
        assert code == 0 and streams == [(1, r) for r in range(12)], method


def test_interface_exports_the_replica_zero_draw(capsys):
    code, out, _ = run(capsys, "interface", "--weights", "tri", "--edges", "99",
                       "--seed", "9", "--grid-points", "11")
    walk = exact_sample(preset_weights("tri"), 0, 1, 99, CounterRng(9, 0))
    assert code == 0 and out == interface_csv(interface_export(walk, 11))


@pytest.mark.parametrize("edges", [300, 1000, 30001])
@pytest.mark.parametrize("n", [0, 1])
def test_count_takes_the_method_sample_takes(capsys, n, edges):
    # the tableau serves tri (0, 0) and (0, 1) past 120 edges: count prints
    # f^(k,k,k) wherever sample draws, and 0 where sample finds no maps
    k, r = divmod(edges + n - 1, 3)
    flags = ("--weights", "tri", "--m", "0", "--n", str(n), "--edges", str(edges))
    sampled = run(capsys, "sample", *flags, "--seed", "1")[0]
    for closed_form in ((), ("--closed-form",)):
        code, out, _ = run(capsys, "count", *flags, *closed_form)
        assert code == 0 and sampled == (1 if r else 0)
        sys.set_int_max_str_digits(0)  # the fixture puts the limit back
        assert int(out) == (0 if r else 2 * factorial(3 * k) // (
            factorial(k) * factorial(k + 1) * factorial(k + 2)))


def test_count_keeps_the_int_digit_limit(capsys):
    # count lifts the limit on int-to-str digits for its print only
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "count", "--weights", "tri", "--m", "0", "--n", "0",
                       "--edges", "30001")
    assert code == 0 and len(out) == 14299
    assert sys.get_int_max_str_digits() == limit != 0


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": "tri", "m": 0, "n": 1, "edges": 6}))
    code, out, _ = run(capsys, "count", "--config", str(cfg), "--edges", "6")
    assert code == 0 and out.strip() == "5"


def test_config_file_sets_a_flag(tmp_path, capsys):
    # a flag in the file is a default: closed_form refuses a boundary that
    # has no closed form, rather than build the table a budget of 10 cells
    # refuses
    cfg = tmp_path / "cfg.json"
    for closed_form, want in ((True, (2, "")), (False, (3, ""))):
        cfg.write_text(json.dumps({"closed_form": closed_form, "budget": 10}))
        code, out, _ = run(capsys, "count", "--config", str(cfg), "--edges", "18",
                           "--m", "1", "--n", "0")
        assert (code, out.strip()) == want


def test_map2walk_reads_stdin(monkeypatch, capsys):
    walk = exact_sample(preset_weights("tri"), 0, 1, 12, CounterRng(7))
    monkeypatch.setattr(sys, "stdin", io.StringIO(map_to_json(walk_to_map(walk))))
    code, out, _ = run(capsys, "map2walk", "--in", "-")
    assert code == 0 and out == walk_to_text(walk)


def test_verify_quick(capsys):
    code, out, err = run(capsys, "verify", "--quick")
    assert code == 0
    assert "all checks passed" in out
    assert "ok -" in err


def test_stats_pools_replicas(tmp_path, capsys):
    out_json = tmp_path / "r.json"
    code, _, _ = run(capsys, "stats", "--weights", "tri", "--edges", "600",
                     "--seed", "4", "--replicas", "2", "--json", str(out_json))
    assert code == 0
    degrees = json.loads(out_json.read_text())["degrees"]
    assert sum(degrees["joint_hist"].values()) == sum(degrees["in_hist"].values()) > 0


TRI_NU = ("1 -1 0.3333333333333333\n-1 0 0.3333333333333333\n"
          "0 1 0.3333333333333334\n")
# a valid one-edge map; the cases below swap in an edge ref or an endpoint of
# 10**30, a vertex count of 10**12, and the edge refs 0 and -(E+1)
HUGE_MAP = ('{"vertices": 2, "south": 0, "north": 1, "west": 0, "edges": [[0, 1]], '
            '"rotations": [[1], [-1]]}')
# nested past the parser's recursion limit
DEEP_JSON = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("argv, infile, content", [
    (["count", "--edges", "0"], None, None),
    (["walk2map"], ("--in", "w.txt"), "0 0\nF -1 0\n"),
    (["map2walk"], ("--in", "m.json"), '{"vertices": "3", "south": 0, "north": 1, '
                                       '"west": 0, "edges": [[0, 1]], '
                                       '"rotations": [[1], [-1]]}'),
    (["map2walk"], ("--in", "m.json"), "[1, 2]"),
    (["sample", "--method", "rejection", "--m", "-1", "--n", "0", "--edges", "5",
      "--seed", "1"], None, None),
    (["count", "--edges", "10", "--m", "-1"], None, None),
    (["interface", "--edges", "10", "--seed", "1", "--replicas", "0"], None, None),
    (["stats", "--edges", "10", "--seed", "1", "--replicas", "0"], None, None),
    (["count", "--edges", "18", "--closed-form", "--m", "2", "--n", "2"], None, None),
    (["count", "--edges", "18", "--closed-form", "--weights", "quad"], None, None),
    (["stats", "--edges", "40", "--seed", "1"], ("--nu", "nu.txt"), TRI_NU),
    (["stats", "--edges", "30", "--seed", "1", "--bootstrap", "-1"], None, None),
    (["stats", "--edges", "30", "--seed", "1", "--bootstrap", "0"], None, None),
    (["count", "--weights", "uniform", "--edges", "5"], None, None),
    (["sample", "--weights", "uniform", "--m", "0", "--n", "0", "--edges", "9",
      "--seed", "1"], None, None),
    (["count", "--edges", "5"], ("--weights", "w.txt"), "3 1/0\n"),
    (["count", "--edges", "6", "--budget", "-1"], None, None),
    (["sample", "--weights", "uniform", "--m", "0", "--n", "0", "--edges", "9",
      "--seed", "1", "--method", "rejection", "--max-tries", "-3"], None, None),
    (["stats", "--edges", "300", "--seed", "1", "--eps", "0.7"], None, None),
    (["stats", "--edges", "300", "--seed", "1", "--eps", "nan"], None, None),
    (["count", "--edges", "x"], None, None),
    (["stats", "--edges", "30", "--seed", "1", "--eps", "abc"], None, None),
    (["count", "--edges", "6"], ("--config", "cfg.json"), '{"budget": -5}'),
    (["stats", "--edges", "30", "--seed", "1"], ("--config", "cfg.json"),
     '{"eps": 0.7, "budget": -5}'),
    (["stats", "--edges", "30", "--seed", "1"], ("--config", "cfg.json"),
     '{"eps": 0.7}'),
    (["sample", "--edges", "6", "--seed", "1"], ("--config", "cfg.json"),
     '{"method": "bogus"}'),
    (["count", "--edges", "18"], ("--config", "cfg.json"), '{"closed_form": 1}'),
    (["count", "--edges", "6", "--config", "no/such/cfg.json"], None, None),
    (["count", "--edges", "6"], ("--config", "cfg.json"), '{"budget": 5'),
    (["count", "--edges", "6"], ("--config", "cfg.json"), '[1, 2]'),
    (["count", "--edges", "6", "--weights", "no/such/weights.txt"], None, None),
    (["walk2map", "--in", "no/such/walk.txt"], None, None),
    (["count", "--edges", "6"], ("--weights", "w.txt"), "3 1\n3 2\n"),
    (["sample", "--edges", "5", "--seed", "1", "--method", "free"], ("--nu", "nu.txt"),
     TRI_NU + "0 1 0.3333333333333334\n"),
    (["map2walk"], ("--in", "m.json"), HUGE_MAP.replace("[[1], [-1]]", f"[[{10**30}], [-1]]")),
    (["map2walk"], ("--in", "m.json"), HUGE_MAP.replace("[[0, 1]]", f"[[0, {10**30}]]")),
    (["map2walk"], ("--in", "m.json"), HUGE_MAP.replace('"vertices": 2', f'"vertices": {10**12}')),
    (["map2walk"], ("--in", "m.json"), HUGE_MAP.replace("[[1], [-1]]", "[[1], [0]]")),
    (["map2walk"], ("--in", "m.json"), HUGE_MAP.replace("[[1], [-1]]", "[[1], [-2]]")),
    (["sample", "--edges", "12", "--seed", "-1"], None, None),
    (["sample", "--edges", "12", "--seed", str(2**64)], None, None),
    (["sample", "--edges", "12"], ("--config", "cfg.json"), '{"seed": -1}'),
    (["map2walk"], ("--in", "m.json"), DEEP_JSON),
    (["count", "--edges", "6"], ("--config", "cfg.json"), DEEP_JSON),
    (["map2walk"], ("--in", "m.json"), "{"),
    (["map2walk"], ("--in", "m.json"), ""),
    (["map2walk"], ("--in", "m.json"), "nul"),
    (["sample", "--weights", "quad", "--m", "0", "--n", "0", "--edges", "9",
      "--seed", "1", "--replicas", "3"], ("--walk-out", "w.txt"), ""),
    (["sample", "--weights", "quad", "--m", "0", "--n", "0", "--edges", "9",
      "--seed", "1", "--replicas", "2", "--walk-out", "-"], ("--map-out", "m.json"), ""),
], ids=["count-zero-edges", "walk-negative-face", "map-string-vertices",
        "map-top-level-array", "rejection-negative-m", "count-negative-m",
        "interface-zero-replicas", "stats-zero-replicas",
        "closed-form-other-boundary", "closed-form-quad", "nu-exact-method",
        "bootstrap-negative", "bootstrap-zero", "count-uniform",
        "sample-uniform-exact", "weights-zero-denominator", "budget-negative",
        "max-tries-negative", "eps-past-half", "eps-nan", "edges-not-a-number",
        "eps-not-a-number", "config-budget-negative", "config-eps-and-budget",
        "config-eps-past-half", "config-bad-choice", "config-flag-not-bool",
        "config-missing", "config-invalid-json", "config-not-an-object",
        "weights-file-missing", "walk-file-missing", "weights-repeated-degree",
        "nu-repeated-step", "map-huge-edge-ref", "map-huge-endpoint",
        "map-huge-vertex-count", "map-zero-edge-ref", "map-negative-edge-ref",
        "seed-negative", "seed-2**64", "config-seed-negative", "map-deep-nesting",
        "config-deep-nesting", "map-open-brace", "map-empty", "map-nul",
        "replicas-one-walk-file", "replicas-one-map-file"])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, infile, content):
    if infile is not None:
        flag, name = infile
        (tmp_path / name).write_text(content)
        argv = argv + [flag, str(tmp_path / name)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len([line for line in err.splitlines() if "error: " in line]) == 1
    assert "Traceback" not in err
    assert "invalid _" not in err  # argparse names no private type function


def test_uniform_exact_refusal_names_the_other_methods(capsys):
    code, _, err = run(capsys, "sample", "--weights", "uniform", "--m", "0",
                       "--n", "0", "--edges", "9", "--seed", "1")
    assert code == 2
    assert "--method rejection" in err and "--method free" in err


def readme_cli_lines():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("bipolar ")]


def test_readme_cli_lines(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert len(lines) == 9
    for line in lines:
        command, _, comment = line.partition("#")
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert code == 0, f"{line}: {err}"
        if comment.strip().startswith("prints "):
            assert out.strip() == comment.split()[-1], line


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; the program must run without it
    src = Path(bipolar_maps.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, bipolar_maps.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


NUMPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now fails
from bipolar_maps.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def test_numpy_free_verbs_run_with_numpy_blocked(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "sample", "--weights", "tri", "--edges", "12", "--seed", "7",
               "--walk-out", "w.txt", "--map-out", "m.json")[0] == 0
    written = {f: (tmp_path / f).read_bytes() for f in ("w.txt", "m.json")}
    # a small count table, and the README's draw, whose one rank takes the
    # stream's first word, run on Python ints alone
    lines = [["walk2map", "--in", "w.txt"],
             ["map2walk", "--in", "m.json"],
             ["embed", "--in", "m.json"],
             ["count", "--edges", "18", "--closed-form"],
             ["stats", "--weights", "tri", "--edges", "2", "--seed", "1"],
             ["count", "--weights", "tri", "--m", "0", "--n", "1", "--edges", "6"],
             ["sample", "--weights", "tri", "--edges", "12", "--seed", "7",
              "--walk-out", "w.txt", "--map-out", "m.json"],
             ["verify", "--quick"],
             ["count", "--weights", "tri", "--m", "0", "--n", "0", "--edges", "30001"],
             ["stats", "--weights", "tri", "--m", "0", "--n", "1", "--edges", "30",
              "--seed", "1", "--method", "exact"]]
    expected = [list(run(capsys, *argv)) for argv in lines]
    assert expected[3] == [0, "87516\n", ""] and expected[4][0] == 1
    assert "congruence" in expected[4][2]
    assert expected[5] == [0, "5\n", ""] and expected[6][0] == 0
    assert expected[7][0] == 0 and "all checks passed" in expected[7][1]
    assert expected[8][0] == 0 and len(expected[8][1]) == 14299  # f^(k,k,k), k = 10 000
    assert expected[9][0] == 0 and "ratio 95% CI" in expected[9][1]
    src = Path(bipolar_maps.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED, json.dumps(lines)],
                         env=env, cwd=tmp_path, check=True, capture_output=True,
                         text=True).stdout
    assert json.loads(out) == expected
    assert {f: (tmp_path / f).read_bytes() for f in written} == written


def test_package_import_leaves_numpy_out():
    # the package loads no submodule until a name is first read, and a
    # count table builds on Python ints: numpy is still out after the count
    src = Path(bipolar_maps.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, bipolar_maps; print('numpy' in sys.modules); "
             "print(sorted(k for k in sys.modules if k.startswith('bipolar_maps.'))); "
             "from bipolar_maps.cli import main; "
             "main(['count', '--weights', 'tri', '--m', '0', '--n', '1', "
             "'--edges', '6']); print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "[]", "5", "False"]


# the 75 public names and the submodule each comes from; every one must stay
# importable from the package
PUBLIC_NAMES = {
    "embedding": "Embedding upward_embed verify_upward_planar",
    "enumeration": "CountTable closed_form_triangulations count_walks enumerate_maps "
                   "enumerate_walks exact_sample exact_sampler",
    "errors": "BipolarError EmbeddingInternalError EmbeddingUnsupportedError "
              "EnumerationBudgetError InvalidMapError MapStructureError NoMapsError "
              "NotBipolarCodeError NoZeroDriftError RejectionBudgetError UnsewError",
    "planar_map": "PlanarMap canonical_form dual_map face_types map_from_json "
                  "map_to_json nw_tree reverse_map se_tree validate_bipolar",
    "rng": "CounterRng",
    "sewing": "MarkedBipolarState apply_move initial_state interface_order "
              "map_to_walk sew state_from_map state_rotate180 state_to_map unsew "
              "walk_to_map",
    "simulate": "FrontierTrace StatReport covariance_report degrees_from_walk "
                "free_walk interface_csv interface_export rejection_sample "
                "sample_simple_triangulation_walk",
    "svg": "render_svg",
    "walks": "EDGE EdgeMove FaceMove LatticeWalk Move face_move move_of "
             "reverse_moves walk_from_text walk_to_text",
    "weights": "FaceWeights StepDistribution TheoryStats direct_distribution "
               "direct_distribution_from_text feasible period preset_weights "
               "solve_lambda step_distribution theory_stats weights_from_text",
}


def test_package_namespace_serves_every_public_name():
    names = {name: module for module, text in PUBLIC_NAMES.items()
             for name in text.split()}
    assert len(names) == 75 and sorted(bipolar_maps.__all__) == sorted(names)
    for name, module in names.items():
        source = importlib.import_module(f"bipolar_maps.{module}")
        assert getattr(bipolar_maps, name) is getattr(source, name), name
    star: dict = {}
    exec("from bipolar_maps import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert set(names) <= set(dir(bipolar_maps))
    with pytest.raises(AttributeError):
        bipolar_maps.no_such_name
    with pytest.raises(ImportError):
        exec("from bipolar_maps import no_such_name", {})


FIRST_READ = """
import sys, bipolar_maps
def loaded():
    return sorted(k[13:] for k in sys.modules if k.startswith("bipolar_maps."))
first = loaded()
walk_to_map = bipolar_maps.walk_to_map
print(first, loaded(), "walk_to_map" in vars(bipolar_maps),
      walk_to_map is bipolar_maps.sewing.walk_to_map,
      bipolar_maps.weights.preset_weights is bipolar_maps.preset_weights)
"""


def test_first_read_of_a_name_loads_its_submodule_and_binds_it():
    src = Path(bipolar_maps.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", FIRST_READ], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", "['errors',", "'planar_map',", "'sewing',",
                           "'walks']", "True", "True", "True"]


VERB_MODULES = """
import contextlib, io, sys
from bipolar_maps.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(k for k in sys.modules if k.startswith("bipolar_maps.")))
"""

MAP_CODEC = {"bipolar_maps." + m for m in
             ("cli", "errors", "rng", "walks", "planar_map", "sewing")}


@pytest.mark.parametrize("argv, expected", [
    (["walk2map", "--in", "w.txt"], MAP_CODEC),
    (["map2walk", "--in", "m.json"], MAP_CODEC),
    (["embed", "--in", "m.json"], MAP_CODEC | {"bipolar_maps.embedding",
                                               "bipolar_maps.svg"}),
    (["count", "--edges", "18", "--closed-form"], None),
    (["sample", "--edges", "12", "--seed", "7", "--walk-out", "w2.txt"], None),
], ids=["walk2map", "map2walk", "embed", "count-closed-form", "sample-walk-out"])
def test_each_verb_loads_only_the_modules_it_runs(tmp_path, monkeypatch, capsys,
                                                  argv, expected):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "sample", "--weights", "tri", "--edges", "12", "--seed", "7",
               "--walk-out", "w.txt", "--map-out", "m.json")[0] == 0
    src = Path(bipolar_maps.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code, *loaded = subprocess.run(
        [sys.executable, "-c", VERB_MODULES, *argv], env=env, cwd=tmp_path,
        check=True, capture_output=True, text=True).stdout.split()
    assert code == "0"
    if expected is not None:
        assert set(loaded) == expected
    elif argv[0] == "count":  # the closed form loads no map, sampling or drawing code
        assert not {"bipolar_maps." + m for m in ("planar_map", "sewing", "simulate",
                                                  "embedding", "svg")} & set(loaded)
    else:  # a walk written without --map-out loads no map code
        assert not {"bipolar_maps.planar_map", "bipolar_maps.sewing"} & set(loaded)
        assert (tmp_path / "w2.txt").read_text() == (tmp_path / "w.txt").read_text()
