import json
import shlex
import warnings
from pathlib import Path

import pytest

from bipolar_maps.cli import main
from bipolar_maps.planar_map import canonical_form, map_from_json
from bipolar_maps.sewing import walk_to_map
from bipolar_maps.walks import walk_from_text


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


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "count", "--weights", "tri", "--m", "2",
                       "--n", "2", "--edges", "2000", "--budget", "1000")
    assert code == 3 and "budget" in err


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
    # the closed 4-edge map has a doubled edge; fallback must be explicit
    map_file = tmp_path / "m.json"
    run(capsys, "sample", "--weights", "tri", "--edges", "4", "--m", "0",
        "--n", "0", "--seed", "1", "--map-out", str(map_file))
    code, _, err = run(capsys, "embed", "--in", str(map_file))
    assert code == 1 and "unsupported" in err
    code, out, _ = run(capsys, "embed", "--in", str(map_file),
                       "--layers-fallback")
    assert code == 0 and 'data-planarity="unverified"' in out


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
                       "exact", "--bootstrap", "50", "--json", str(out_json))
    assert code == 0 and "Var[X-Y]" in out
    data = json.loads(out_json.read_text())
    assert data["n_steps"] == 599
    assert "degrees" in data


def test_stats_json_is_strict_on_tiny_samples(tmp_path, capsys):
    # some resamples of three steps have Var[X+Y] = 0; they must not leak NaN
    out_json = tmp_path / "r.json"

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "stats", "--method", "free", "--edges", "4",
                           "--seed", "1", "--bootstrap", "50",
                           "--json", str(out_json))
    assert code == 0 and not caught and "Warning" not in err
    data = json.loads(out_json.read_text(), parse_constant=reject)
    assert data["ratio_ci_95"] == [9.0, 9.0]


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": "tri", "m": 0, "n": 1, "edges": 6}))
    code, out, _ = run(capsys, "count", "--config", str(cfg), "--edges", "6")
    assert code == 0 and out.strip() == "5"


def test_verify_quick(capsys):
    code, out, err = run(capsys, "verify", "--quick")
    assert code == 0
    assert "all checks passed" in out
    assert "ok -" in err


def test_stats_pools_replicas(tmp_path, capsys):
    out_json = tmp_path / "r.json"
    code, _, _ = run(capsys, "stats", "--weights", "tri", "--edges", "600",
                     "--seed", "4", "--replicas", "2", "--bootstrap", "50",
                     "--json", str(out_json))
    assert code == 0
    degrees = json.loads(out_json.read_text())["degrees"]
    assert sum(degrees["joint_hist"].values()) == sum(degrees["in_hist"].values()) > 0


@pytest.mark.parametrize("argv, infile, content", [
    (["count", "--edges", "0"], None, None),
    (["walk2map"], "w.txt", "0 0\nF -1 0\n"),
    (["map2walk"], "m.json", '{"vertices": "3", "south": 0, "north": 1, '
                             '"west": 0, "edges": [[0, 1]], '
                             '"rotations": [[1], [-1]]}'),
    (["map2walk"], "m.json", "[1, 2]"),
    (["sample", "--method", "rejection", "--m", "-1", "--n", "0", "--edges", "5",
      "--seed", "1"], None, None),
    (["count", "--edges", "10", "--m", "-1"], None, None),
    (["interface", "--edges", "10", "--seed", "1", "--replicas", "0"], None, None),
], ids=["count-zero-edges", "walk-negative-face", "map-string-vertices",
        "map-top-level-array", "rejection-negative-m", "count-negative-m",
        "interface-zero-replicas"])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, infile, content):
    if infile is not None:
        (tmp_path / infile).write_text(content)
        argv = argv + ["--in", str(tmp_path / infile)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len([line for line in err.splitlines() if "error: " in line]) == 1
    assert "Traceback" not in err


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
