"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion.  Every stochastic check uses fixed seeds and is byte
reproducible (criterion 10 re-runs several of them and compares artifacts).
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import scipy.stats

from bipolar_maps.embedding import upward_embed, verify_upward_planar
from bipolar_maps.enumeration import (count_walks, exact_sampler,
                                      triangulation_count_by_edges)
from bipolar_maps.planar_map import (canonical_form, dual_map, reverse_map,
                                     validate_bipolar)
from bipolar_maps.rng import CounterRng
from bipolar_maps.sewing import map_to_walk, sew, unsew, walk_to_map
from bipolar_maps.simulate import (covariance_report, degrees_from_walk,
                                   free_walk, interface_csv, interface_export,
                                   rejection_sample_many,
                                   sample_simple_triangulation_walk,
                                   tv_to_geometric)
from bipolar_maps.walks import EDGE, FaceMove, walk_to_text
from bipolar_maps.weights import (FaceWeights, feasible, preset_weights,
                                  solve_lambda, step_distribution, theory_stats)

from conftest import all_triangulation_walks, is_simple

TRI = preset_weights("tri")
QUAD = preset_weights("quad")


def report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_enumeration():
    t0 = time.time()
    expected = {3: 1, 6: 5, 9: 42, 12: 462, 15: 6006, 18: 87516}
    ok = True
    for ell, val in expected.items():
        ok &= count_walks(TRI, 0, 1, ell) == val
        ok &= triangulation_count_by_edges(ell) == val
    elapsed = time.time() - t0
    report(1, ok and elapsed < 10,
           f"counts 1,5,42,462,6006,87516 exact, {elapsed:.2f}s < 10s", t0)


def test_criterion_2_round_trips():
    t0 = time.time()
    rng = random.Random(20240901)
    for _ in range(10_000):
        seq = tuple(EDGE if rng.random() < 0.5
                    else FaceMove(rng.randint(0, 3), rng.randint(0, 3))
                    for _ in range(rng.randint(1, 200)))
        assert unsew(sew(seq)) == seq
    n_small = 0
    for walk in all_triangulation_walks(8):
        mp = walk_to_map(walk)
        assert map_to_walk(mp) == walk
        n_small += 1
    draw = exact_sampler(TRI, 0, 0, 1000)
    crng = CounterRng(31337)
    for _ in range(1000):
        walk = draw(crng)
        mp = walk_to_map(walk)
        assert map_to_walk(mp) == walk
        assert mp.n_edges == 1000
    elapsed = time.time() - t0
    report(2, elapsed < 60,
           f"10^4 sequence round trips + {n_small} small and 1000 "
           f"thousand-edge map round trips, {elapsed:.1f}s < 60s", t0)


def test_criterion_3_dual():
    t0 = time.time()
    count = 0
    for walk in all_triangulation_walks(8):
        mp = walk_to_map(walk)
        d = dual_map(mp)
        assert validate_bipolar(d) == []
        assert canonical_form(dual_map(d)) == canonical_form(reverse_map(mp))
        count += 1
    report(3, True, f"dual valid + double-dual reversal on {count} maps", t0)


def test_criterion_4_step_theory():
    t0 = time.time()
    assert abs(solve_lambda(preset_weights("uniform")) - 0.5) <= 1e-9
    assert abs(solve_lambda(TRI) - 1.0) <= 1e-9
    vectors = [TRI, QUAD, preset_weights("uniform"), preset_weights("kgon:5")]
    rng = random.Random(4)
    while len(vectors) < 104:
        supp = {}
        for k in range(2, rng.randint(3, 14)):
            if rng.random() < 0.6:
                supp[k] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        supp[rng.randint(3, 14)] = Fraction(rng.randint(1, 9))
        vectors.append(FaceWeights(supp))
    for w in vectors:
        dist = step_distribution(w)
        ts = theory_stats(dist)   # validates drift <= 1e-9 at construction
        assert abs(ts.var_diff - 3.0 * ts.var_sum) <= 1e-9 * max(1.0, ts.var_diff)
    report(4, True, "lambda, zero drift, and Var[X-Y] = 3 Var[X+Y] on "
                    f"{len(vectors)} weight vectors", t0)


def _walk_counts(walks):
    keys = {}
    for w in walks:
        keys[w.moves] = keys.get(w.moves, 0) + 1
    return keys


def test_criterion_5_sampler_exactness():
    t0 = time.time()
    draw = exact_sampler(TRI, 0, 1, 6)
    rng = CounterRng(501)
    exact_walks = [draw(rng) for _ in range(10_000)]
    rej_walks = rejection_sample_many(step_distribution(TRI), 0, 1, 6,
                                      CounterRng(502), 10_000)
    ce = _walk_counts(exact_walks)
    cr = _walk_counts(rej_walks)
    assert len(ce) == 5 and len(cr) == 5
    keys = sorted(ce, key=repr)
    pe = scipy.stats.chisquare([ce[k] for k in keys]).pvalue
    pr = scipy.stats.chisquare([cr[k] for k in keys]).pvalue
    table = np.array([[ce[k] for k in keys], [cr[k] for k in keys]])
    pm = scipy.stats.chi2_contingency(table).pvalue
    elapsed = time.time() - t0
    ok = pe > 0.001 and pr > 0.001 and pm > 0.001 and elapsed < 120
    report(5, ok, f"chi-square p: exact {pe:.3f}, rejection {pr:.3f}, "
                  f"mutual {pm:.3f}, {elapsed:.1f}s < 120s", t0)


def test_criterion_6_degree_law():
    t0 = time.time()
    ell = 30_000
    walk = exact_sampler(TRI, 0, 1, ell)(CounterRng(601))
    trace = degrees_from_walk(walk)
    mp = walk_to_map(walk)
    ins = [0] * mp.n_vertices
    outs = [0] * mp.n_vertices
    for t, h in mp.edges:
        outs[t] += 1
        ins[h] += 1
    assert trace.indegree == ins and trace.outdegree == outs
    bulk = trace.bulk_interior(0.05)
    din = [trace.indegree[v] for v in bulk]
    dout = [trace.outdegree[v] for v in bulk]
    tv_in = tv_to_geometric(din)
    tv_out = tv_to_geometric(dout)
    corr = abs(float(np.corrcoef(din, dout)[0, 1]))
    elapsed = time.time() - t0
    ok = tv_in <= 0.02 and tv_out <= 0.02 and corr < 0.05 and elapsed < 120
    report(6, ok, f"degrees exact vs map; TV(in)={tv_in:.4f}, "
                  f"TV(out)={tv_out:.4f} <= 0.02, |corr|={corr:.4f} < 0.05, "
                  f"{elapsed:.1f}s < 120s", t0)


def test_criterion_7_covariance():
    t0 = time.time()
    details = []
    ok = True
    for name, seed in (("tri", 701), ("uniform", 702)):
        dist = step_distribution(preset_weights(name))
        walk = free_walk(dist, 100_000, CounterRng(seed))
        rep = covariance_report([walk], dist, CounterRng(seed + 10),
                                bootstrap=1000)
        ok &= abs(rep.ratio - 3.0) <= 0.15
        ok &= rep.ratio_ci[0] <= 3.0 <= rep.ratio_ci[1]
        th = rep.theory.cov
        for r in range(2):
            for c in range(2):
                ok &= abs(rep.cov[r][c] - th[r][c]) <= 0.05 * abs(th[r][c])
        details.append(f"{name}: ratio {rep.ratio:.3f} "
                       f"CI [{rep.ratio_ci[0]:.3f},{rep.ratio_ci[1]:.3f}]")
    elapsed = time.time() - t0
    report(7, ok and elapsed < 60,
           "; ".join(details) + f", cov within 5%, {elapsed:.1f}s < 60s", t0)


def test_criterion_8_embedding():
    t0 = time.time()
    n_exhaustive = 0
    for walk in all_triangulation_walks(11):
        mp = walk_to_map(walk)
        if is_simple(mp):
            emb = upward_embed(mp)  # raises on any certificate violation
            assert verify_upward_planar(mp, emb) == []
            n_exhaustive += 1
    rng = CounterRng(801)
    for _ in range(100):
        walk = sample_simple_triangulation_walk(0, 1, 300, rng)
        upward_embed(walk_to_map(walk))
    elapsed = time.time() - t0
    report(8, elapsed < 300,
           f"{n_exhaustive} exhaustive simple maps (l <= 12) + 100 sampled "
           f"at l = 300, zero violations, {elapsed:.1f}s < 300s", t0)


def test_criterion_9_feasibility():
    t0 = time.time()
    ok = True
    for m in range(5):
        for n in range(5):
            counts = [count_walks(QUAD, m, n, ell) for ell in range(1, 15)]
            if (m + n) % 2 == 1:
                ok &= all(c == 0 for c in counts)
            else:
                ok &= any(c > 0 for c in counts)
            for ell, c in enumerate(counts, start=1):
                if c > 0:
                    ok &= feasible(QUAD, m, n, ell)[0]
    for m in range(5):
        for n in range(5):
            for ell in range(1, 15):
                c = count_walks(TRI, m, n, ell)
                if (2 * (ell - 1) - (m + n)) % 3 != 0:
                    ok &= c == 0
                if c > 0:
                    ok &= feasible(TRI, m, n, ell)[0]
    report(9, ok, "quad counts vanish exactly on odd m+n; tri counts vanish "
                  "off the congruence; feasibility never contradicted", t0)


def test_criterion_10_reproducibility():
    t0 = time.time()
    draw = exact_sampler(TRI, 0, 1, 6)
    a = [walk_to_text(w) for w in (draw(CounterRng(501)) for _ in range(100))]
    b = [walk_to_text(w) for w in (draw(CounterRng(501)) for _ in range(100))]
    ok = a == b
    wa = exact_sampler(TRI, 0, 1, 30_000)(CounterRng(601))
    wb = exact_sampler(TRI, 0, 1, 30_000)(CounterRng(601))
    ok &= walk_to_text(wa) == walk_to_text(wb)
    fa = free_walk(step_distribution(TRI), 10_000, CounterRng(701))
    fb = free_walk(step_distribution(TRI), 10_000, CounterRng(701))
    ok &= walk_to_text(fa) == walk_to_text(fb)
    ok &= (interface_csv(interface_export(fa, 101))
           == interface_csv(interface_export(fb, 101)))
    ra = covariance_report([fa], None, CounterRng(999), bootstrap=100)
    rb = covariance_report([fb], None, CounterRng(999), bootstrap=100)
    ok &= json.dumps(ra.to_json_dict()) == json.dumps(rb.to_json_dict())
    report(10, ok, "same seeds give byte-identical walks, CSV, and reports", t0)
