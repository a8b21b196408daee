import hashlib
from collections import Counter

import numpy as np
import pytest

from bipolar_maps.enumeration import enumerate_walks
from bipolar_maps.errors import (BipolarError, NoMapsError, NotBipolarCodeError,
                                 RejectionBudgetError)
from bipolar_maps.rng import CounterRng
from bipolar_maps.sewing import initial_state, walk_to_map
from bipolar_maps.simulate import (covariance_report, degrees_from_walk,
                                   free_walk, attach_degree_stats,
                                   interface_csv, interface_export,
                                   rejection_sample, rejection_sample_many,
                                   sample_simple_triangulation_walk,
                                   tv_to_geometric)
from bipolar_maps.walks import EDGE, FaceMove, LatticeWalk, walk_to_text
from bipolar_maps.weights import (direct_distribution,
                                  direct_distribution_from_text,
                                  preset_weights, step_distribution)

from conftest import all_triangulation_walks, is_simple

TRI = step_distribution(preset_weights("tri"))
UNI = step_distribution(preset_weights("uniform"))


def map_degrees(mp):
    ins = [0] * mp.n_vertices
    outs = [0] * mp.n_vertices
    for t, h in mp.edges:
        outs[t] += 1
        ins[h] += 1
    return ins, outs


def test_free_walk_frequencies():
    w = free_walk(TRI, 30000, CounterRng(1))
    freq = Counter(mv.delta for mv in w.moves)
    for delta in ((1, -1), (-1, 0), (0, 1)):
        assert abs(freq[delta] / 30000 - 1 / 3) < 0.01


def test_free_walk_uniform_family():
    w = free_walk(UNI, 30000, CounterRng(2))
    freq = Counter(mv.delta for mv in w.moves)
    assert abs(freq[(1, -1)] / 30000 - 0.5) < 0.02
    assert abs(freq[(0, 0)] / 30000 - 0.125) < 0.01


def test_rejection_small_unique():
    w = rejection_sample(TRI, 0, 1, 3, CounterRng(3))
    assert w.moves == (FaceMove(0, 1), EDGE)


def test_rejection_infeasible():
    quad = step_distribution(preset_weights("quad"))
    with pytest.raises(NoMapsError):
        rejection_sample(quad, 1, 0, 5, CounterRng(3))


def test_rejection_off_congruence_direct_distribution():
    # the triangulation steps given move by move: period 3, ell-1 = 3 is off
    nu = direct_distribution_from_text("1 -1 0.3333333333333333\n"
                                       "-1 0 0.3333333333333333\n"
                                       "0 1 0.3333333333333334\n")
    with pytest.raises(NoMapsError,
                       match="congruence fails: ell-1 = 3 is not 2 mod 3"):
        rejection_sample(nu, 0, 1, 4, CounterRng(3))


def test_rejection_budget_error():
    with pytest.raises(RejectionBudgetError):
        rejection_sample(TRI, 0, 1, 30, CounterRng(3), max_tries=3)


def test_rejection_reproducible():
    a = rejection_sample(TRI, 0, 1, 9, CounterRng(5))
    b = rejection_sample(TRI, 0, 1, 9, CounterRng(5))
    assert a == b


def test_rejection_many_uniform_at_l6():
    walks = rejection_sample_many(TRI, 0, 1, 6, CounterRng(6), 5000)
    counts = Counter(tuple(w.moves) for w in walks)
    assert len(counts) == 5 and min(counts.values()) > 850


def test_degrees_smallest():
    w = LatticeWalk((0, 0), (FaceMove(0, 1), EDGE))
    trace = degrees_from_walk(w)
    mp = walk_to_map(w)
    ins, outs = map_degrees(mp)
    assert trace.indegree == ins and trace.outdegree == outs
    # the middle vertex has in- and out-degree one
    v = next(v for v in range(3) if v not in (mp.south, mp.north))
    assert ins[v] == outs[v] == 1


def test_degrees_match_maps_exhaustively():
    for walk in all_triangulation_walks(9):
        trace = degrees_from_walk(walk)
        ins, outs = map_degrees(walk_to_map(walk))
        assert trace.indegree == ins
        assert trace.outdegree == outs


def test_degrees_match_maps_general_faces():
    count = 0
    for name in ("quad", "kgon:5"):
        for m in range(3):
            for n in range(3):
                for ell in range(1, 11):
                    for walk in enumerate_walks(preset_weights(name), m, n, ell):
                        trace = degrees_from_walk(walk)
                        ins, outs = map_degrees(walk_to_map(walk))
                        assert trace.indegree == ins and trace.outdegree == outs
                        # the marked-state fold creates the same vertices
                        st = initial_state()
                        created = [0, 0]
                        for t, mv in enumerate(walk.moves, start=1):
                            st.apply(mv)
                            created += [t] * (len(st.vertices) - len(created))
                        assert trace.created_at == created
                        count += 1
    assert count == 439 + 153
    with pytest.raises(BipolarError):
        degrees_from_walk(LatticeWalk((0, 0), (EDGE, FaceMove(2, 1))))


def test_degrees_reject_quadrant_exit():
    with pytest.raises(BipolarError):
        degrees_from_walk(LatticeWalk((0, 0), (FaceMove(1, 0),)))


@pytest.mark.parametrize("walk", [
    LatticeWalk((0, 0), (EDGE, EDGE)),   # leaves the quadrant in y
    LatticeWalk((1, 0), ()),             # does not start at (0, m)
], ids=["y-exit", "start-off-axis"])
def test_degrees_reject_what_walk_to_map_rejects(walk):
    with pytest.raises(NotBipolarCodeError):
        walk_to_map(walk)
    with pytest.raises(NotBipolarCodeError):
        degrees_from_walk(walk)


def test_tv_to_geometric_on_exact_law():
    rng = np.random.default_rng(0)
    sample = rng.geometric(1 / 3, size=20000).tolist()
    assert tv_to_geometric(sample) < 0.02


def test_covariance_report_values():
    w = free_walk(TRI, 50000, CounterRng(7))
    rep = covariance_report([w], TRI, CounterRng(8), bootstrap=200)
    assert abs(rep.ratio - 3.0) < 0.15
    assert rep.ratio_ci[0] < 3.0 < rep.ratio_ci[1]
    assert rep.theory is not None and abs(rep.theory.ratio - 3.0) < 1e-9
    assert abs(rep.cov[0][1] + 1 / 3) < 0.02


def test_covariance_report_degenerate():
    with pytest.raises(BipolarError):
        covariance_report([LatticeWalk((0, 0), (EDGE,))])
    with pytest.raises(BipolarError, match="every bootstrap resample"):
        covariance_report([LatticeWalk((0, 0), (EDGE, FaceMove(0, 1)))],
                          bootstrap=0)


def test_skewed_direct_measure_reported():
    nu = direct_distribution(
        {(1, -1): 0.45, (-1, 1): 0.35, (-1, 0): 0.1, (0, 1): 0.1})
    w = free_walk(nu, 40000, CounterRng(9))
    rep = covariance_report([w], nu, CounterRng(10), bootstrap=100)
    assert rep.theory.ratio > 3.0
    assert abs(rep.ratio - rep.theory.ratio) / rep.theory.ratio < 0.1


def test_degree_stats_attachment():
    from bipolar_maps.enumeration import exact_sample
    walk = exact_sample(preset_weights("tri"), 0, 1, 3000, CounterRng(11))
    trace = degrees_from_walk(walk)
    rep = covariance_report([walk], TRI, CounterRng(12), bootstrap=50)
    attach_degree_stats(rep, trace)
    assert rep.tv_in < 0.08 and rep.tv_out < 0.08
    assert abs(rep.degree_corr) < 0.2
    assert sum(rep.degree_in_hist.values()) == len(trace.bulk_interior())


def test_interface_export_endpoints():
    w = LatticeWalk((0, 0), ())
    rows = interface_export(w, 2)
    assert rows == [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    w2 = free_walk(TRI, 99, CounterRng(13))
    rows2 = interface_export(w2, 11)
    assert len(rows2) == 11
    assert rows2[0][0] == 0.0 and rows2[-1][0] == 1.0


def test_interface_csv_deterministic():
    w = free_walk(TRI, 99, CounterRng(13))
    a = interface_csv(interface_export(w, 7))
    b = interface_csv(interface_export(w, 7))
    assert a == b and a.startswith("t,x,y\n")


def test_simple_triangulation_sampler():
    rng = CounterRng(14)
    for ell in (12, 60, 300):
        w = sample_simple_triangulation_walk(0, 1, ell, rng)
        mp = walk_to_map(w)
        assert mp.n_edges == ell
        assert is_simple(mp)


STEERED_WALK_SHA256 = {
    (150, 0): "952b105b950e941a297da9d00dd45dab0f3e07eb431416e8029916de6f48c48d",
    (150, 1): "bda68a343000e743ce544eaee002a6f0f307d5bd10f8a57efeed62f319c9e6c4",
    (150, 2): "8d61bbc84162b2ce52f2ed85718bbc5f182e6fdffe043b1967fc803e31977b30",
    (300, 0): "79ffb61d34331a0b090973e59852d8f809a295dedfcfb22679a94131db7c81ad",
    (300, 1): "b52e9b8be0af789fa45fbade871f2d253945c8a5280c34819aea49dc51be36b9",
    (300, 2): "3340144bd425658a9dac1a2948d645259b6e4e4ca52fa005c8a9384d2cd73685",
}


def test_simple_triangulation_sampler_is_pinned():
    # fixed seeds must keep drawing the same walks, byte for byte
    for (ell, seed), digest in STEERED_WALK_SHA256.items():
        walk = sample_simple_triangulation_walk(0, 1, ell, CounterRng(seed, ell))
        assert hashlib.sha256(walk_to_text(walk).encode()).hexdigest() == digest


def test_local_iid_window():
    # bulk steps of a conditioned walk look i.i.d.: TV below 0.05
    from bipolar_maps.enumeration import exact_sampler
    walk = exact_sampler(preset_weights("tri"), 0, 1, 99999)(CounterRng(21))
    steps = walk.moves
    lo, hi = int(0.25 * len(steps)), int(0.75 * len(steps))
    window = steps[lo:hi]
    freq = Counter(mv.delta for mv in window)
    tv = 0.5 * sum(abs(freq.get(d, 0) / len(window) - 1 / 3)
                   for d in ((1, -1), (-1, 0), (0, 1)))
    assert tv < 0.05


def test_sampler_agreement_l9():
    from bipolar_maps.enumeration import exact_sampler
    import scipy.stats
    draw = exact_sampler(preset_weights("tri"), 0, 1, 9)
    rng = CounterRng(22)
    exact_counts = Counter(tuple(draw(rng).moves) for _ in range(10000))
    rej = rejection_sample_many(TRI, 0, 1, 9, CounterRng(23), 10000,
                                max_tries=10_000_000)
    rej_counts = Counter(tuple(w.moves) for w in rej)
    keys = sorted(set(exact_counts) | set(rej_counts), key=repr)
    assert len(keys) == 42
    table = np.array([[exact_counts.get(k, 0) for k in keys],
                      [rej_counts.get(k, 0) for k in keys]])
    assert scipy.stats.chi2_contingency(table).pvalue > 0.001


def test_interface_ensemble_midpoint_product():
    from bipolar_maps.enumeration import exact_sampler
    draw = exact_sampler(preset_weights("tri"), 0, 1, 9999)

    def mean_mid_product(seed):
        rng = CounterRng(seed)
        vals = []
        for _ in range(50):
            rows = interface_export(draw(rng), 3)
            _, x, y = rows[1]  # the t = 1/2 grid row
            vals.append(x * y)
        return float(np.mean(vals))

    a, b = mean_mid_product(31), mean_mid_product(32)
    assert a > 0 and b > 0
    assert abs(a - b) / max(a, b) < 0.5  # stable across seed sets
