import hashlib
import json
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
from bipolar_maps.weights import (FaceWeights, direct_distribution,
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


@pytest.mark.parametrize("law,m,n,ell", [("uniform", 40, 0, 30), ("tri", 9, 0, 4),
                                         ("direct", 0, 3, 3)])
def test_rejection_without_a_walk_raises_before_any_proposal(law, m, n, ell):
    # fewer than max(m, n) steps: no walk exists, whatever the congruence says
    rng = CounterRng(1)
    with pytest.raises(NoMapsError, match="edge moves"):
        rejection_sample(PINNED_LAWS[law], m, n, ell, rng)
    assert rng.np.integers(0, 2**32) == CounterRng(1).np.integers(0, 2**32)


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


def test_rejection_uniform_law_is_exact_at_l5():
    # under the uniform step law every walk of 4 steps from (0, 0) back to
    # (0, 0) has probability 2**-12, so the draws are uniform over the 6
    # walks that the table with every face degree 2..7 enumerates
    import scipy.stats
    walks = list(enumerate_walks(FaceWeights({k: 1 for k in range(2, 8)}), 0, 0, 5))
    assert len(walks) == 6
    draws = rejection_sample_many(UNI, 0, 0, 5, CounterRng(31), 1200,
                                  max_tries=10_000_000)
    counts = Counter(draws)
    assert set(counts) <= set(walks)
    assert scipy.stats.chisquare([counts[w] for w in walks]).pvalue > 0.001


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
    # ends off the axis; a replay would first make 10**9 vertices
    LatticeWalk((0, 0), (FaceMove(0, 10**9),)),
], ids=["y-exit", "start-off-axis", "huge-face-off-axis"])
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


def test_covariance_report_is_pinned():
    # the bootstrap's rng use; a change to the resampling shows here
    w = free_walk(TRI, 1000, CounterRng(3))
    text = json.dumps(covariance_report([w], TRI, CounterRng(4),
                                        bootstrap=200).to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "930586bd9510d78e4fefdf9ba94c54fa47e6fea5b9f792f906b592d3e29ba823"


def resampled_ratio_ci(walk, rng, bootstrap):
    """The interval from explicit resamples of n increments, and their spread."""
    d = np.array([mv.delta for mv in walk.moves], dtype=float)
    diff, tot = d[:, 0] - d[:, 1], d[:, 0] + d[:, 1]
    ratios = []
    for _ in range(bootstrap):
        idx = rng.np.integers(0, len(d), size=len(d))
        vs = tot[idx].var()
        if vs > 0:
            ratios.append(diff[idx].var() / vs)
    return np.quantile(ratios, [0.025, 0.975]), float(np.std(ratios))


def test_count_vector_bootstrap_matches_resampling():
    # a multinomial count vector over the distinct increments has the law
    # of n increments drawn with replacement; the oracle draws them
    import scipy.stats
    w = free_walk(TRI, 50000, CounterRng(7))
    B = 500
    rep = covariance_report([w], TRI, CounterRng(8), bootstrap=B)
    (lo, hi), spread = resampled_ratio_ci(w, CounterRng(9), B)
    # standard error of a 2.5% quantile of B draws, near normal; the two
    # independent estimates may differ by four of its sqrt(2) multiples
    z = scipy.stats.norm.ppf(0.975)
    se = np.sqrt(0.025 * 0.975 / B) / scipy.stats.norm.pdf(z) * spread
    assert abs(rep.ratio_ci[0] - lo) < 4 * np.sqrt(2) * se
    assert abs(rep.ratio_ci[1] - hi) < 4 * np.sqrt(2) * se


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


PINNED_LAWS = {name: step_distribution(preset_weights(name))
               for name in ("tri", "quad", "uniform", "kgon:5")}
PINNED_LAWS["direct"] = direct_distribution({
    (1, -1): 0.4, (-1, 0): 0.2, (0, 1): 0.2, (-2, 0): 0.05, (0, 2): 0.05,
    (-1, 1): 0.1})

FREE_WALK_SHA256 = {
    "tri": "8bdc3cc934a44fa7d985ae603fedc4a65c8c0bf8b0d8082e783dc82e870be810",
    "quad": "5d4992c7a54b3febf634a62340d45fddb8551a812c542557144a2154a083679d",
    "uniform": "318ac5b9cce95d0ca7a4ed1f14b957cbdc067aa77cd6b2838bba88c71ac25549",
    "kgon:5": "01f86dfafc76a77c465e148ebceb821cc58bc020f51bf8fcd1ab39e79e283cc0",
    "direct": "81eaa95e994c94b34e6058ff4a730f089cf3370be5a5a220a59f0beeb7b2e388",
}


@pytest.mark.parametrize("law", sorted(FREE_WALK_SHA256))
def test_free_walk_is_pinned(law):
    # the walks and the stream position after them, for seeds 0-2 at 0 and
    # 500 steps; each line after a walk is the next raw draw of its stream
    h = hashlib.sha256()
    for seed in range(3):
        for steps in (0, 500):
            rng = CounterRng(seed)
            h.update(walk_to_text(free_walk(PINNED_LAWS[law], steps, rng)).encode())
            h.update(f"{rng.np.integers(0, 2**32)}\n".encode())
    assert h.hexdigest() == FREE_WALK_SHA256[law]


REJECTION_SHA256 = {
    ("uniform", 0, 0, 9): "f394d7bd6024782e68382d4f1cfe84b0c5f314050c4caf5968038c90690c12c2",
    ("tri", 0, 1, 12): "e01c00f172701410b4b388a43a36584c91eb6b41f1388b7ab289a4de601c285e",
}


@pytest.mark.parametrize("case", sorted(REJECTION_SHA256),
                         ids=lambda case: "-".join(map(str, case)))
def test_rejection_sample_many_is_pinned(case):
    law, m, n, ell = case
    h = hashlib.sha256()
    for seed in range(3):
        rng = CounterRng(seed)
        for walk in rejection_sample_many(PINNED_LAWS[law], m, n, ell, rng, 4):
            h.update(walk_to_text(walk).encode())
        h.update(f"{rng.np.integers(0, 2**32)}\n".encode())
    assert h.hexdigest() == REJECTION_SHA256[case]


def _philox_reference(seed, stream):
    """Exact draws from a Philox generator keyed directly by (seed, stream).

    The model of ``CounterRng``: 64-bit words in blocks of 4096, taken from
    the end of each block; a bound of at most 2**64 rejects the words at and
    above its largest multiple, a larger bound rejects masked runs of words.
    """
    gen = np.random.Generator(np.random.Philox(
        key=np.array([seed, stream], dtype=np.uint64)))
    block = []

    def word():
        if not block:
            block.extend(gen.integers(0, 2**64, size=4096, dtype=np.uint64).tolist())
        return block.pop()

    def randrange(n):
        if n <= 2**64:
            while (w := word()) >= 2**64 - 2**64 % n:
                pass
            return w % n
        k = (n.bit_length() + 63) // 64
        while True:
            raw = 0
            for _ in range(k):
                raw = raw << 64 | word()
            raw &= (1 << n.bit_length()) - 1
            if raw < n:
                return raw

    return gen, randrange


@pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (2**63, 1),
                                          (2**64 - 1, 10_000)])
def test_counter_rng_keeps_every_stream(seed, stream):
    rng = CounterRng(seed, stream)
    _, randrange = _philox_reference(seed, stream)
    # one and two words at 2**64 and 2**64 + 1, then bounds of 3 to 8 words
    wide = [2**70, 3, 2**64, 2**64 + 1] + [3 * 2**(64 * k - 7) + 1 for k in range(3, 9)]
    for n in wide:
        assert [rng.randrange(n) for _ in range(5000)] == [
            randrange(n) for _ in range(5000)]
    # 1 365 three-word draws that never reject leave one word of the first
    # block, so the 1 366th takes words from two blocks
    rng = CounterRng(seed, stream)
    _, randrange = _philox_reference(seed, stream)
    assert [rng.randrange(2**192 - 1) for _ in range(1400)] == [
        randrange(2**192 - 1) for _ in range(1400)]
    # word draws and rng.np draws share one generator state, block by block
    rng = CounterRng(seed, stream)
    gen, randrange = _philox_reference(seed, stream)
    got, want = [], []
    for _ in range(3000):
        got += [rng.randrange(2**70), int(rng.np.integers(0, 2**32)), rng.randrange(3)]
        want += [randrange(2**70), int(gen.integers(0, 2**32)), randrange(3)]
    assert got == want
    assert rng.np is rng.np


@pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 5), (0, -1), (3, 2**64)])
def test_counter_rng_refuses_keys_outside_64_bits(seed, stream):
    # Philox would key them as (seed mod 2**64, stream mod 2**64), the same
    # streams as another pair
    with pytest.raises(ValueError, match=r"in \[0, 2\*\*64\)"):
        CounterRng(seed, stream)


@pytest.mark.parametrize("seed, stream", [(1.5, 0), (1.0, 0), ("7", 0), (0, 2.5), (0, "3")])
def test_counter_rng_refuses_keys_that_are_not_integers(seed, stream):
    # int(1.5) would give the stream of seed 1, and int("7") that of seed 7
    with pytest.raises(ValueError, match="must be integers"):
        CounterRng(seed, stream)


def test_counter_rng_takes_numpy_ints():
    rng = CounterRng(np.uint64(7), np.int32(3))
    assert (type(rng.seed), type(rng.stream)) == (int, int)
    assert rng.randrange(2**70) == CounterRng(7, 3).randrange(2**70)


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
