import hashlib
import json
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import floor

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
                                   tv_to_geometric, _increment_draw)
from bipolar_maps.walks import EDGE, FaceMove, LatticeWalk, walk_to_text
from bipolar_maps.weights import (FaceWeights, StepDistribution, direct_distribution,
                                  direct_distribution_from_text,
                                  preset_weights, step_distribution,
                                  weights_from_text)

from conftest import all_triangulation_walks, is_simple
from philox_oracle import philox_words

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
    assert rng.words(1)[0] == CounterRng(1).words(1)[0]


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
    "tri": "28fa20bf7336903c327c7410a5edfa452d17c36ba273cfe69ed3e46900bff25f",
    "quad": "f12ef1b2d6da03b31b8f4fafb6e505fd488d4c461e1efe48f0d62a465ddc7b67",
    "uniform": "2bdc05914bb655300989a843a5cf6156afd28144dae65cff9b855449974facd9",
    "kgon:5": "406f96579eb37e7e64298c98ba8103cc766d7e7519bf5fe0ef4dfa528db81059",
    "direct": "5b9210389286e1c3eb5133974ee1eb58e27ca2d4f10a20866a69b63846ddd25c",
}


@pytest.mark.parametrize("law", sorted(FREE_WALK_SHA256))
def test_free_walk_is_pinned(law):
    # the walks and the stream position after them, for seeds 0-2 at 0 and
    # 500 steps; each line after a walk is the next raw word of its stream
    h = hashlib.sha256()
    for seed in range(3):
        for steps in (0, 500):
            rng = CounterRng(seed)
            h.update(walk_to_text(free_walk(PINNED_LAWS[law], steps, rng)).encode())
            h.update(f"{rng.words(1)[0]}\n".encode())
    assert h.hexdigest() == FREE_WALK_SHA256[law]


REJECTION_SHA256 = {
    ("uniform", 0, 0, 9): "77e523f65e7e7d2804501fca3e1ef9ddf9066f75cfd056701ae6a1735a8e0361",
    ("tri", 0, 1, 12): "5a6345f6832a2cbb6a8b37ec314a1ebb2cf9a917e1f6111acd4f9d0b50f0bcd6",
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
        h.update(f"{rng.words(1)[0]}\n".encode())
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


@pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (2**63, 1),
                                          (2**64 - 1, 10_000)])
def test_counter_rng_words_are_philox4x64_10(seed, stream):
    # the raw words against a pure-Python Philox: words() in a few calls,
    # and the words randrange takes, each block of 4 096 from its end
    # (a bound of 2**64 never rejects: one word a draw)
    expected = philox_words(seed, stream)
    rng = CounterRng(seed, stream)
    for count in (1, 5, 4096, 3):
        assert rng.words(count).tolist() == [next(expected) for _ in range(count)]
    expected = philox_words(seed, stream)
    rng = CounterRng(seed, stream)
    blocks = [[next(expected) for _ in range(4096)] for _ in range(2)]
    assert [rng.randrange(2**64) for _ in range(5000)] == [
        w for block in blocks for w in reversed(block)][:5000]


class Words:
    """A word source that hands out the given words in order."""

    def __init__(self, words):
        self.given, self.taken = list(words), 0

    def words(self, count):
        out = self.given[self.taken:self.taken + count]
        assert len(out) == count, "the decoder read past the words given"
        self.taken += count
        return np.array(out, dtype=np.uint64)


def bit_run_steps(words, count):
    """``count`` uniform steps read bit by bit: step k starts at bit 0 of
    words[k], 1 there is the edge move, and otherwise i and j count the zero
    bits before each of the next two 1 bits; a run that passes bit 63 reads
    on into words[count:], in step order."""
    extra = iter(words[count:])
    steps = []
    for word in words[:count]:
        if word & 1:
            steps.append((1, -1))
            continue
        pos, runs = 1, []
        for _ in range(2):
            run = 0
            while True:
                if pos == 64:
                    word, pos = next(extra), 0
                pos += 1
                if (word >> (pos - 1)) & 1:
                    break
                run += 1
            runs.append(run)
        steps.append((-runs[0], runs[1]))
    return steps


def decoded(dist, words, count):
    source = Words(words)
    dxs, dys = _increment_draw(dist)(count, source)
    assert source.taken == len(words)
    return list(zip(dxs.tolist(), dys.tolist()))


def test_uniform_decode_is_the_bit_run_decoder():
    # 10**5 Philox words, then words whose runs pass bit 15 (about one face
    # word in 2 000 does) and bit 63, reading on into the words after them
    words = CounterRng(5).words(100_000).tolist()
    words += [0, 1 << 16, 1 << 17 | 1 << 40, 1 << 1, 1 << 63, 1 << 62,
              1 << 10 | 1 << 20]
    count = len(words)
    words += [1 << 3, 0, 1 << 5 | 1 << 7, 1, 1 << 2, 1 << 4, 1 << 3]
    steps = decoded(UNI, words, count)
    assert steps == bit_run_steps(words, count)
    assert steps[-7:] == [(-66, 129), (-15, 47), (-16, 22), (0, 64), (-62, 4),
                          (-61, 4), (-9, 9)]
    # the Philox words hold face words whose runs pass bit 15, too
    assert sum(w & 1 == 0 and bin(w & 0xFFFF).count("1") < 2
               for w in words[:100_000]) == 26


def test_uniform_decode_reads_far_runs_in_step_order():
    # three face words whose runs pass bit 63 take the words after the draw
    # in step order; an edge word between them takes none
    words = [0, 1, 1 << 1, 0] + [1 << 2, 1 << 3, 1 << 4, 1, 1 << 7]
    assert decoded(UNI, words, 4) == [(-65, 64), (1, -1), (0, 66), (-63, 70)]


def _largest_remainder(dist):
    moves = dist.finite_moves()
    probs = [Fraction(p) for _, p in moves]
    shares = [p * 2**64 / sum(probs) for p in probs]
    weights = [floor(x) for x in shares]
    left = 2**64 - sum(weights)
    for k in sorted(range(len(moves)), key=lambda k: (weights[k] - shares[k], k))[:left]:
        weights[k] += 1
    return [mv.delta for mv, _ in moves], weights


FINITE_LAWS = {
    **PINNED_LAWS,
    "3-30": step_distribution(weights_from_text("3 1\n30 1\n")),
    # the two moves of mass 0.15 have equal remainders, and one left-over
    # word is theirs: the earlier move, (-1, 1), takes it
    "split-tie": direct_distribution({(1, -1): 0.15, (0, 0): 0.7, (-1, 1): 0.15}),
    # three quadrangle moves below 2**-64 weigh 0 words; a lone move all 2**64
    "zero-weight": step_distribution(weights_from_text("3 1\n4 1e-25\n")),
    "lone": direct_distribution({(0, 0): 1.0}),
}


@pytest.mark.parametrize("law", sorted(FINITE_LAWS.keys() - {"uniform"}))
def test_finite_draw_gives_each_move_its_integer_weight(law):
    # the weights: exact largest remainder of the law's float probabilities
    # on 2**64 words; the draw gives move k every word of its interval
    dist = FINITE_LAWS[law]
    deltas, weights = _largest_remainder(dist)
    assert sum(weights) == 2**64 and len(set(deltas)) == len(deltas)
    starts = [sum(weights[:k]) for k in range(len(weights))]
    probe = [w for s, wt in zip(starts, weights) if wt for w in (s, s + wt - 1)]
    want = [d for d, wt in zip(deltas, weights) if wt for _ in range(2)]
    assert decoded(dist, probe, len(probe)) == want
    # between the interval ends too: 10**4 Philox words
    words = CounterRng(3).words(10_000).tolist()
    want = [deltas[bisect_right(starts, w) - 1] for w in words]
    assert decoded(dist, words, len(words)) == want


def test_finite_draw_tables_make_no_move_objects(monkeypatch):
    # a finite and a direct law's draw tables come from their move runs,
    # never from finite_moves, and give each move its integer weight
    laws = [FINITE_LAWS["3-30"], FINITE_LAWS["split-tie"]]
    references = [_largest_remainder(dist) for dist in laws]

    def refuse(self):
        raise AssertionError("finite_moves was called")

    monkeypatch.setattr(StepDistribution, "finite_moves", refuse)
    words = CounterRng(4).words(10_000).tolist()
    for dist, (deltas, weights) in zip(laws, references):
        starts = [sum(weights[:k]) for k in range(len(weights))]
        want = [deltas[bisect_right(starts, w) - 1] for w in words]
        assert decoded(dist, words, len(words)) == want


def test_rejection_draw_of_one_edge_reads_no_words():
    # at ell = 1 the one walk is the empty one, and the stream stays unread
    rng = CounterRng(6)
    for dist in (TRI, UNI):
        assert rejection_sample_many(dist, 0, 0, 1, rng, 3) == [LatticeWalk((0, 0), ())] * 3
    assert rng.words(4).tolist() == CounterRng(6).words(4).tolist()


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
