import random
from fractions import Fraction

import numpy as np
import pytest

from bipolar_maps.errors import NoZeroDriftError
from bipolar_maps.walks import EDGE, FaceMove, move_of
from bipolar_maps.weights import (FaceWeights, direct_distribution,
                                  direct_distribution_from_text, feasible,
                                  period, preset_weights, solve_lambda,
                                  step_distribution, theory_stats,
                                  weights_from_text)


def test_lambda_presets():
    assert abs(solve_lambda(preset_weights("uniform")) - 0.5) <= 1e-12
    assert abs(solve_lambda(preset_weights("tri")) - 1.0) <= 1e-12
    assert abs(solve_lambda(preset_weights("quad")) - 3 ** -0.25) <= 1e-12
    assert abs(solve_lambda(preset_weights("kgon:5")) - 6 ** (-1 / 5)) <= 1e-12


def test_solve_lambda_finds_a_root_above_one():
    # a triangle of weight 1/2 has the drift sum lambda^3 / 2: the root is
    # 2^(1/3), which the search reaches by doubling its upper end
    assert abs(solve_lambda(FaceWeights({3: Fraction(1, 2)})) - 2 ** (1 / 3)) <= 1e-12


def test_solve_lambda_refuses_a_root_past_its_search():
    # the root (10^40)^(1/3), about 2.2e13, lies past the search's 1e12
    with pytest.raises(NoZeroDriftError, match="no zero-drift distribution exists"):
        solve_lambda(FaceWeights({3: 1e-40}))


def test_no_zero_drift():
    with pytest.raises(ValueError):
        FaceWeights({2: Fraction(1)})  # no degree >= 3 with positive weight


def test_triangulation_distribution():
    d = step_distribution(preset_weights("tri"))
    assert abs(d.norm - 3.0) <= 1e-12
    assert abs(d.p_edge - 1 / 3) <= 1e-12
    assert abs(d.face_probs[3] - 1 / 3) <= 1e-12


def test_uniform_distribution_values():
    d = step_distribution(preset_weights("uniform"))
    assert abs(d.norm - 8.0) <= 1e-12
    assert abs(d.p_edge - 0.5) <= 1e-12
    for i in range(4):
        for j in range(4):
            assert abs(d.prob_of_move(FaceMove(i, j)) - 2.0 ** (-i - j - 3)) <= 1e-12
    assert abs(d.prob_of_move(EDGE) - 0.5) <= 1e-12


def test_probabilities_sum_to_one():
    for name in ("tri", "quad", "kgon:5", "kgon:7"):
        d = step_distribution(preset_weights(name))
        total = d.p_edge + sum((k - 1) * p for k, p in d.face_probs.items())
        assert abs(total - 1.0) <= 1e-12


def test_period():
    assert period(preset_weights("tri")) == 3
    assert period(preset_weights("quad")) == 2
    assert period(preset_weights("uniform")) == 1
    assert period(FaceWeights({4: 1, 7: 1})) == 1
    assert period(FaceWeights({6: 1, 9: 1})) == 3


def test_feasible_examples():
    tri = preset_weights("tri")
    assert feasible(tri, 0, 1, 3)[0]
    assert not feasible(tri, 0, 1, 4)[0]
    quad = preset_weights("quad")
    ok, reason = feasible(quad, 1, 0, 5)
    assert not ok and "odd" in reason
    assert feasible(quad, 0, 0, 5)[0]
    assert not feasible(quad, 0, 0, 6)[0]  # sharper than the even-b congruence


def test_too_few_steps_is_infeasible_for_every_family():
    # a walk from (0, m) to (n, 0) takes at least max(m, n) edge moves
    uniform, tri = preset_weights("uniform"), preset_weights("tri")
    for w, m, n, ell in ((uniform, 40, 0, 30), (uniform, 0, 5, 5), (tri, 9, 0, 4)):
        ok, reason = feasible(w, m, n, ell)
        assert not ok and "edge moves" in reason
    assert feasible(uniform, 4, 0, 5)[0] and feasible(uniform, 0, 4, 5)[0]
    assert feasible(tri, 9, 0, 10)[0]


def test_theory_values_triangulation():
    ts = theory_stats(step_distribution(preset_weights("tri")))
    assert abs(ts.var_diff - 2.0) <= 1e-9
    assert abs(ts.var_sum - 2 / 3) <= 1e-9
    assert abs(ts.cov[0][0] - 2 / 3) <= 1e-9
    assert abs(ts.cov[0][1] + 1 / 3) <= 1e-9


def test_theory_values_uniform():
    ts = theory_stats(step_distribution(preset_weights("uniform")))
    assert abs(ts.var_diff - 6.0) <= 1e-6
    assert abs(ts.var_sum - 2.0) <= 1e-6
    assert abs(ts.ratio - 3.0) <= 1e-9


def test_uniform_law_in_closed_form():
    w = preset_weights("uniform")
    assert solve_lambda(w) == 0.5
    d = step_distribution(w)
    ts = theory_stats(d)
    assert (ts.var_diff, ts.var_sum, ts.ratio) == (6.0, 2.0, 3.0)
    assert ts.cov == ((2.0, -1.0), (-1.0, 2.0))
    assert ts.face_degree_law == {k: (k - 1) / 2 ** k for k in range(2, 56)}
    # exact partial sums of P(E) = 1/2 and P(F(i, j)) = 2^-(i+j+3), i + j <= 60
    law = {(1, -1): Fraction(1, 2)}
    law.update({(-i, s - i): Fraction(1, 2 ** (s + 3))
                for s in range(61) for i in range(s + 1)})
    assert all(d.prob_of_move(move_of(dx, dy)) == p for (dx, dy), p in law.items())
    partial = {
        "total": sum(law.values()),
        "E[dx]": sum(dx * p for (dx, _), p in law.items()),
        "E[dy]": sum(dy * p for (_, dy), p in law.items()),
        "Var[X-Y]": sum((dx - dy) ** 2 * p for (dx, dy), p in law.items()),
        "Var[X+Y]": sum((dx + dy) ** 2 * p for (dx, dy), p in law.items()),
    }
    closed = {"total": 1, "E[dx]": 0, "E[dy]": 0,
              "Var[X-Y]": ts.var_diff, "Var[X+Y]": ts.var_sum}
    for name, value in partial.items():
        assert abs(value - Fraction(closed[name])) <= 1e-12, name


def test_nan_drift_sum_has_no_root():
    # below lambda = 1 the degree-10**200 term is inf * 0.0 = NaN
    with pytest.raises(NoZeroDriftError) as err:
        solve_lambda(FaceWeights({3: 1, 10 ** 200: 1}))
    assert str(err.value) == ("no zero-drift distribution: the drift sum is NaN "
                              "at lambda=1.0000000000000002e-12")


def test_root_within_a_float_step_of_one_is_named():
    # at 10**18 the root is the float below 1; at 10**20 it lies between them
    assert solve_lambda(FaceWeights({3: 1, 10 ** 18: 1})) == 1 - 2 ** -53
    with pytest.raises(NoZeroDriftError) as err:
        solve_lambda(FaceWeights({3: 1, 10 ** 20: 1}))
    assert str(err.value) == (
        "no zero-drift distribution in floats: the root lies within a float "
        "step of lambda=1.0, where the drift sum jumps from 0.9999999999999997 "
        "to 5e+39")


@pytest.mark.parametrize("support, message", [
    ({3.5: 1}, "face degree must be an integer, got 3.5"),
    ({3.9: 1}, "face degree must be an integer, got 3.9"),
    ({"3": 1}, "face degree must be an integer, got '3'"),
    ({3: float("inf")}, "weight inf for degree 3 is not finite"),
    ({3: float("-inf")}, "weight -inf for degree 3 is not finite"),
    ({3: float("nan")}, "NaN"),
], ids=["degree-3.5", "degree-3.9", "degree-str", "weight-inf", "weight-minus-inf",
        "weight-nan"])
def test_face_weights_refuse_non_integer_degrees_and_non_finite_weights(support, message):
    with pytest.raises(ValueError, match=message):
        FaceWeights(support)


def test_face_weights_accept_numpy_int_degrees():
    w = FaceWeights({np.int64(3): 1, np.int32(5): Fraction(1, 2)})
    assert w.support == {3: 1, 5: Fraction(1, 2)}
    assert all(type(k) is int for k in w.support)


def test_quad_degree_law_mass_on_four():
    ts = theory_stats(step_distribution(preset_weights("quad")))
    assert abs(ts.face_degree_law[4] - 1.0) <= 1e-9


def test_variance_identity_random_supports():
    rng = random.Random(7)
    for _ in range(100):
        supp = {}
        for k in range(2, rng.randint(3, 12)):
            if rng.random() < 0.6:
                supp[k] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        supp[rng.randint(3, 12)] = Fraction(rng.randint(1, 9))
        ts = theory_stats(step_distribution(FaceWeights(supp)))
        assert abs(ts.var_diff - 3 * ts.var_sum) <= 1e-9 * max(1.0, ts.var_diff)


def test_reflection_symmetry_of_measures():
    # face moves of one degree share a probability, so nu(-i,j) = nu(-j,i)
    d = step_distribution(preset_weights("kgon:6"))
    for i in range(5):
        j = 4 - i
        assert d.prob_of_move(FaceMove(i, j)) == d.prob_of_move(FaceMove(j, i))


def test_direct_distribution_validation():
    # antidiagonal-heavy measure: valid, ratio above 3
    nu = {(1, -1): 0.45, (-1, 1): 0.35, (-1, 0): 0.1, (0, 1): 0.1}
    d = direct_distribution(nu)
    ts = theory_stats(d)
    assert ts.ratio > 3.0
    with pytest.raises(ValueError):
        direct_distribution({(1, -1): 0.6, (-1, 0): 0.2, (0, 1): 0.2})  # drift
    with pytest.raises(ValueError):
        direct_distribution({(1, -1): 0.5, (-2, 0): 0.3, (0, 2): 0.2})  # asymmetric


def test_direct_distribution_refuses_non_integer_increments():
    # int() would read this law as the triangulation law and accept it
    with pytest.raises(ValueError, match="must be an integer"):
        direct_distribution({(1, -1): 1 / 3, (-1.2, 0): 1 / 3, (0, 1.2): 1 / 3})
    with pytest.raises(ValueError, match="must be an integer"):
        direct_distribution({(1, -1): 1 / 3, (-1, 0): 1 / 3, (0, "1"): 1 / 3})
    # numpy ints are integers
    d = direct_distribution({(np.int64(1), np.int64(-1)): 1 / 3, (-1, 0): 1 / 3,
                             (0, np.int64(1)): 1 / 3})
    assert d.direct == {(1, -1): 1 / 3, (-1, 0): 1 / 3, (0, 1): 1 / 3}
    assert all(type(v) is int for step in d.direct for v in step)


def test_weights_file_parsing():
    w = weights_from_text("# comment\n3 1\n5 0.5\n")
    assert w.support == {3: Fraction(1), 5: Fraction(1, 2)}
    assert weights_from_text("uniform\n").uniform
    with pytest.raises(ValueError):
        weights_from_text("uniform\n3 1\n")


def test_repeated_lines_are_rejected():
    with pytest.raises(ValueError, match="face degree 3 is given twice"):
        weights_from_text("3 1\n5 1\n3 2\n")
    with pytest.raises(ValueError, match=r"step \(0, 1\) is given twice"):
        direct_distribution_from_text("1 -1 0.25\n0 1 0.25\n-1 0 0.5\n0 1 0.25\n")


def test_period_divides_return_times():
    # unconstrained-walk return times to the origin, by plane DP up to 60 steps
    def return_times(w, horizon=60):
        moves = [mv.delta for mv, _ in w.moves(horizon)]
        reach = {(0, 0)}
        times = []
        for t in range(1, horizon + 1):
            reach = {(x + dx, y + dy) for (x, y) in reach for dx, dy in moves
                     if abs(x + dx) <= horizon and abs(y + dy) <= horizon}
            if (0, 0) in reach:
                times.append(t)
        return times

    for name in ("tri", "quad", "kgon:5"):
        w = preset_weights(name)
        b = period(w)
        times = return_times(w)
        assert times, name
        assert all(t % b == 0 for t in times)
        # every large enough multiple of b up to the horizon is attained
        attained = set(times)
        missing = [t for t in range(b, 61, b) if t not in attained]
        assert not missing or max(missing) < 40, (name, sorted(attained))


def test_quad_normalizer():
    d = step_distribution(preset_weights("quad"))
    lam = d.lam
    assert abs(d.norm - (lam ** -2 + 3 * lam ** 2)) <= 1e-9
    assert abs(d.p_edge - lam ** -2 / d.norm) <= 1e-12
