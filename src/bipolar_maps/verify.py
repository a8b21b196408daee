"""Built-in invariant suite behind the ``verify`` CLI verb.

Runs cheap exhaustive checks over small sizes: bijection round trips,
enumeration against the closed form, table ranks against the enumeration
order (full mode only), dual validation and involution,
zero-drift and variance identities, feasibility against exact counts, and
embeddings checked by both the certificate and the pairwise verifier.
Quick mode trims the ranges.
"""

from __future__ import annotations

import random

from . import enumeration, weights
from .embedding import upward_embed, verify_upward_planar
from .planar_map import (canonical_form, dual_map, map_from_json, map_to_json,
                         reverse_map, validate_bipolar)
from .sewing import map_to_walk, sew, state_from_map, state_rotate180, unsew, walk_to_map
from .walks import EDGE, face_move, reverse_moves, walk_from_text, walk_to_text


def all_triangulation_walks(max_moves):
    """Every quadrant triangulation code with at most max_moves steps."""
    tri = weights.preset_weights("tri")
    for T in range(max_moves + 1):
        for m in range(T + 1):
            for n in range(T + 2):
                yield from enumeration.enumerate_walks(tri, m, n, T + 1)


def is_simple(mp) -> bool:
    seen = set()
    for t, h in mp.edges:
        if t == h or (t, h) in seen:
            return False
        seen.add((t, h))
    return True


def run_verification(quick: bool = False, seed: int = 0, log=None) -> int:
    """Run every check; returns the number of failures (0 on success)."""
    failures = 0

    def check(name: str, fn) -> None:
        nonlocal failures
        try:
            fn()
            if log:
                print(f"ok - {name}", file=log)
        except Exception as exc:  # report and keep going
            failures += 1
            if log:
                print(f"FAIL - {name}: {exc}", file=log)

    tri = weights.preset_weights("tri")

    def check_counts():
        sizes = [(3, 1), (6, 5), (9, 42)] if quick else \
            [(3, 1), (6, 5), (9, 42), (12, 462), (15, 6006), (18, 87516)]
        for ell, expect in sizes:
            assert enumeration.count_walks(tri, 0, 1, ell) == expect
            assert enumeration.triangulation_count_by_edges(ell) == expect
    check("triangulation counts match the closed form", check_counts)

    def check_ranks():
        quad = weights.preset_weights("quad")
        for w, m, n, top in ((tri, 0, 1, 12), (quad, 0, 0, 13)):
            for ell in range(1, top + 1):
                table = enumeration.build_count_table(w, m, n, ell)
                walks = list(enumeration.enumerate_walks(w, m, n, ell))
                assert enumeration.rank_count(table) == len(walks)
                for rank, walk in enumerate(walks):
                    assert enumeration.walk_of_rank(table, rank) == walk
    if not quick:
        check("table ranks decode to the enumeration order", check_ranks)

    def check_roundtrips():
        rng = random.Random(seed)
        n_seq = 200 if quick else 1000
        for _ in range(n_seq):
            seq = tuple(EDGE if rng.random() < 0.5
                        else face_move(rng.randint(0, 3), rng.randint(0, 3))
                        for _ in range(rng.randint(1, 60)))
            st = sew(seq)
            assert unsew(st) == seq
            assert unsew(state_rotate180(st)) == reverse_moves(seq)
    check("sew/unsew round trip on random sequences", check_roundtrips)

    def check_walk_map():
        max_moves = 5 if quick else 8
        for walk in all_triangulation_walks(max_moves):
            mp = walk_to_map(walk)
            assert not validate_bipolar(mp)
            assert map_to_walk(mp) == walk
            assert unsew(state_from_map(mp)) == walk.moves
            d = dual_map(mp)
            assert not validate_bipolar(d)
            assert canonical_form(dual_map(d)) == canonical_form(reverse_map(mp))
            assert canonical_form(map_from_json(map_to_json(mp))) == canonical_form(mp)
            assert walk_from_text(walk_to_text(walk)) == walk
    check("walk/map bijection, dual, and formats on small maps", check_walk_map)

    def check_theory():
        for name, lam in [("tri", 1.0), ("uniform", 0.5)]:
            w = weights.preset_weights(name)
            assert abs(weights.solve_lambda(w) - lam) <= 1e-9
        for name in ("tri", "quad", "uniform", "kgon:5"):
            dist = weights.step_distribution(weights.preset_weights(name))
            ts = weights.theory_stats(dist)
            assert abs(ts.var_diff - 3 * ts.var_sum) <= 1e-9 * max(1.0, ts.var_diff)
    check("zero drift and variance identities", check_theory)

    def check_feasibility():
        quad = weights.preset_weights("quad")
        top = 8 if quick else 12
        for m in range(3):
            for n in range(3):
                for ell in range(2, top):
                    for w in (tri, quad):
                        cnt = enumeration.count_walks(w, m, n, ell)
                        ok, _ = weights.feasible(w, m, n, ell)
                        assert not (cnt > 0 and not ok)
    check("feasibility congruence never contradicts exact counts",
          check_feasibility)

    def check_embedding():
        max_moves = 8 if quick else 11
        for walk in all_triangulation_walks(max_moves):
            mp = walk_to_map(walk)
            if is_simple(mp):
                emb = upward_embed(mp)  # raises on any certificate violation
                assert verify_upward_planar(mp, emb) == []
    check("upward embedding of every small simple triangulation",
          check_embedding)

    return failures
