"""The map pipeline on one 30 000-edge tri map: pinned outputs, and no
collector churn."""

import gc
import hashlib
import json

import pytest

from bipolar_maps.enumeration import exact_sampler
from bipolar_maps.planar_map import dual_map, map_to_json, validate_bipolar
from bipolar_maps.rng import CounterRng
from bipolar_maps.sewing import map_to_walk, walk_to_map
from bipolar_maps.simulate import attach_degree_stats, covariance_report, degrees_from_walk
from bipolar_maps.weights import preset_weights, step_distribution

ELL = 30_000


TRI = preset_weights("tri")


@pytest.fixture(scope="module")
def walk():
    return exact_sampler(TRI, 0, 1, ELL)(CounterRng(1, 0))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_large_map_outputs_are_pinned(walk):
    m = walk_to_map(walk)
    trace = degrees_from_walk(walk)
    degrees = json.dumps([trace.indegree, trace.outdegree, trace.created_at,
                          sorted(trace.final_frontier)])
    assert sha256(map_to_json(m)) == \
        "3845893623a599f097908c29e871bae9c5cf4a020025743b194fb9129d354789"
    assert sha256(map_to_json(dual_map(m))) == \
        "5f138ba13de0a9766753673ef11e7542872d61b1f31da5b7ac33ad7176d6411a"
    assert sha256(degrees) == \
        "f6820c5a440c3487e82884348512d0ca3c614a9c10fe2d665de3b0e3a93180b5"


def pipeline(walk):
    m = walk_to_map(walk)
    assert not validate_bipolar(m)
    assert map_to_walk(m) == walk
    dual_map(m)
    report = covariance_report([walk], step_distribution(TRI), CounterRng(1, 1), bootstrap=100)
    attach_degree_stats(report, degrees_from_walk(walk))
    map_to_json(m)


def test_large_map_pipeline_leaves_the_collector_idle(walk):
    # the layers keep the map in flat int lists: were they to hold a tuple or
    # a list per edge, the 30 000-edge map would set off hundreds of
    # collections, full ones among them
    pipeline(exact_sampler(TRI, 0, 1, 300)(CounterRng(1, 0)))  # imports and caches
    collections = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        pipeline(walk)
    finally:
        gc.callbacks.remove(count)
    assert collections[2] == 0 and sum(collections) <= 10, collections
