"""Fuzzed text and JSON readers: every input parses or raises a typed error.

The CLI turns BipolarError and ValueError into documented exit codes, so
any other exception from a reader would reach the user as a traceback.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bipolar_maps.errors import BipolarError
from bipolar_maps.planar_map import map_from_json, map_to_json
from bipolar_maps.sewing import walk_to_map
from bipolar_maps.walks import walk_from_text
from bipolar_maps.weights import direct_distribution_from_text, weights_from_text

from conftest import FIG_WALK

# the same examples on every run, and no example database left on disk
FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

# lines of numbers and the keywords the formats use, so that many texts get
# past the first checks, mixed with arbitrary text
NUMBER = st.one_of(
    st.integers(-3, 4).map(str),
    st.sampled_from(["1/0", "1/2", "0.5", "1e5", "-0", "nan", "inf", "-", "."]),
)
WORD = st.one_of(NUMBER, st.sampled_from(["E", "F", "uniform", "#", ""]),
                 st.text(max_size=4))
LINE = st.one_of(st.lists(NUMBER, min_size=2, max_size=3).map(" ".join),
                 st.lists(WORD, max_size=4).map(" ".join))
TEXT = st.one_of(st.text(max_size=60), st.lists(LINE, max_size=6).map("\n".join))


def _parses_or_typed_error(reader, text):
    try:
        reader(text)
    except (BipolarError, ValueError):
        pass


@FUZZ
@given(TEXT)
def test_walk_reader(text):
    _parses_or_typed_error(walk_from_text, text)


@FUZZ
@given(TEXT)
def test_weights_reader(text):
    _parses_or_typed_error(weights_from_text, text)


@FUZZ
@given(TEXT)
def test_direct_distribution_reader(text):
    _parses_or_typed_error(direct_distribution_from_text, text)


@FUZZ
@given(TEXT)
def test_map_reader_on_text(text):
    _parses_or_typed_error(map_from_json, text)


FIG_MAP = json.loads(map_to_json(walk_to_map(FIG_WALK)))
JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(allow_nan=False),
              st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=4), max_leaves=12)


@st.composite
def mutated_map(draw):
    """The figure map's JSON with a few fields, rows or entries replaced.

    Integers are mostly near the map's own ids and sometimes unbounded: a
    reader that converts them to machine words, or allocates by a count,
    before its range checks fails on those."""
    obj = json.loads(json.dumps(FIG_MAP))
    for _ in range(draw(st.integers(1, 4))):
        key = draw(st.sampled_from(sorted(obj) + ["extra"]))
        if isinstance(obj.get(key), list) and obj[key] and draw(st.booleans()):
            rows = obj[key]
            i = draw(st.integers(0, len(rows) - 1))
            if isinstance(rows[i], list) and rows[i] and draw(st.booleans()):
                j = draw(st.integers(0, len(rows[i]) - 1))
                rows[i][j] = draw(st.one_of(st.integers(-40, 40), st.integers(), JSON_VALUE))
            else:
                rows[i] = draw(JSON_VALUE)
        elif draw(st.integers(0, 9)) == 0:
            obj.pop(key, None)
        else:
            obj[key] = draw(st.one_of(st.integers(-2, 40), st.integers(), JSON_VALUE))
    return json.dumps(obj)


@FUZZ
@given(mutated_map())
def test_map_reader_on_mutated_maps(text):
    _parses_or_typed_error(map_from_json, text)
