"""Fuzzing the input boundary: user text either parses or raises ValueError.

The CLI turns a ValueError into ``error: ...`` with exit 2; any other
exception would reach the user as a traceback with exit 1, which means
"verification failed".
"""
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from permpat import cli
from permpat.core import Permutation


class Raw(str):
    """JSON text written as is, for numbers that json.dumps cannot produce."""


def to_json(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(to_json(v) for v in value) + "]"
    return json.dumps(value)


hostile = st.sampled_from(
    [Raw(s) for s in ("1e400", "-1e400", "1e-400", "Infinity", "-Infinity", "NaN", "9" * 5000)]
    + [None, True, 1.5, -1, 0, "1", "x", [], {}]
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**300, max_value=10**1000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    hostile,
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# Documents mostly keep the instance's shape, with any field replaced by a
# hostile or arbitrary value, so that the loader gets past its first lookups.
numbers = st.one_of(st.integers(1, 4), hostile, json_values)
graphs = st.fixed_dictionaries({
    "k": numbers,
    "n": numbers,
    "edges": st.one_of(st.lists(st.lists(numbers, max_size=3), max_size=3), json_values),
})
documents = st.one_of(
    st.fixed_dictionaries({
        "G": st.one_of(graphs, json_values),
        "H": st.one_of(graphs, json_values),
        "chi": st.one_of(st.lists(numbers, max_size=4), json_values),
    }),
    json_values,
)


@given(st.text(max_size=40) | st.lists(st.sampled_from(["1", "2", "12", "-3", "²", "1e3", "2.7", "٣", " "])).map("".join))
@settings(max_examples=200)
def test_permutation_parse_returns_or_raises_value_error(text):
    try:
        Permutation.parse(text)
    except ValueError:
        pass


@given(documents)
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_instance_returns_or_raises_value_error(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(to_json(doc), encoding="utf-8")
    try:
        cli._load_instance(str(path))
    except ValueError:
        pass


@st.composite
def permutation_texts(draw):
    """A permutation of 1..n, n <= 9, mostly in canonical form, but with
    some other separators, leading zeros and plus signs."""
    values = draw(st.integers(0, 9).flatmap(lambda n: st.permutations(range(1, n + 1))))
    tokens = [draw(st.sampled_from([""] * 6 + ["0", "+"])) + str(v) for v in values]
    gaps = [draw(st.sampled_from([" "] * 6 + ["  ", "\t", "\n", "\r\n", "\x1c", "\xa0"])) for _ in tokens]
    head = draw(st.sampled_from([""] * 6 + [" ", "\n", "\t"]))
    tail = draw(st.sampled_from([""] * 4 + ["\n"] * 3 + [" ", "\n\n", "\r\n"]))
    return head + "".join(g + t for g, t in zip([""] + gaps, tokens)) + tail


@given(permutation_texts())
@settings(max_examples=200)
def test_parse_with_text_echoes_to_text(text):
    # the echo is to_text(), whether it is the input itself or written anew
    try:
        perm, echo = Permutation.parse_with_text(text)
    except ValueError:
        return
    assert echo == perm.to_text()
