"""The family-file reader: decoding one member at a time gives what decoding
the whole document gives, on every layout, and the same error otherwise."""

import json

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from transversal import familyio
from transversal.geometry import ValidationError

#: JSON whitespace, the only bytes a document may hold between tokens.
WHITESPACE = " \t\n\r"

#: Finite doubles at the edges of the format.
EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1.0, -1.0]


def outcome(load):
    """(normals bytes, shape, labels) of a load, or its ValidationError message."""
    try:
        family, labels = load()
    except ValidationError as exc:
        return "error", str(exc)
    return family.normals.tobytes(), family.normals.shape, labels


def both_outcomes(path, text):
    """Outcomes of load_family and of the whole-document decode of ``text``."""
    data = text.encode()
    path.write_bytes(data)
    streamed = outcome(lambda: familyio.load_family(path))
    whole = outcome(lambda: familyio.family_from_dict(familyio._parse(data, path)))
    return streamed, whole


def render(value, gap) -> str:
    """JSON text of ``value`` with gap() between every pair of tokens."""
    if isinstance(value, dict):
        items = (json.dumps(key) + gap() + ":" + gap() + render(item, gap)
                 for key, item in value.items())
        return "{" + gap() + (gap() + "," + gap()).join(items) + gap() + "}"
    if isinstance(value, list):
        items = (render(item, gap) for item in value)
        return "[" + gap() + (gap() + "," + gap()).join(items) + gap() + "]"
    return json.dumps(value)


def benchmark_layout(doc) -> str:
    """The benchmark's family files: one member block per line."""
    lines = ",\n".join(json.dumps(block) for block in doc["normals"])
    return '{"codim": %d, "dim": %d, "normals": [\n%s\n]}\n' % (
        doc["codim"], doc["dim"], lines)


LAYOUTS = {
    "benchmark": benchmark_layout,
    "indent-2": lambda doc: json.dumps(doc, sort_keys=True, indent=2) + "\n",
    "compact": lambda doc: json.dumps(doc, separators=(",", ":")),
    "flat-k1": lambda doc: json.dumps({**doc, "normals": [b[0] for b in doc["normals"]]}),
    "labels-first": lambda doc: json.dumps(
        {"labels": [f"m{j}" for j in range(len(doc["normals"]))],
         "normals": doc["normals"], "dim": doc["dim"], "codim": doc["codim"]}),
}


def random_numbers(rng, shape, ints):
    """Nested lists of random finite float64 bit patterns, with integer
    tokens in place of a fraction ``ints`` of them."""
    bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, rng.choice(EDGE_DOUBLES, size=shape))
    numbers = bits.tolist()
    flat = [row for block in numbers for row in block]
    for row in flat:
        for i in np.flatnonzero(rng.random(len(row)) < ints):
            row[i] = int(rng.integers(-2**63, 2**63))
    return numbers


@given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(sorted(LAYOUTS)),
       n=st.integers(2, 7), J=st.integers(1, 6), ints=st.sampled_from([0.0, 0.3, 1.0]))
@settings(max_examples=150, deadline=None)
def test_streamed_family_equals_whole_document(tmp_path_factory, seed, layout, n, J, ints):
    rng = np.random.default_rng(seed)
    k = 1 if layout == "flat-k1" else int(rng.integers(1, n))
    doc = {"dim": n, "codim": k, "normals": random_numbers(rng, (J, k, n), ints)}
    text = LAYOUTS[layout](doc)
    split = familyio._split_family(text.encode())
    assert np.array(split["normals"]).tobytes() == \
        np.array(doc["normals"], dtype=float).tobytes()
    path = tmp_path_factory.mktemp("layout") / "family.json"
    streamed, whole = both_outcomes(path, text)
    assert streamed == whole


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), J=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_streamed_family_takes_any_json_whitespace(tmp_path_factory, seed, n, J):
    rng = np.random.default_rng(seed)
    doc = {"codim": 1, "labels": [f"v{j}" for j in range(J)], "dim": n,
           "normals": random_numbers(rng, (J, 1, n), 0.2)}
    text = render(doc, lambda: "".join(rng.choice(list(WHITESPACE), rng.integers(0, 4))))
    assert familyio._split_family(text.encode()) is not None
    streamed, whole = both_outcomes(tmp_path_factory.mktemp("ws") / "family.json", text)
    assert streamed == whole and streamed[2] == doc["labels"]


GOOD = '[[1, 0, 0]], [[0, 1.0, 0]]'

ODD_DOCUMENTS = {
    "nested-normals-first":
        '{"meta": {"normals": [[[0, 0, 1]]]}, "dim": 3, "codim": 1, "normals": [%s]}' % GOOD,
    "only-nested-normals": '{"dim": 3, "codim": 1, "meta": {"normals": [%s]}}' % GOOD,
    "duplicate-normals":
        '{"dim": 3, "codim": 1, "normals": [[[0, 0, 1]]], "normals": [%s]}' % GOOD,
    "escaped-duplicate-empty":
        '{"dim": 3, "codim": 1, "normals": [%s], "norm\\u0061ls": []}' % GOOD,
    "duplicate-normals-last-empty":
        '{"dim": 3, "codim": 1, "normals": [%s], "normals": []}' % GOOD,
    "escaped-empty-then-quoted-key":
        '{"dim": 3, "codim": 1, "norm\\u0061ls": [], "x\\"normals": [%s]}' % GOOD,
    "escaped-key": '{"dim": 3, "codim": 1, "norm\\u0061ls": [%s]}' % GOOD,
    "string-with-bracket": '{"dim": 3, "codim": 1, "normals": [[[1, 0, 0]], "]", [[0, 1, 0]]]}',
    "numeric-string": '{"dim": 3, "codim": 1, "normals": [[["1", 0, 0]]]}',
    "missing-comma": '{"dim": 3, "codim": 1, "normals": [[[1, 0, 0]] [[0, 1, 0]]]}',
    "double-comma": '{"dim": 3, "codim": 1, "normals": [[[1, 0, 0]],, [[0, 1, 0]]]}',
    "trailing-comma": '{"dim": 3, "codim": 1, "normals": [%s,]}' % GOOD,
    "form-feed-separator": '{"dim": 3, "codim": 1, "normals": [[[1, 0, 0]],\f[[0, 1, 0]]]}',
    "trailing-junk": '{"dim": 3, "codim": 1, "normals": [%s]} x' % GOOD,
    "empty-normals": '{"dim": 3, "codim": 1, "normals": []}',
    "normals-object": '{"dim": 3, "codim": 1, "normals": {"a": [%s]}}' % GOOD,
    "normals-number": '{"dim": 3, "codim": 1, "normals": 5, "x": [%s]}' % GOOD,
    "number-items": '{"dim": 3, "codim": 1, "normals": [1, 0, 0]}',
    "ragged-members": '{"dim": 3, "codim": 1, "normals": [[[1, 0, 0]], [[0, 1, 0, 0]]]}',
    "ragged-rows": '{"dim": 3, "codim": 2, "normals": [[[1, 0, 0], [0, 1]]]}',
    "flat-member-in-codim-2":
        '{"dim": 3, "codim": 2, "normals": [[[1, 0, 0], [0, 1, 0]], [0, 0, 1]]}',
    "broadcastable-member": '{"dim": 3, "codim": 1, "normals": [[[1, 0, 0]], [[0.5]]]}',
    "three-dimensional-member": '{"dim": 3, "codim": 1, "normals": [[[[1, 0, 0]]]]}',
    "non-numeric-member": '{"dim": 3, "codim": 1, "normals": [[[1, 0, 0]], [[true, {}, 0]]]}',
    "null-entry": '{"dim": 3, "codim": 1, "normals": [[[null, 1, 0]]]}',
    "unclosed-array": '{"dim": 3, "codim": 1, "normals": [[[1, 0, 0]]',
    "top-level-array": '[{"dim": 3, "codim": 1, "normals": [%s]}]' % GOOD,
    "labels-mismatch": '{"dim": 3, "codim": 1, "normals": [%s], "labels": ["a"]}' % GOOD,
    "labels-with-normals": '{"dim": 3, "codim": 1, "normals": [%s], "labels": ["normals", 2]}'
                           % GOOD,
    "labels-escaped": '{"labels": ["a\\"b", "\\u00e9"], "dim": 3, "codim": 1, "normals": [%s]}'
                      % GOOD,
    "nan-token": '{"dim": 3, "codim": 1, "normals": [[[NaN, 1, 0]]]}',
    "overflowing-number": '{"dim": 3, "codim": 1, "normals": [[[1e400, 1, 0]]]}',
    "integer-past-64-bits": '{"dim": 3, "codim": 1, "normals": [[[18446744073709551616, 1, 0]]]}',
    "float-dim": '{"dim": 3.0, "codim": 1, "normals": [%s]}' % GOOD,
    "dim-mismatch": '{"dim": 4, "codim": 1, "normals": [%s]}' % GOOD,
    "truncated-member": '{"dim": 3, "codim": 1, "normals": [[[1, 0, 0]], [[0, 1, 0]',
}


@pytest.mark.parametrize("text", ODD_DOCUMENTS.values(), ids=ODD_DOCUMENTS.keys())
def test_odd_family_documents_read_as_the_whole_document(tmp_path, text):
    streamed, whole = both_outcomes(tmp_path / "family.json", text)
    assert streamed == whole


def test_malformed_family_documents_keep_their_messages(tmp_path):
    """Documents the member walk does not fit fail as the whole document does."""
    expected = {
        "empty-normals": "family document lists no normals",
        "only-nested-normals": "malformed family document: 'normals'",
        "labels-mismatch": "labels must match the number of members",
        "ragged-members": "family member 2 has a normal block of shape (1, 4), "
                          "expected (1, 3)",
        "flat-member-in-codim-2": "family member 2 has a normal block of shape "
                                  "(1, 3), expected (2, 3)",
        "float-dim": "malformed family document: dim must be an integer, got 3.0",
        "dim-mismatch": "family normal blocks are 1 x 3, expected 1 x 4",
    }
    for name, message in expected.items():
        streamed, _ = both_outcomes(tmp_path / "family.json", ODD_DOCUMENTS[name])
        assert streamed == ("error", message), name
    for name in ("missing-comma", "trailing-junk", "nan-token", "overflowing-number",
                 "form-feed-separator", "unclosed-array", "truncated-member"):
        streamed, _ = both_outcomes(tmp_path / "family.json", ODD_DOCUMENTS[name])
        assert streamed[0] == "error" and "not valid JSON" in streamed[1], name


def test_orjson_round_trips_the_edge_doubles():
    """Subnormals, signed zeros and the largest double decode to their bits,
    as Python's own parser decodes them."""
    text = json.dumps(EDGE_DOUBLES)
    decoded = np.array(orjson.loads(text.encode()))
    assert decoded.tobytes() == np.array(EDGE_DOUBLES).tobytes()
    assert decoded.tobytes() == np.array(json.loads(text)).tobytes()
    doc = familyio._split_family(
        ('{"dim": %d, "codim": 1, "normals": [%s]}' % (len(EDGE_DOUBLES), text)).encode())
    assert np.array(doc["normals"]).tobytes() == np.array(EDGE_DOUBLES).tobytes()


@given(lead=st.sampled_from("123456789"),
       digits=st.text("0123456789", min_size=17, max_size=39),
       point=st.integers(0, 39), magnitude=st.integers(-330, 307),
       negative=st.booleans())
@settings(max_examples=300, deadline=None)
def test_long_decimal_tokens_round_as_float_does(lead, digits, point, magnitude, negative):
    """Correct rounding of tokens of 18-40 significant digits, more than a
    double holds, from below the subnormals to the largest double."""
    digits = lead + digits
    point = min(point, len(digits) - 2)  # a digit on each side of the point
    text = ("-" if negative else "") + digits[:point + 1] + "." + digits[point + 1:] \
        + f"e{magnitude - point}"
    decoded = orjson.loads(text.encode())
    assert np.float64(decoded).tobytes() == np.float64(float(text)).tobytes()
