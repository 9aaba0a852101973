"""The CLI's instance read against plain JSON and numpy.

The digest must be the SHA-256 of ``json.dumps(doc, sort_keys=True,
separators=(",", ":"))`` whatever the file's key order and whitespace, and
the mixtures must be bit for bit those ``model.parse_instance`` builds from
the nested lists.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

import mixtv as mx
from mixtv import cli, model


def canonical_digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# Valid marginal rows as JSON may spell them: int and bool leaves, -0.0,
# integral floats, entries in (-1e-12, 0) and sums off by up to 1e-9,
# which validation renormalizes. Rows on one line are equal as floats but
# not as JSON. Every row with a bool also holds a float, so no block is
# all bools.
FIXED_ROWS = {
    2: [
        [1.0, 0.0], [1, 0], [True, 0.0], [1, 0.0],
        [0.0, 1.0], [-0.0, 1.0], [0, 1], [0.0, True],
        [0.5, 0.5], [-5e-13, 1.0], [0.3, 0.7 + 4e-10], [0.25, 0.75 - 6e-10],
    ],
    3: [
        [1.0, 0.0, 0.0], [1, 0, 0], [1.0, -0.0, False],
        [0.5, 0.5, 0.0], [0.5, 0.5, -0.0], [0.5, 0.5, 0],
        [1 / 3, 1 / 3, 1 / 3], [-5e-13, 0.5, 0.5], [0.2, 0.3, 0.5 - 6e-10],
    ],
}
UNIT = st.floats(0.0, 1.0)
EXTRA = st.lists(st.one_of(st.integers(-3, 3), st.none(), st.floats(allow_nan=False)), max_size=4)


@st.composite
def rows(draw, q):
    if draw(st.booleans()):
        return draw(st.sampled_from(FIXED_ROWS[q]))
    a = draw(UNIT)
    if q == 2:
        return [a, 1.0 - a]
    b = draw(st.floats(0.0, 1.0 - a))
    return [a, b, (1.0 - a) - b]


@st.composite
def blocks(draw, k, n, q):
    """A k x n x q block: rows from a small pool of fixed rows, or each drawn afresh."""
    if draw(st.booleans()):
        pool = draw(st.lists(st.sampled_from(FIXED_ROWS[q]), min_size=1, max_size=4))
        cell = st.sampled_from(pool)
    else:
        cell = rows(q)
    return [[draw(cell) for _ in range(n)] for _ in range(k)]


@st.composite
def weights(draw, k):
    if k == 1:
        return draw(st.sampled_from([[1], [1.0]]))
    one_hot = [0] * k
    one_hot[draw(st.integers(0, k - 1))] = 1
    return draw(st.sampled_from([[1.0 / k] * k, one_hot, [0.5, 0.5] + [-0.0] * (k - 2)]))


def shuffled(draw, obj: dict) -> dict:
    return dict(draw(st.permutations(list(obj.items()))))


@st.composite
def instance_files(draw):
    """(document, its file text) for a valid instance, keys unsorted and any indent."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 8))
    doc = {"q": q, "n": n}
    for key in ("p", "q_dist"):
        k = draw(st.integers(1, 3))
        mix = {"weights": draw(weights(k)), "components": draw(blocks(k, n, q))}
        if draw(st.booleans()):
            mix["extra"] = draw(st.one_of(EXTRA, blocks(1, 2, q)))
        doc[key] = shuffled(draw, mix)
    if draw(st.booleans()):
        doc["meta"] = draw(EXTRA)
    doc = shuffled(draw, doc)
    indent = draw(st.sampled_from([None, 0, 1, 2, "\t"]))
    return doc, json.dumps(doc, indent=indent)


def assert_same_bits(got: mx.Mixture, ref: mx.Mixture) -> None:
    for a, b in ((got.weights, ref.weights), (got.components, ref.components)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("digest") / "instance.json"


@settings(derandomize=True, database=None, deadline=None)
@given(instance_files())
def test_read_matches_json_and_parse_instance(doc_path, case):
    doc, text = case
    doc_path.write_text(text)
    p, q, digest = cli._load_instance(str(doc_path))
    assert digest == canonical_digest(doc)
    ref_p, ref_q = model.parse_instance(json.loads(text))
    assert_same_bits(p, ref_p)
    assert_same_bits(q, ref_q)


@pytest.mark.parametrize(
    "components",
    [
        [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5]]],  # components of different lengths
        [[[0.5, 0.5], [0.5, 0.25, 0.25]], [[0.5, 0.5], [0.5, 0.5]]],  # rows of different lengths
    ],
    ids=["ragged-components", "ragged-rows"],
)
def test_ragged_block_is_encoded_whole_and_rejected(doc_path, capsys, components):
    row = [[0.5, 0.5], [0.5, 0.5]]
    doc = {
        "q": 2,
        "n": 2,
        "p": {"weights": [0.5, 0.5], "components": components},
        "q_dist": {"weights": [1.0], "components": [row]},
    }
    doc_path.write_text(json.dumps(doc))
    assert cli._float_block(components) is None
    assert cli._digest(doc)[0] == canonical_digest(doc)
    with pytest.raises(mx.ShapeMismatch, match="could not coerce mixture arrays"):
        cli._load_instance(str(doc_path))
    assert cli.run(["exact-subcube", "--input", str(doc_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "validation"
    assert "could not coerce mixture arrays" in json.loads(err)["detail"]
