"""The CLI's instance read against plain JSON and numpy.

The digest must be the SHA-256 of ``json.dumps(doc, sort_keys=True,
separators=(",", ":"))`` whatever the file's key order, whitespace and
spelling of its floats, and the mixtures must be bit for bit those
``model.parse_instance`` builds from the nested lists.
"""

import hashlib
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixtv as mx
from conftest import benchmark_workloads
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
# Strings that look like the blocks the reader cuts, or that end in an escape.
STRINGS = ["[[[0.5,0.5]]]", "]]] [[[", 'a "quoted" [[[1.0', "back\\slash ]]]", "ends in \\", "NaN", '"']
EXTRA = st.lists(
    st.one_of(
        st.integers(-3, 3),
        st.none(),
        st.floats(allow_nan=False),
        st.sampled_from(STRINGS),
    ),
    max_size=4,
)
# Spellings that are not a float's canonical text but read back as the same float.
RESPELLINGS = {
    "0.5": ["0.50", "5e-1", "5E-1", "0.5e0"],
    "1.0": ["1E0", "1.00", "10e-1", "1e+0"],
    "0.0": ["0.00", "0e5", "0E-3"],
    "-0.0": ["-0.00", "-0e0", "-0E+2"],
    "0.25": ["2.5e-1", "0.250"],
}
LAYOUTS = [{}, {"indent": 0}, {"indent": 1}, {"indent": 2}, {"indent": "\t"}, {"separators": (",", ":")}]


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


def respelled(obj, spell):
    """``obj`` with each float that has other spellings as a placeholder string for one."""
    if type(obj) is float and repr(obj) in RESPELLINGS:
        return "\0" + spell(repr(obj))
    if type(obj) is list:
        return [respelled(value, spell) for value in obj]
    if type(obj) is dict:
        return {key: respelled(value, spell) for key, value in obj.items()}
    return obj


@st.composite
def instance_files(draw):
    """(document, its file text) for a valid instance.

    Keys are unsorted; the layout is compact or indented; floats may be
    spelled as they do not encode; strings hold brackets, quotes and
    backslashes; extra keys hold NaN, Infinity and float blocks, at the top
    level too; and the text may repeat a key, whose last value counts.
    """
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 8))
    doc = {"q": q, "n": n}
    for key in ("p", "q_dist"):
        k = draw(st.integers(1, 3))
        mix = {"weights": draw(weights(k)), "components": draw(blocks(k, n, q))}
        if draw(st.booleans()):
            mix["extra"] = draw(st.one_of(EXTRA, blocks(1, 2, q), st.sampled_from(STRINGS)))
        doc[key] = shuffled(draw, mix)
    if draw(st.booleans()):
        block = blocks(1, 2, q)
        special = st.sampled_from([math.nan, math.inf, -math.inf])
        doc["meta"] = draw(st.one_of(EXTRA, special, block, block.map(lambda b: {"deep": [b]})))
    doc = shuffled(draw, doc)
    layout = draw(st.sampled_from(LAYOUTS))
    written = doc
    if draw(st.booleans()):
        turn = itertools.count(draw(st.integers(0, 3)))
        written = respelled(doc, lambda r: RESPELLINGS[r][next(turn) % len(RESPELLINGS[r])])
    text = re.sub(r'"\\u0000([^"]*)"', r"\1", json.dumps(written, **layout))
    if draw(st.booleans()):  # a key twice in a mixture, then a mixture twice
        decoy = json.dumps({"components": [[[0.25, 0.75]]]}, **layout)[1:-1]
        text = re.sub(r'("p":\s*\{)', lambda m: m[1] + decoy + ",", text, count=1)
        text = text.replace("{", '{"q_dist": {"weights": [1.0], "components": [[[1.0, 0.0]]]},', 1)
    return doc, text


def assert_same_bits(got: mx.Mixture, ref: mx.Mixture) -> None:
    for a, b in ((got.weights, ref.weights), (got.components, ref.components)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("digest") / "instance.json"


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
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
    data = json.dumps(doc).encode()
    doc_path.write_bytes(data)
    ragged = json.dumps(components, separators=(",", ":")).encode()
    assert cli._read_block(memoryview(ragged)) is None
    skeleton, blocks = cli._skeleton(data)
    assert ragged in skeleton and len(blocks) == 1  # only q_dist's block is cut
    read, digest = cli._read(data, str(doc_path))
    assert type(read["p"]["components"]) is list and type(read["q_dist"]["components"]) is np.ndarray
    assert digest == canonical_digest(doc)
    with pytest.raises(mx.ShapeMismatch, match="could not coerce mixture arrays"):
        cli._load_instance(str(doc_path))
    assert cli.run(["exact-subcube", "--input", str(doc_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "validation"
    assert "could not coerce mixture arrays" in json.loads(err)["detail"]


def test_block_under_a_size_key_is_rejected(doc_path, capsys):
    # The reader cuts a float block wherever it stands, so "n" holds an array
    # and the detail shows its repr; json's nested lists would show [[[1.0]]].
    doc = {
        "q": 2,
        "n": [[[1.0]]],
        "p": {"weights": [1.0], "components": [[[0.5, 0.5]]]},
        "q_dist": {"weights": [1.0], "components": [[[1.0, 0.0]]]},
    }
    data = json.dumps(doc).encode()
    doc_path.write_bytes(data)
    read, digest = cli._read(data, str(doc_path))
    assert type(read["n"]) is np.ndarray and digest == canonical_digest(doc)
    assert cli.run(["exact-subcube", "--input", str(doc_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    detail = "declared q=2, n=array([[[1.]]]) but arrays have q=2, n=1"
    assert json.loads(err) == {"error": "validation", "detail": detail}


# An instance whose p block is broken, and the detail that reading it must
# report: json's own message at the position json.load gives in the file.
BROKEN_HEAD = (
    '{"q": 2, "n": 1, "q_dist": {"weights": [1.0], "components": [[[0.5, 0.5]]]}, '
    '"p": {"weights": [1.0], "components": '
)
BROKEN = {
    "double-comma": ("[[[0.5,,0.5]]]}}", "Expecting value: line 1 column 123 (char 122)"),
    "space-between-numbers": ("[[[0.5 0.5]]]}}", "Expecting ',' delimiter: line 1 column 123 (char 122)"),
    "number-gap": ("[[[1.0 5,0.5]]]}}", "Expecting ',' delimiter: line 1 column 123 (char 122)"),
    "unterminated": ("[[[0.5,0.5]", "Expecting ',' delimiter: line 1 column 127 (char 126)"),
    "double-comma-indented": ("[\n  [\n  [\n  0.5,\n  ,\n  0.5]]]}}", "Expecting value: line 5 column 3 (char 134)"),
    "number-gap-indented": ("[\n  [\n  [\n  1.0 5,\n  0.5]]]}}", "Expecting ',' delimiter: line 4 column 7 (char 131)"),
    "unterminated-indented": ("[\n  [\n  [\n  0.5,\n  0.5]", "Expecting ',' delimiter: line 5 column 7 (char 138)"),
}


@pytest.mark.parametrize("name", [*BROKEN, "long-integer"])
def test_broken_block_reports_json_error(doc_path, capsys, name):
    if name == "long-integer":  # 5,001 digits: int() refuses to convert it
        digits = "1" + "0" * 5000
        block = f"[[[{digits},0.5]]]}}}}"
        with pytest.raises(ValueError) as refused:
            int(digits)
        detail = f"{doc_path}: {refused.value}"
    else:
        block, detail = BROKEN[name]
    doc_path.write_text(BROKEN_HEAD + block)
    assert cli.run(["exact-subcube", "--input", str(doc_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "validation", "detail": detail}


# Strings that keep a file off the fast path: whitespace, block text or a NaN
# in a string sends the file to json whole.
META_STRINGS = {
    "spaced-string": "a b",
    "bracket-string": "a [ b",
    "block-string": "[[[0.5,0.5]]]",
    "nan-string": "NaN",
}
# A string and a key that decode to NaN from escapes, and their spelling in
# the file: the blocks are cut, but the encoded document holds a NaN that no
# block left, so json reads the file.
ESCAPED = {
    "escaped-nan-string": ("NaN", r'"\u004eaN"'),
    "escaped-nan-key": ({"NaN": 1}, r'"N\u0061N"'),
}


@pytest.mark.parametrize("shape", ["spelled-row", "meta-block", "repeated-key", *META_STRINGS, *ESCAPED])
def test_off_shape_files_are_read_by_json(doc_path, shape):
    # The fast path cuts canonical float blocks, wherever they stand, from a
    # file whose strings it leaves as they are; anything else is left to
    # json, with the same digest and bits. A block that the fast path reads
    # comes back as an array, one that json reads as nested lists.
    doc = {
        "q": 2,
        "n": 2,
        "p": {"weights": [1.0], "components": [[[0.5, 0.5], [0.25, 0.75]]]},
        "q_dist": {"weights": [1.0], "components": [[[1.0, 0.0], [0.25, 0.75]]]},
    }
    if shape == "meta-block":
        doc["meta"] = [[[0.25, 0.75]]]
    elif shape in META_STRINGS:
        doc["meta"] = META_STRINGS[shape]
    elif shape in ESCAPED:
        doc["meta"] = ESCAPED[shape][0]
    text = json.dumps(doc, separators=(",", ":"))
    if shape == "spelled-row":
        text = text.replace("[[[0.5,0.5]", "[[[0.50,0.5]")
    elif shape == "repeated-key":  # a first p, which the second replaces
        text = text.replace("{", '{"p":{"weights":[1.0],"components":[[[0.75,0.25]]]},', 1)
    elif shape in ESCAPED:  # json.dumps alone would write the string as "NaN"
        text = text.replace('"NaN"', ESCAPED[shape][1])
        assert ESCAPED[shape][1] in text
    data = text.encode()
    skeleton, blocks = cli._skeleton(data)
    read, digest = cli._read(data, str(doc_path))
    assert digest == canonical_digest(doc)
    arrays = [type(read[name]["components"]) is np.ndarray for name in ("p", "q_dist")]
    if shape == "spelled-row":
        assert b"[[[0.50,0.5],[0.25,0.75]]]" in skeleton and len(blocks) == 1
        assert arrays == [False, True]
    elif shape in META_STRINGS:
        assert (skeleton, blocks) == (data, []) and arrays == [False, False]
    elif shape in ESCAPED:
        assert len(blocks) == 2 and arrays == [False, False]
    else:  # a block under an extra key, or one that a repeated key replaces
        assert len(blocks) == 3 and arrays == [True, True]
        assert type(read.get("meta")) is (np.ndarray if shape == "meta-block" else type(None))
    doc_path.write_text(text)
    p, q, digest = cli._load_instance(str(doc_path))
    assert digest == canonical_digest(doc)
    ref_p, ref_q = model.parse_instance(json.loads(text))
    assert_same_bits(p, ref_p)
    assert_same_bits(q, ref_q)


def test_deep_nesting_reads_each_block_end_once(monkeypatch):
    # The scan reads the span from the first "[[[" to the "]]]" after it and
    # goes on past that "]]]": nesting 5,000 deep costs one read, and json
    # reads the text uncut.
    calls = []
    read_block = cli._read_block
    monkeypatch.setattr(cli, "_read_block", lambda span: calls.append(len(span)) or read_block(span))
    data = b"[" * 5000 + b"0.5" + b"]" * 5000
    assert cli._skeleton(data) == (data, [])
    assert len(calls) == 1


def split_read_block(span: memoryview):
    """The array of the float block ``span`` spells, or None, read by splitting its text.

    The reference for ``cli._read_block``: the span is split into row texts
    at its component and row separators, and the distinct texts are parsed
    in one ``json.loads`` call.
    """
    components = [c.split(b"],[") for c in span[3:-3].tobytes().split(b"]],[[")]
    k, n = len(components), len(components[0])
    if set(map(len, components)) != {n}:
        return None
    rows = list(itertools.chain.from_iterable(components))
    distinct = list(dict.fromkeys(rows))
    try:  # "[[],[row],...,[row],[]]": the distinct rows between two empty lists
        joined = b"],[".join([b"[[", *distinct, b"]]"]).decode()
        values = json.loads(joined)
    except (ValueError, RecursionError):
        return None
    # As many lists as the join made hold its brackets only: no row holds one.
    rows_values = values[1:-1]
    if (
        len(rows_values) != len(distinct)
        or set(map(type, rows_values)) != {list}
        or set(map(len, rows_values)) != {len(rows_values[0])}
        or set(map(type, itertools.chain.from_iterable(rows_values))) != {float}
        or json.dumps(values, separators=(",", ":")) != joined  # a float not spelled as it encodes
    ):
        return None
    q = len(rows_values[0])
    array = np.fromiter(itertools.chain.from_iterable(rows_values), float, len(distinct) * q).reshape(-1, q)
    if len(distinct) < len(rows):
        index = dict(zip(distinct, range(len(distinct))))
        array = array[np.fromiter(map(index.__getitem__, rows), np.intp, len(rows))]
    return array.reshape(k, n, q)


def split_rows(text: bytes) -> tuple[list[bytes], list[int], list[int]]:
    """The row texts of the block ``text``, and where each starts and ends in it."""
    rows, starts, ends, at = [], [], [], 3
    for component in text[3:-3].split(b"]],[["):
        for row in component.split(b"],["):
            rows.append(row)
            starts.append(at)
            ends.append(at + len(row))
            at += len(row) + 3
        at += 2
    return rows, starts, ends


# Floats as Python spells them, by the length of their text: rows built
# from one length per slot are as long as each other.
TOKENS = {
    3: ["0.5", "1.0", "0.0", "1.5", "0.1"],
    4: ["0.25", "0.75", "-0.0", "-1.0", "0.05"],
    5: ["0.125", "0.375", "-0.25", "1e-05", "1e+16"],
    7: ["0.03125", "0.15625", "0.09375", "-0.0625"],
    19: ["0.30000000000000004", "0.10000000000000003", "0.19999999999999996"],
}
# Other spellings of floats, and ints, by length: 0.50 reads as 0.5, and
# 0.00 as 0.0, which equals -0.0.
SPELLED = {1: ["1", "0"], 3: ["1e5", "1E0"], 4: ["0.50", "0.00", "5e-1", "1e16"], 5: ["0.250", "1.000"]}
# Row texts that hold brackets, or that put one next to a separator.
BRACKETED = ["[0.5]", "[", "]", "0.5],[0.5", "]],[[", "[]", "", "[[0.5]]"]


@st.composite
def block_texts(draw):
    """Compact text from ``[[[`` to ``]]]`` that spells a block of rows, or nearly one.

    Its rows come from a small pool of rows as long as each other, which
    share their first slots, so that they differ only past byte 8, 16 or
    24; rows repeat in runs or alternate. Some pools spell floats otherwise
    or hold ints, some blocks hold rows with brackets or of another length,
    and some are ragged, with middle components empty.
    """
    tokens = {**TOKENS, 1: []}
    if draw(st.integers(0, 3)) == 0:
        tokens = {size: TOKENS.get(size, []) + SPELLED.get(size, []) for size in tokens}
    slots = draw(st.lists(st.sampled_from(sorted(size for size in tokens if tokens[size])), min_size=1, max_size=6))
    shared = draw(st.integers(max(len(slots) - 2, 0), len(slots) - 1))
    prefix = [draw(st.sampled_from(tokens[size])) for size in slots[:shared]]
    tails = st.tuples(*[st.sampled_from(tokens[size]) for size in slots[shared:]])
    pool = [",".join(prefix + list(tail)) for tail in draw(st.lists(tails, min_size=2, max_size=4))]
    row = st.sampled_from(pool)
    if draw(st.integers(0, 3)) == 0:
        odd = st.lists(st.sampled_from(TOKENS[3]), max_size=3).map(",".join)
        row = st.one_of(row, st.sampled_from(BRACKETED), odd)
    runs = st.lists(st.tuples(row, st.integers(1, 4)), min_size=1, max_size=6)
    n = None if draw(st.integers(0, 3)) == 0 else draw(st.integers(1, 12))  # None: ragged
    components = []
    for c in range(draw(st.integers(1, 3))):
        rows = [text for text, count in draw(runs) for _ in range(count)]
        if n is not None:
            rows = (rows * n)[:n]
        elif 0 < c and draw(st.integers(0, 3)) == 0:
            rows = []
        components.append("[" + ",".join(f"[{text}]" for text in rows) + "]")
    if components[-1] == "[]":
        components[-1] = "[[0.5]]"
    return ("[" + ",".join(components) + "]").encode()


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(block_texts())
def test_read_block_matches_the_split_read(text):
    span = memoryview(text)
    want = split_read_block(span)
    got = cli._read_block(span)
    if want is None:
        assert got is None
    else:
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    # A row repeats the row before when their texts are equal; a row that
    # ends within 8 bytes of the span's end is not compared.
    rows, starts, ends = split_rows(text)
    repeats = [i > 0 and rows[i] == rows[i - 1] and ends[i] + 8 <= len(text) for i in range(len(rows))]
    byte = np.frombuffer(text, np.uint8)
    assert cli._repeats(byte, np.array(starts), np.array(ends)).tolist() == repeats


def test_read_of_the_exact_benchmark_layout_stays_small(tmp_path):
    # The exact-subcube benchmark's layout at n = 2000: two blocks of 14,000
    # and 12,000 rows, each of 7 bytes, in 38 and 33 runs. Reading each row
    # into a bytes object peaked at 1.46 MB; reading rows by offset, 1.19 MB.
    p, q = benchmark_workloads().windowed_subcube_pair(np.random.default_rng(1), n=2000, window=20, k1=7, k2=6)
    path = tmp_path / "exact.json"
    with open(path, "w") as fh:
        json.dump(mx.instance_document(p, q), fh, separators=(",", ":"))
    tracemalloc.start()
    try:
        read_p, read_q, _ = cli._load_instance(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref_p, ref_q = model.parse_instance(json.loads(path.read_text()))
    assert_same_bits(read_p, ref_p)
    assert_same_bits(read_q, ref_q)
    assert peak < 1_470_000
