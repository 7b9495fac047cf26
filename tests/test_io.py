"""The JSON coefficient codec parses and formats each distinct value once per call, and
every payload is written in the layout of json.dumps(sort_keys=True, indent=1)."""

import copy
import json
import os
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build, dense, same_tensors
from hopfkit import cyclotomic
from hopfkit import io as hio
from hopfkit.catalog import build_family
from hopfkit.cli import main
from hopfkit.cyclotomic import CycNumber, cyc_from_json, cyc_to_json, euler_phi
from hopfkit.hopf import dual
from hopfkit.ydnichols import bosonize, named_datum

# spellings Fraction accepts, and JSON numbers and booleans
SPELLINGS = ["2/4", " 1/3 ", "1_0/3", "-0/5", 0.5, True]


def test_reader_gives_the_values_of_one_at_a_time_parsing():
    # each spelling twice, and 1, 1.0, true, "1" side by side: equal keys must mean equal values
    objs = [{"conductor": 1, "coeffs": [s]} for s in SPELLINGS + [1, 1.0, "1", "1/1"]] * 2
    read = hio.coefficient_reader(1)
    got = [read(o) for o in objs]
    assert got == [cyc_from_json(o) for o in objs]
    assert [c.rational_value() for c in got[:6]] == [
        Fraction(1, 2), Fraction(1, 3), Fraction(10, 3), 0, Fraction(1, 2), 1]
    assert got[0] is got[10]  # one CycNumber per distinct value


def test_matrix_reader_gives_the_values_of_one_at_a_time_parsing():
    entries = [[{"conductor": 3, "coeffs": [s, t]} for t in SPELLINGS] for s in SPELLINGS]
    shape, cols = hio.columns_from_json({"rows": 6, "cols": 6, "entries": entries},
                                        hio.coefficient_reader(3))
    assert shape == (6, 6)
    assert dense(cols, 3).entries == [[cyc_from_json(o) for o in row] for row in entries]


# -- dense JSON matrices <-> sparse columns, for the antipode and module actions


@st.composite
def json_matrices(draw, conductor, n):
    """A dense n x n JSON matrix in the written form, with zero entries and some all-zero columns."""
    entry = st.one_of(st.just(None), st.lists(st.integers(-2, 2), min_size=euler_phi(conductor),
                                              max_size=euler_phi(conductor)))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    grid = [[None if j in zero_cols else draw(entry) for j in range(n)] for _ in range(n)]
    return {"rows": n, "cols": n, "entries": [
        [cyc_to_json(CycNumber(conductor, c or [0] * euler_phi(conductor))) for c in row]
        for row in grid]}


def _bare_structure(conductor, dim, antipode):
    """A structure payload that the reader accepts (it verifies nothing): dim, antipode and zeros."""
    zero = cyc_to_json(CycNumber.zero(conductor))
    return {"dim": dim, "conductor": conductor, "labels": [f"e{i}" for i in range(dim)],
            "unit": [zero] * dim, "counit": [zero] * dim, "mult": [], "comult": [],
            "antipode": antipode}


def _sidecar(simples):
    return {"grouplikes": [], "grouplike_labels": [], "expected": {}, "simples": simples,
            "dual_blocks": []}


@given(st.sampled_from([1, 4, 5]), st.integers(1, 4), st.integers(1, 4), st.data())
def test_dense_json_matrices_round_trip_through_columns(conductor, dim, module_dim, data):
    structure = _bare_structure(conductor, dim, data.draw(json_matrices(conductor, dim)))
    h = hio.hopf_from_json(structure)
    assert hio.dumps(hio.hopf_to_json(h)) == hio.dumps(structure)
    action = [data.draw(json_matrices(conductor, module_dim)) for _ in range(dim)]
    sidecar = _sidecar([{"label": "m", "dim": module_dim, "action": action}])
    cd = hio.candidate_from_json(sidecar, h)
    assert hio.dumps(hio.candidate_to_json(cd, h)) == hio.dumps(sidecar)


def _zeros(conductor, rows, cols):
    zero = cyc_to_json(CycNumber.zero(conductor))
    return {"rows": rows, "cols": cols, "entries": [[zero] * cols for _ in range(rows)]}


def _ragged(conductor):
    m = _zeros(conductor, 2, 2)
    m["entries"][1].pop()
    return m


@pytest.mark.parametrize("antipode, message", [
    (_ragged(1), "matrix entries do not match its shape 2x2"),
    (dict(_zeros(1, 2, 2), rows=3), "matrix entries do not match its shape 3x2"),
    (_zeros(1, 2, 3), "antipode is 2x3, not 2x2"),
    (_zeros(1, 3, 3), "antipode is 3x3, not 2x2"),
], ids=["ragged", "rows-miscounted", "not-square", "square-wrong-size"])
def test_malformed_antipode_keeps_its_error(antipode, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        hio.hopf_from_json(_bare_structure(1, 2, antipode))


@pytest.mark.parametrize("action, message", [
    ([_zeros(1, 2, 2), _ragged(1)], "matrix entries do not match its shape 2x2"),
    ([_zeros(1, 2, 2)], "module 'm': 1 action matrices, not 2"),
    ([_zeros(1, 2, 2), _zeros(1, 2, 3)], "module 'm': action matrices must be 2x2"),
    ([_zeros(1, 3, 3), _zeros(1, 3, 3)], "module 'm': action matrices must be 2x2"),
    # two faults at once: the entries first, then the count, then the shape
    ([_ragged(1)], "matrix entries do not match its shape 2x2"),
    ([_zeros(1, 3, 3)], "module 'm': 1 action matrices, not 2"),
    ([_zeros(1, 3, 3)] * 3, "module 'm': 3 action matrices, not 2"),
], ids=["ragged", "too-few", "not-square", "square-wrong-size", "ragged-and-too-few",
        "too-few-and-wrong-size", "too-many-and-wrong-size"])
def test_malformed_module_action_keeps_its_error_and_check_order(action, message):
    h = hio.hopf_from_json(_bare_structure(1, 2, _zeros(1, 2, 2)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        hio.candidate_from_json(_sidecar([{"label": "m", "dim": 2, "action": action}]), h)


@pytest.mark.parametrize("obj, error", [
    ({"conductor": 1, "coeffs": [[1]]}, TypeError),
    ([1], TypeError),
    ({"coeffs": ["1/1"]}, KeyError),
    ({"conductor": 1, "coeffs": ["1/0"]}, ValueError),
    ({"conductor": 1, "coeffs": [float("inf")]}, ValueError),
    ({"conductor": 2, "coeffs": ["1/1"]}, ValueError),
], ids=["unhashable-entry", "not-an-object", "no-conductor", "zero-denominator", "infinite",
        "other-conductor"])
def test_reader_keeps_the_errors_of_one_at_a_time_parsing(obj, error):
    read = hio.coefficient_reader(1)
    for _ in range(2):  # a failed parse is not remembered
        with pytest.raises(error):
            read(obj)


def _coefficient_objects(obj):
    if isinstance(obj, dict) and "coeffs" in obj:
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _coefficient_objects(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _coefficient_objects(v)


def test_codec_works_once_per_distinct_value(monkeypatch):
    h = bosonize(named_datum("a4p-chi2", 3))
    payload = json.loads(json.dumps(hio.hopf_to_json(h)))
    objs = list(_coefficient_objects(payload))
    distinct = {json.dumps(o, sort_keys=True) for o in objs}
    assert len(objs) > 1000 * len(distinct)

    built, formatted = [], []
    init, to_json = CycNumber.__init__, hio.cyc_to_json

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_to_json(a):
        formatted.append(a)
        return to_json(a)

    monkeypatch.setattr(CycNumber, "__init__", counting_init)
    monkeypatch.setattr(hio, "cyc_to_json", counting_to_json)
    h2 = hio.hopf_from_json(payload)
    assert len(built) <= len(distinct)
    assert hio.hopf_to_json(h2) == payload
    assert len(formatted) <= len(distinct)
    assert same_tensors(h2, h)


def _scaled(obj, factor):
    """obj with every coefficient multiplied by factor."""
    if isinstance(obj, dict) and "coeffs" in obj:
        return dict(obj, coeffs=[str(Fraction(s) * factor) for s in obj["coeffs"]])
    if isinstance(obj, dict):
        return {k: _scaled(v, factor) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_scaled(v, factor) for v in obj]
    return obj


def _module_state():
    """Sizes of the containers and lru caches held at module level by io and cyclotomic."""
    out = {}
    for mod in (hio, cyclotomic):
        for name, v in vars(mod).items():
            if isinstance(v, (dict, list, set)):
                out[mod.__name__, name] = len(v)
            elif hasattr(v, "cache_info"):
                out[mod.__name__, name] = v.cache_info().currsize
    return out


def test_codec_keeps_no_memo_at_module_level():
    h, cd = build("taft", n=5)
    structure, sidecar = hio.hopf_to_json(h), hio.candidate_to_json(cd, h)

    def round_trip(structure, sidecar):
        h = hio.hopf_from_json(structure)
        hio.hopf_to_json(h)
        hio.candidate_to_json(hio.candidate_from_json(sidecar, h), h)

    round_trip(structure, sidecar)
    before = _module_state()
    # the same conductor and new coefficient values: a module-level memo would grow
    round_trip(_scaled(structure, Fraction(7, 11)), _scaled(sidecar, Fraction(-5, 13)))
    assert _module_state() == before


# text with non-ASCII, quotes, backslashes, control and line-separator characters
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600 a{}[],:')
                | st.characters())
_LEAVES = (st.none() | st.booleans() | st.integers() | _TEXT
           | st.integers(min_value=-2 ** 200, max_value=2 ** 200))


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, kids, max_size=4)),
        max_leaves=30)


# coefficient-shaped dicts, the ones the encoder memoises and near misses that it must not:
# True or False as conductor, coeffs empty, a tuple, holding ints, bools or (unhashable)
# lists, or extra keys
_COEFF_TEXT = st.sampled_from(["1/1", "0/1", "-1/2", "\u00e9", "1"])
_COEFF_ODD = st.sampled_from([0, 1, True, False]) | st.lists(_COEFF_TEXT, max_size=1)
_COEFFICIENTS = st.fixed_dictionaries({
    "conductor": st.sampled_from([1, 3, -4, 2 ** 70]) | st.booleans(),
    "coeffs": (st.lists(_COEFF_TEXT, max_size=3) | st.just([])
               | st.lists(_COEFF_TEXT, max_size=3).map(tuple)
               | st.lists(_COEFF_TEXT | _COEFF_ODD, max_size=3)),
}, optional={"label": _COEFF_TEXT})
# a few coefficients, each repeated as equal copies at several depths of one tree
_COEFFICIENT_TREES = st.lists(_COEFFICIENTS, min_size=1, max_size=4).flatmap(
    lambda pool: _trees(_LEAVES | st.sampled_from(pool).map(copy.deepcopy)))


@given(_trees(_LEAVES) | _COEFFICIENT_TREES)
def test_dumps_is_the_text_of_json_dumps(tree):
    text = json.dumps(tree, sort_keys=True, indent=1)
    assert hio.dumps(tree) == text
    with tempfile.TemporaryDirectory() as d:  # dump_json writes the same text in pieces
        path = os.path.join(d, "tree.json")
        hio.dump_json(tree, path)
        with open(path) as fh:
            assert fh.read() == text + "\n"


@pytest.mark.parametrize("obj", [
    {1: "a"}, {"a": 1, 2: "b"}, [{"a": (1, 1.5)}], {"a": {3}}, b"bytes", object(),
    [{"conductor": 3, "coeffs": ["1/1"]}, {"conductor": 3, "coeffs": [1.0]}],
    [{"conductor": 3, "coeffs": ["1/1"]}, {"conductor": 3, "coeffs": [{3}]}],
], ids=["int-key", "mixed-keys", "float", "set", "bytes", "object", "float-after-coefficient",
        "set-after-coefficient"])
def test_dumps_refuses_what_is_not_a_str_keyed_json_tree(obj):
    with pytest.raises(TypeError):
        hio.dumps(obj)
    with tempfile.TemporaryDirectory() as d, pytest.raises(TypeError):
        hio.dump_json(obj, os.path.join(d, "tree.json"))


def test_dumps_formats_each_coefficient_once_per_indent(monkeypatch):
    escaped = []

    def counting_escape(s):
        escaped.append(s)
        return encode_basestring_ascii(s)

    monkeypatch.setattr(hio, "encode_basestring_ascii", counting_escape)
    coefficient = {"conductor": 4, "coeffs": ["1/2", "-3/5"]}
    # 1000 equal copies at depth 2 and 1000 at depth 3
    payload = {"a": [dict(coefficient) for _ in range(1000)],
               "b": [[dict(coefficient, coeffs=list(coefficient["coeffs"]))] * 2] * 500}
    assert hio.dumps(payload) == json.dumps(payload, sort_keys=True, indent=1)
    # once per indent, not once per copy
    assert sum(s in coefficient["coeffs"] for s in escaped) <= 2 * 2


def test_written_files_are_the_json_dump_text(tmp_path, monkeypatch):
    # every file the file-pipeline benchmark writes
    monkeypatch.chdir(tmp_path)
    expected = {}
    for stem, family, key, value in (("taft5", "taft", "n", 5), ("a4p3", "a4p", "p", 3)):
        h, cd = build_family(family, {key: value})
        expected[f"{stem}.json"] = hio.hopf_to_json(h)
        expected[f"{stem}.sidecar.json"] = hio.candidate_to_json(cd, h)
        expected[f"{stem}-dual.json"] = hio.hopf_to_json(dual(h))
        assert main(["build", family, f"--{key}", str(value), "--out", f"{stem}.json"]) == 0
        assert main(["dual", f"{stem}.json", "--out", f"{stem}-dual.json"]) == 0
    for datum in ("fun-dic", "a4p-chi2", "a4p-chi3"):
        expected[f"{datum}-boson.json"] = hio.hopf_to_json(bosonize(named_datum(datum, 3)))
        assert main(["bosonize", "--datum", datum, "--p", "3", "--out", f"{datum}-boson.json"]) == 0
    for name, payload in expected.items():
        with open(tmp_path / f"ref-{name}", "w") as fh:  # the reference route
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref-{name}").read_bytes(), name
