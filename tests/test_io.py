"""The JSON coefficient codec parses and formats each distinct value once per call, and
every payload is written in the layout of json.dumps(sort_keys=True, indent=1)."""

import copy
import gc
import json
import os
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build, dense, same_tensors
from hopfkit import cli, cyclotomic
from hopfkit import io as hio
from hopfkit.catalog import build_family
from hopfkit.cli import main
from hopfkit.cyclotomic import CycNumber, cyc_from_json, cyc_to_json, euler_phi
from hopfkit.hopf import dual
from hopfkit.ydnichols import bosonize, named_datum

# spellings Fraction accepts, and JSON integers
SPELLINGS = ["2/4", " 1/3 ", "1_0/3", "-0/5", "0.5", 1]


def test_reader_gives_the_values_of_one_at_a_time_parsing():
    # each spelling twice, and 1, "1", "1/1", "1.0" side by side: equal keys must mean equal values
    objs = [{"conductor": 1, "coeffs": [s]} for s in SPELLINGS + [1, "1", "1/1", "1.0"]] * 2
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


@pytest.mark.parametrize("exact, inexact", [
    ({"conductor": 3, "coeffs": [1, 0]}, {"conductor": 3, "coeffs": [True, False]}),
    ({"conductor": 3, "coeffs": [1, 0]}, {"conductor": 3, "coeffs": [1.0, 0]}),
    ({"conductor": 3, "coeffs": ["1/10", "0"]}, {"conductor": 3, "coeffs": [0.1, "0"]}),
    ({"conductor": 3, "coeffs": ["1", "0"]}, {"conductor": 3, "coeffs": "10"}),
    ({"conductor": 3, "coeffs": ["1/1", "0/1"]}, {"conductor": 3.0, "coeffs": ["1/1", "0/1"]}),
    ({"conductor": 1, "coeffs": ["1/1"]}, {"conductor": True, "coeffs": ["1/1"]}),
], ids=["bools", "float-entry", "float-tenth", "str-coeffs", "float-conductor",
        "bool-conductor"])
@pytest.mark.parametrize("exact_first", [True, False], ids=["exact-first", "inexact-first"])
def test_reader_refuses_inexact_numbers_whatever_it_read_before(exact, inexact, exact_first):
    # but for float-tenth, the inexact form is equal to the exact one as a memo key, and
    # the memo must not let it through
    read = hio.coefficient_reader(exact["conductor"])
    for obj in ([exact, inexact] if exact_first else [inexact, exact]) * 2:
        if obj is exact:
            assert read(obj) == cyc_from_json(exact)
        else:
            with pytest.raises(ValueError, match="not an integer|not exact|not a list"):
                read(obj)


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


# -- the dense-to-sparse reader against one value at a time

_ZERO_SPELLINGS = ["0/1", "0", 0, "-0/5", " 0 "]
_NONZERO_SPELLINGS = ["1/1", "-2/3", 1, " 3 ", "1_0/7"]


def _entry(coeffs):
    return {"conductor": 3, "coeffs": coeffs}


# conductor 3 (phi = 2): all-zero entries in every spelling, and entries mixing zero
# spellings with nonzero ones
_DENSE_ENTRY = (st.lists(st.sampled_from(_ZERO_SPELLINGS), min_size=2, max_size=2)
                | st.lists(st.sampled_from(_ZERO_SPELLINGS + _NONZERO_SPELLINGS),
                           min_size=2, max_size=2)).map(_entry)

# entries read refuses, several of them equal as memo keys to exact entries met before
_BAD_ENTRIES = [
    _entry(["1/0", "0"]), _entry([0.0, "0"]), _entry([True, False]), _entry(["0"]),
    _entry([[1], "0"]), _entry("00"), _entry(0), {"conductor": 3.0, "coeffs": ["0", "0"]},
    {"conductor": 4, "coeffs": ["0", "0"]}, {"coeffs": ["0", "0"]}, {"conductor": 3},
    [1], "0", None,
]


def _one_at_a_time(read, arr):
    return {i: c for i, c in enumerate(map(read, arr)) if not c.is_zero()}


@given(st.lists(st.lists(_DENSE_ENTRY, max_size=6), min_size=1, max_size=4))
def test_sparse_reader_gives_the_values_of_one_at_a_time_reading(rows):
    read, oracle = hio.coefficient_reader(3), hio.coefficient_reader(3)
    for _ in range(2):  # cold, then with every value remembered
        assert [read.sparse(arr) for arr in rows] == [_one_at_a_time(oracle, arr)
                                                      for arr in rows]
    for arr in rows:  # every zero left out is the one canonical zero
        assert all(read(o) is CycNumber.zero(3) for i, o in enumerate(arr)
                   if i not in read.sparse(arr))


@given(st.integers(1, 4), st.data())
def test_matrix_reader_gives_the_columns_of_one_at_a_time_reading(n, data):
    entries = data.draw(st.lists(st.lists(_DENSE_ENTRY, min_size=n, max_size=n),
                                 min_size=n, max_size=n))
    shape, cols = hio.columns_from_json({"rows": n, "cols": n, "entries": entries},
                                        hio.coefficient_reader(3))
    oracle = hio.coefficient_reader(3)
    rows = [_one_at_a_time(oracle, row) for row in entries]
    assert shape == (n, n)
    assert cols == [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(n)]


def _error(f, *args):
    with pytest.raises(Exception) as info:
        f(*args)
    return info.type, str(info.value)


@given(st.lists(_DENSE_ENTRY, max_size=6), st.sampled_from(_BAD_ENTRIES), st.data())
def test_sparse_reader_keeps_the_error_of_one_at_a_time_reading(arr, bad, data):
    at = data.draw(st.integers(0, len(arr)))
    read = hio.coefficient_reader(3)
    read.sparse(arr)  # each good entry remembered, so a bad one may hit the memo
    assert _error(read.sparse, arr[:at] + [bad] + arr[at:]) == \
        _error(hio.coefficient_reader(3), bad)


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

    built, formatted, zero_tests = [], [], []
    init, to_json, is_zero = CycNumber.__init__, hio.cyc_to_json, CycNumber.is_zero

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_to_json(a):
        formatted.append(a)
        return to_json(a)

    def counting_is_zero(self):
        zero_tests.append(gc.isenabled())
        return is_zero(self)

    monkeypatch.setattr(CycNumber, "__init__", counting_init)
    monkeypatch.setattr(hio, "cyc_to_json", counting_to_json)
    monkeypatch.setattr(CycNumber, "is_zero", counting_is_zero)
    h2 = hio.hopf_from_json(payload)
    monkeypatch.setattr(CycNumber, "is_zero", is_zero)
    assert len(built) <= len(distinct)
    # a zero is told by identity, so the values are tested once each, with the collector off
    assert 0 < len(zero_tests) <= len(distinct)
    assert not any(zero_tests)
    assert hio.hopf_to_json(h2) == payload
    assert len(formatted) <= len(distinct)
    assert same_tensors(h2, h)


def _zero_denominator(payload):
    payload = copy.deepcopy(payload)
    payload["unit"][0]["coeffs"][0] = "1/0"
    return payload


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["enabled", "disabled"])
def test_readers_leave_the_collector_as_the_caller_had_it(tmp_path, caller_enabled):
    h, _ = build("taft", n=3)
    payload = json.loads(json.dumps(hio.hopf_to_json(h)))
    good, deep = tmp_path / "h.json", tmp_path / "deep.json"
    good.write_text(json.dumps(payload))
    deep.write_text("[" * 100000 + "]" * 100000)
    calls = [(hio.load_json, good, None), (hio.hopf_from_json, payload, None),
             (hio.load_json, deep, "nested too deeply"),
             (hio.hopf_from_json, _zero_denominator(payload), "zero denominator")]
    try:
        if not caller_enabled:
            gc.disable()
        for f, arg, error in calls:
            if error is None:
                f(arg)
            else:
                with pytest.raises(ValueError, match=error):
                    f(arg)
            assert gc.isenabled() is caller_enabled, f.__name__
        for path in (good, deep):  # the command line's read, decoding to freeing the tree
            cli._load_hopf(path)
            assert gc.isenabled() is caller_enabled
    finally:
        gc.enable()


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


# coefficients as the writers give them, each one object shared by all its occurrences
_WRITTEN = st.fixed_dictionaries({"conductor": st.sampled_from([1, 3, -4, 2 ** 70]),
                                  "coeffs": st.lists(_COEFF_TEXT, max_size=3)})


def _dags(written, odd):
    """Trees holding the written objects and the odd ones at several depths, next to equal
    copies, and in tables of rows like a payload's: rows of written objects only, and rows
    that mix all of them with other values."""
    pool = written + odd
    rows = (st.lists(st.sampled_from(written), min_size=1, max_size=5)
            | st.lists(st.sampled_from(pool) | _LEAVES, min_size=1, max_size=5))
    return _trees(_LEAVES | st.sampled_from(pool) | st.sampled_from(pool).map(copy.deepcopy)
                  | st.lists(rows, min_size=1, max_size=4))


_COEFFICIENT_DAGS = st.tuples(st.lists(_WRITTEN, min_size=1, max_size=3),
                              st.lists(_COEFFICIENTS, max_size=2)).flatmap(lambda p: _dags(*p))


@given(_COEFFICIENT_DAGS)
def test_dumps_of_shared_coefficient_objects_is_the_text_of_json_dumps(dag):
    text = json.dumps(dag, sort_keys=True, indent=1)
    assert hio.dumps(dag) == text
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "dag.json")
        hio.dump_json(dag, path)
        with open(path) as fh:
            assert fh.read() == text + "\n"


def test_writers_share_one_object_per_coefficient_value():
    h, cd = build("taft", n=5)
    for payload in (hio.hopf_to_json(bosonize(named_datum("a4p-chi2", 3))),
                    hio.candidate_to_json(cd, h)):
        objs = list(_coefficient_objects(payload))
        distinct = {json.dumps(o, sort_keys=True) for o in objs}
        assert len({id(o) for o in objs}) <= len(distinct) < len(objs)


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


# -- comult entries as a file may give them: repeated (i, j, k) and zero coefficients


def _split(payload, conductor):
    """payload with each comult entry c given as c/2 + c/2, the second halves last and reversed."""
    read = hio.coefficient_reader(conductor)
    half = CycNumber.from_rational(conductor, Fraction(1, 2))
    halves = [[i, j, k, cyc_to_json(read(c) * half)] for i, j, k, c in payload["comult"]]
    return dict(payload, comult=halves + halves[::-1])


def _padded(payload, conductor):
    """payload with a zero comult entry after each entry and at one triple it does not give."""
    zero = cyc_to_json(CycNumber.zero(conductor))
    last = payload["dim"] - 1
    padded = [e for entry in payload["comult"] for e in (entry, entry[:3] + [zero])]
    return dict(payload, comult=padded + [[last, last, last, zero]] * 3)


@pytest.mark.parametrize("rewrite", [_split, _padded], ids=["split", "padded"])
@pytest.mark.parametrize("name, params", [("taft", {"n": 3}), ("h8p", {"p": 3})])
def test_repeated_and_zero_comult_entries_read_as_the_clean_file(tmp_path, rewrite, name, params):
    h, _ = build(name, **params)
    clean = hio.hopf_to_json(h)
    rewritten = rewrite(clean, h.conductor)
    assert len(rewritten["comult"]) > len(clean["comult"])
    assert hio.hopf_from_json(rewritten).comult == hio.hopf_from_json(clean).comult == h.comult
    written = []
    for stem, payload in (("clean", clean), ("rewritten", rewritten)):
        (tmp_path / f"{stem}.json").write_text(json.dumps(payload))
        assert main(["dual", str(tmp_path / f"{stem}.json"),
                     "--out", str(tmp_path / f"{stem}-dual.json")]) == 0
        written.append((tmp_path / f"{stem}-dual.json").read_bytes())
    assert written[0] == written[1]
