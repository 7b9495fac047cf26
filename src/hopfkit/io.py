"""JSON interchange.  All payloads are deterministic: sorted keys, canonical
coefficient strings, no timestamps; files round-trip bit-exactly.

A structure file repeats a handful of coefficient values thousands of times,
so each reader and writer call keeps one memo of the values it has met and
parses or formats each distinct value once.  A writer hands out one shared
{"conductor", "coeffs"} object per distinct value, so hopf_to_json and
candidate_to_json return read-only DAGs, not trees: a payload must not be
mutated, and json.loads(json.dumps(payload)) is a tree to edit.  Each dumps
or dump_json call renders each distinct coefficient's JSON text once per
indent, and a list of shared objects whose texts it holds in one join.  The
memos live in one call only; nothing is cached at module level.

Every dense coefficient list a file holds (a product, the unit, each row of
the antipode and of a module action, a sidecar vector and a YD datum's g)
becomes a sparse vector on one path, `read.sparse` of `coefficient_reader`:
one loop over the list with the memo lookup inlined; an entry the memo
cannot answer (one met first, an int entry or a malformed one) goes through
`read` itself, so it is checked, and fails, exactly as on its own.  `read`
gives every zero as the canonical CycNumber.zero(N), and so does the memo,
so a zero is dropped by identity: `is_zero` runs once per distinct str
value, not once per entry.  The comult entries, read one by one, drop their
zeros the same way.

`load_json` and `hopf_from_json` run with the cyclic garbage collector
paused by `collector_paused` (turned back on only if it was on), and so
does the command line's read of a structure or datum file, from decoding to
freeing the tree.  Decoding a file builds some 100k dicts and lists, each
of which counts towards the collector's next pass, but neither the JSON tree
nor the structure built from it holds a reference cycle, so those passes
free nothing.

The readers take exact numbers only: dim, conductor and matrix shapes are
JSON integers, coefficient entries str or int (never a bool or a float,
which JSON would give as 1 or a binary fraction), labels a list of str,
and each sidecar claim that certify's report rows compare (in `certify` and
`invariants --expect`) of its exact JSON type in certify.CLAIM_TYPES;
anything else is a ValueError.

A file keeps the antipode and each module action as a dense square matrix;
in memory each is a list of sparse columns, converted at this boundary by
`columns_to_json` and `columns_from_json`.  Its comult entries [i, j, k, c]
may repeat a triple (i, j, k) or give it a zero coefficient; `hopf_from_json`
is the only code that knows this, and hands Delta(e_i) on as the sparse
tensor {(j, k): nonzero value} that `hopf_to_json` writes back in sorted
(j, k) order.  A product e_i e_j given twice is an input error.
"""

from __future__ import annotations

import gc
import json
from functools import wraps
from json.encoder import encode_basestring_ascii
from math import isqrt

from .certify import CLAIM_TYPES
from .cyclotomic import CycNumber, cyc_from_json, cyc_to_json
from .hopf import HopfAlgebraData
from .linalg import accumulate


def collector_paused(fn):
    """fn, run with the cyclic garbage collector off; it is turned back on afterwards,
    also when fn raises, only if it was on before.

    A JSON tree and the structure built from it hold no reference cycles, so
    the collector's passes over their many new dicts and lists free nothing.
    """
    @wraps(fn)
    def paused(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args)
        finally:
            if enabled:
                gc.enable()

    return paused


def _coefficient_writer(zero):
    """(write, dense) for the coefficients of one payload, each distinct value formatted once.

    write(a) is cyc_to_json(a), but equal values get one shared object, so a
    payload is a DAG rather than a tree and must not be mutated; dense(v, n)
    is the JSON list of the sparse vector v of length n, zero in the gaps.
    """
    memo = {}

    def write(a):
        key = (a.conductor, a.num, a.den)
        obj = memo.get(key)
        if obj is None:
            obj = memo[key] = cyc_to_json(a)
        return obj

    blank = write(zero)

    def dense(v, n):
        out = [blank] * n
        for i, c in v.items():
            out[i] = write(c)
        return out

    return write, dense


def exact_int(value, what):
    """value if it is a JSON integer, not a bool, a float or a string; else a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def _is_list_of(value, kind) -> bool:
    return type(value) is list and all(type(x) is kind for x in value)


def _cyc_from_json(obj, conductor):
    """cyc_from_json for a file: an integer conductor equal to the structure's, and a list
    of coefficients given as str or int, never as a bool or a float.

    The conductor is compared before anything is built, and one above 2 len(coeffs)^2
    is refused before it is factored: phi(N) >= sqrt(N / 2), so the count is wrong."""
    n = exact_int(obj["conductor"], "coefficient conductor")
    if n != conductor:
        raise ValueError(f"coefficient of conductor {n} in a structure of "
                         f"conductor {conductor}")
    coeffs = obj["coeffs"]
    if type(coeffs) is not list:
        raise ValueError(f"coefficients {coeffs!r} are not a list")
    for s in coeffs:
        if type(s) is bool or type(s) is float:
            raise ValueError(f"coefficient {s!r} is not exact: give a str or an int")
    if n > 2 * len(coeffs) ** 2:
        raise ValueError(f"conductor {n} is too large for {len(coeffs)} coefficients")
    return cyc_from_json(obj)


def coefficient_reader(conductor):
    """read, cyc_from_json for the coefficients of one structure of this conductor, as
    _cyc_from_json checks them; read.sparse(arr) is the dense JSON list arr as a sparse
    vector {index: nonzero value}, each entry read as read reads it.

    Each distinct (conductor, coeffs) value with str entries is parsed and
    checked once, and every occurrence of it shares that one immutable
    CycNumber; a coefficient equal to 1 is the canonical CycNumber.one(conductor),
    as cyc_from_json returns it, so the kernels' shortcuts for 1 apply to read
    tables, and one equal to 0 is the canonical CycNumber.zero(conductor), so
    a zero is told by identity: is_zero runs once per distinct value, not per entry.
    Only str entries are memoised: True == 1 == 1.0 and they hash alike, but a
    str equals only a str, so a key met again needs no second look at its
    entries, only at the types of conductor and coeffs.  Any other input, one
    that cannot be a key included, takes the same route unmemoised, so it
    fails with the same error.  Nothing here computes phi(conductor): a
    conductor is factored only once a coefficient's count has been checked
    against it.
    """
    memo = {}
    zero = None  # CycNumber.zero(conductor), once a zero has been read

    def read(obj):
        nonlocal zero
        try:
            n, coeffs = obj["conductor"], obj["coeffs"]
            key = (n, tuple(coeffs))
            c = memo.get(key)
        except (KeyError, TypeError):
            key = c = None
        if c is None or type(n) is not int or type(coeffs) is not list:
            c = _cyc_from_json(obj, conductor)
            if c.is_zero():
                c = zero = CycNumber.zero(conductor)
            if key is not None and all(type(s) is str for s in coeffs):
                memo[key] = c
        return c

    def sparse(arr):
        # read's memo lookup, inlined
        out = {}
        get = memo.get
        for i, obj in enumerate(arr):
            try:
                n, coeffs = obj["conductor"], obj["coeffs"]
                c = get((n, tuple(coeffs)))
            except (KeyError, TypeError):
                c = None
            if c is None or type(n) is not int or type(coeffs) is not list:
                c = read(obj)
            if c is not zero:
                out[i] = c
        return out

    read.sparse = sparse
    return read


def columns_to_json(cols: list, dense) -> dict:
    """A square map given as sparse columns, as a dense JSON matrix written by dense."""
    n = len(cols)
    rows = [{} for _ in range(n)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows[i][j] = c
    return {"rows": n, "cols": n, "entries": [dense(row, n) for row in rows]}


def columns_from_json(obj, read) -> tuple:
    """((rows, cols), sparse columns) of a dense JSON matrix.

    The entries must match the stated shape; they are read row by row, so the
    first bad coefficient named is the first in reading order.  Whether the
    shape is the one wanted is the caller's check.
    """
    rows, cols = exact_int(obj["rows"], "matrix rows"), exact_int(obj["cols"], "matrix cols")
    entries = obj["entries"]
    if len(entries) != rows or any(len(row) != cols for row in entries):
        raise ValueError(f"matrix entries do not match its shape {rows}x{cols}")
    columns = [{} for _ in range(cols)]
    for i, row in enumerate(entries):
        for j, c in read.sparse(row).items():
            columns[j][i] = c
    return (rows, cols), columns


def hopf_to_json(h: HopfAlgebraData) -> dict:
    write, dense = _coefficient_writer(h.zero())
    # zero products omitted
    mult = [[i, j, dense(d, h.dim)]
            for i in range(h.dim) for j, d in enumerate(h.mult[i]) if d]
    comult = [[i, j, k, write(c)]
              for i in range(h.dim) for (j, k), c in sorted(h.comult[i].items())]
    return {
        "dim": h.dim,
        "conductor": h.conductor,
        "labels": list(h.labels),
        "unit": dense(h.unit, h.dim),
        "counit": [write(c) for c in h.counit],
        "mult": mult,
        "comult": comult,
        "antipode": columns_to_json(h.antipode, dense),
    }


def _check_indices(dim, *indices):
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < dim:
            raise ValueError(f"basis index {i!r} out of range for dim {dim}")


@collector_paused
def hopf_from_json(obj: dict) -> HopfAlgebraData:
    """The structure a file describes: a product e_i e_j given twice is a ValueError, and
    the comult entries at one (i, j, k) are summed, a zero sum dropped."""
    dim = exact_int(obj["dim"], "dim")
    if dim < 1:
        # so at least the antipode's entries check the conductor against their count
        raise ValueError(f"dim {dim} is not positive")
    conductor = exact_int(obj["conductor"], "conductor")
    read = coefficient_reader(conductor)
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    given = set()
    for i, j, vec in obj["mult"]:
        _check_indices(dim, i, j)
        if (i, j) in given:
            raise ValueError(f"product e_{i} e_{j} is given twice")
        given.add((i, j))
        if len(vec) != dim:
            raise ValueError(f"product e_{i} e_{j} has {len(vec)} coefficients, not {dim}")
        mult[i][j] = read.sparse(vec)
    comult = [{} for _ in range(dim)]
    for i, j, k, c in obj["comult"]:
        _check_indices(dim, i, j, k)
        c, d = read(c), comult[i]
        if (j, k) in d:
            accumulate(d, (j, k), c)
        elif c is not CycNumber.zero(conductor):  # read gives every zero as this one object
            d[j, k] = c
    (rows, cols), antipode = columns_from_json(obj["antipode"], read)
    if (rows, cols) != (dim, dim):
        raise ValueError(f"antipode is {rows}x{cols}, not {dim}x{dim}")
    labels = obj["labels"]
    if not _is_list_of(labels, str):
        raise ValueError("labels are not a list of strings")
    if len(labels) != dim:
        raise ValueError(f"{len(labels)} labels for dim {dim}")
    for key in ("unit", "counit"):
        if len(obj[key]) != dim:
            raise ValueError(f"{key} has {len(obj[key])} coefficients, not {dim}")
    return HopfAlgebraData(
        dim=dim,
        conductor=conductor,
        labels=list(labels),
        mult=mult,
        unit=read.sparse(obj["unit"]),
        comult=comult,
        counit=[read(o) for o in obj["counit"]],
        antipode=antipode,
    )


def candidate_to_json(cd, h: HopfAlgebraData) -> dict:
    _, dense = _coefficient_writer(h.zero())

    def vec(e):
        return dense(e, h.dim)

    out = {
        "grouplikes": [vec(g) for g in cd.grouplikes],
        "grouplike_labels": list(cd.grouplike_labels),
        "expected": dict(cd.expected),
        "simples": [
            {"label": m.label, "dim": m.dim,
             "action": [columns_to_json(a, dense) for a in m.action]}
            for m in cd.simples
        ],
        "dual_blocks": [[vec(e) for e in blk] for blk in cd.dual_blocks],
    }
    if cd.skew_witness is not None:
        out["skew_witness"] = [vec(e) for e in cd.skew_witness]
    return out


def _element_from_json(arr, h: HopfAlgebraData, read) -> dict:
    vec = read.sparse(arr)
    if len(arr) != h.dim:
        raise ValueError(f"vector has {len(arr)} coefficients, not {h.dim}")
    return vec


def _module_from_json(obj, h: HopfAlgebraData, read):
    from .repsolver import RepModule

    dim = exact_int(obj["dim"], f"module {obj['label']!r}: dim")
    if dim < 1:
        raise ValueError(f"module {obj['label']!r}: dim {dim} is not positive")
    read_in = [columns_from_json(a, read) for a in obj["action"]]
    if len(read_in) != h.dim:
        raise ValueError(f"module {obj['label']!r}: {len(read_in)} action matrices, not {h.dim}")
    if any(shape != (dim, dim) for shape, _ in read_in):
        raise ValueError(f"module {obj['label']!r}: action matrices must be {dim}x{dim}")
    return RepModule(obj["label"], dim, [cols for _, cols in read_in])


def _claims_from_json(obj) -> dict:
    """A sidecar's expected claims, each one that certify.report_claims compares
    checked against its JSON type in certify.CLAIM_TYPES."""
    if type(obj) is not dict:
        raise ValueError(f"expected {obj!r} is not an object")
    for key, value in obj.items():
        kind = CLAIM_TYPES.get(key)
        if kind is bool and type(value) is not bool:
            raise ValueError(f"expected {key} {value!r} is not a boolean")
        if kind == list[int] and not _is_list_of(value, int):
            raise ValueError(f"expected {key} {value!r} is not a list of integers")
        if kind is int or (kind == int | None and value is not None):
            exact_int(value, f"expected {key}")
    return dict(obj)


def candidate_from_json(obj: dict, h: HopfAlgebraData):
    from .catalog import CandidateData

    read = coefficient_reader(h.conductor)
    cd = CandidateData()
    cd.grouplikes = [_element_from_json(v, h, read) for v in obj["grouplikes"]]
    labels = obj["grouplike_labels"]
    if not _is_list_of(labels, str):
        raise ValueError(f"grouplike_labels {labels!r} is not a list of strings")
    cd.grouplike_labels = list(labels)
    cd.expected = _claims_from_json(obj["expected"])
    cd.simples = [_module_from_json(m, h, read) for m in obj["simples"]]
    cd.dual_blocks = [[_element_from_json(v, h, read) for v in blk]
                      for blk in obj["dual_blocks"]]
    for blk in cd.dual_blocks:
        if not blk or isqrt(len(blk)) ** 2 != len(blk):
            raise ValueError(f"dual block has {len(blk)} vectors, not a positive square")
    if "skew_witness" in obj:
        witness = obj["skew_witness"]
        if type(witness) is not list or len(witness) != 3:
            raise ValueError("skew_witness is not a list of 3 vectors (g, h, x)")
        cd.skew_witness = tuple(_element_from_json(v, h, read) for v in witness)
    return cd


def _encoder():
    """encode(o, ind): the text of json.dumps(o, sort_keys=True, indent=1), indented by ind.

    json.dumps never uses its C encoder when indent is set; this builds the
    same layout in one recursive pass instead.  A list, tuple or dict becomes
    open + inner + ("," + inner).join(members) + ind + close, where ind is
    the newline and indent of its own line and inner is ind + " "; empty ones
    are [] and {}.  Dict items are sorted and strings go through the C
    escaper json.encoder.encode_basestring_ascii.  Anything but str, int,
    bool, None, list, tuple and a dict with str keys raises TypeError.

    A coefficient {"conductor": int, "coeffs": [str, ...]} is rendered once
    per distinct content and indent, and its text reused; any other shape,
    True as conductor included, takes the generic path.  The text of each
    coefficient-shaped dict object is also kept under its identity and
    indent, so a payload that shares one object per distinct value, as the
    writers' payloads do, renders a list whose members all have such a text
    with one join over their memoised texts.  Both memos last as long as this
    encoder; the recorded objects are held, so no identity is reused.

    pieces(o, ind, depth) is the same text in pieces, split before each
    member of a list or dict down to depth levels, so that a file is written
    without holding its whole text.
    """
    string = encode_basestring_ascii
    coefficients = {}  # (conductor, coeffs, ind) -> text, for equal copies
    shared = {}  # ind -> {id(coefficient dict): its text at ind}
    held = []  # the dicts keyed in shared

    def encode(o, ind):
        if isinstance(o, str):
            return string(o)
        inner = ind + " "
        if isinstance(o, dict):
            if not o:
                return "{}"
            texts = shared.get(ind)
            if texts is not None:
                text = texts.get(id(o))
                if text is not None:
                    return text
            if len(o) == 2 and type(o) is dict:
                conductor, coeffs = o.get("conductor"), o.get("coeffs")
                if type(conductor) is int and type(coeffs) is list:
                    key = (conductor, tuple(coeffs), ind)
                    try:
                        text = coefficients.get(key)
                    except TypeError:  # an unhashable entry: the generic path decides
                        key = text = None
                    if text is None:
                        text = "{" + inner + '"coeffs": ' + encode(coeffs, inner) + "," + inner \
                            + '"conductor": ' + int.__repr__(conductor) + ind + "}"
                        # an equal key met later holds equal strs, hence the same text
                        if key is not None and all(type(c) is str for c in coeffs):
                            coefficients[key] = text
                    if texts is None:
                        texts = shared[ind] = {}
                    texts[id(o)] = text
                    held.append(o)
                    return text
            # string(k) raises TypeError for a key that is not a str
            return "{" + inner + ("," + inner).join(
                [string(k) + ": " + encode(v, inner) for k, v in sorted(o.items())]) + ind + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            texts = shared.get(inner)
            if texts is not None and id(o[0]) in texts:
                try:
                    return "[" + inner + ("," + inner).join(map(texts.__getitem__, map(id, o))) \
                        + ind + "]"
                except KeyError:  # a member without a memoised text
                    pass
            return "[" + inner + ("," + inner).join([encode(v, inner) for v in o]) + ind + "]"
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    def pieces(o, ind, depth):
        if not depth or not o or not isinstance(o, (dict, list, tuple)):
            yield encode(o, ind)
            return
        inner = ind + " "
        if isinstance(o, dict):
            members, close = [(string(k) + ": ", v) for k, v in sorted(o.items())], "}"
            sep = "{" + inner
        else:
            members, close = [("", v) for v in o], "]"
            sep = "[" + inner
        for key, v in members:
            yield sep + key
            yield from pieces(v, inner, depth - 1)
            sep = "," + inner
        yield ind + close

    return encode, pieces


def dumps(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=1), byte for byte (see _encoder)."""
    encode, _ = _encoder()
    return encode(obj, "\n")


def dump_json(obj, path):
    """dumps(obj) and a final newline, written to path in pieces two levels deep."""
    _, pieces = _encoder()
    with open(path, "w") as fh:
        fh.writelines(pieces(obj, "\n", 2))
        fh.write("\n")


@collector_paused
def load_json(path):
    """A JSON file whose top level is an object; anything else, nesting too deep
    to parse included, is a ValueError."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level is a JSON {type(obj).__name__}, not an object")
    return obj
