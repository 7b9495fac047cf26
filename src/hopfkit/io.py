"""JSON interchange.  All payloads are deterministic: sorted keys, canonical
coefficient strings, no timestamps; files round-trip bit-exactly.

A structure file repeats a handful of coefficient values thousands of times,
so each reader and writer call keeps one memo of the values it has met and
parses or formats each distinct value once, and each dumps or dump_json call
renders each distinct coefficient's JSON text once per indent.  The memo
lives in that call only; nothing is cached at module level.

A file keeps the antipode and each module action as a dense square matrix;
in memory each is a list of sparse columns, converted at this boundary by
`columns_to_json` and `columns_from_json`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from math import isqrt

from .cyclotomic import cyc_from_json, cyc_to_json
from .hopf import Element, HopfAlgebraData


def _coefficient_writer():
    """cyc_to_json for the coefficients of one payload, each distinct value formatted once.

    Every call returns a fresh dict and list, so the payload stays a tree.
    """
    memo = {}

    def write(a):
        key = (a.conductor, a.num, a.den)
        coeffs = memo.get(key)
        if coeffs is None:
            coeffs = memo[key] = cyc_to_json(a)["coeffs"]
        return {"conductor": a.conductor, "coeffs": list(coeffs)}

    return write


def _cyc_from_json(obj, conductor):
    c = cyc_from_json(obj)
    if c.conductor != conductor:
        raise ValueError(f"coefficient of conductor {c.conductor} in a structure of "
                         f"conductor {conductor}")
    return c


def coefficient_reader(conductor):
    """cyc_from_json for the coefficients of one structure of this conductor.

    Each distinct (conductor, coeffs) value is parsed and checked once, and
    every occurrence of it shares that one immutable CycNumber.  Input that
    cannot be a key (not an object, unhashable entries) takes the same
    route unmemoised, so it fails with the same error.
    """
    memo = {}

    def read(obj):
        try:
            key = (obj["conductor"], tuple(obj["coeffs"]))
            c = memo.get(key)
        except (KeyError, TypeError):
            return _cyc_from_json(obj, conductor)
        if c is None:
            c = memo[key] = _cyc_from_json(obj, conductor)
        return c

    return read


def columns_to_json(cols: list, zero, write) -> dict:
    """A square map given as sparse columns, as a dense JSON matrix; zero fills the gaps."""
    n = len(cols)
    return {"rows": n, "cols": n,
            "entries": [[write(col.get(i, zero)) for col in cols] for i in range(n)]}


def columns_from_json(obj, read) -> tuple:
    """((rows, cols), sparse columns) of a dense JSON matrix.

    The entries must match the stated shape; they are read row by row, so the
    first bad coefficient named is the first in reading order.  Whether the
    shape is the one wanted is the caller's check.
    """
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if len(entries) != rows or any(len(row) != cols for row in entries):
        raise ValueError(f"matrix entries do not match its shape {rows}x{cols}")
    values = [[read(o) for o in row] for row in entries]
    return (rows, cols), [{i: c for i, c in enumerate(col) if not c.is_zero()}
                          for col in zip(*values)]


def hopf_to_json(h: HopfAlgebraData) -> dict:
    write = _coefficient_writer()
    zero = h.zero()
    mult = []
    for i in range(h.dim):
        for j in range(h.dim):
            d = h.mult[i][j]
            if not d:
                continue  # zero products omitted
            vec = [zero] * h.dim
            for k, c in d.items():
                vec[k] = c
            mult.append([i, j, [write(c) for c in vec]])
    comult = []
    for i in range(h.dim):
        for (j, k, c) in h.comult[i]:
            comult.append([i, j, k, write(c)])
    return {
        "dim": h.dim,
        "conductor": h.conductor,
        "labels": list(h.labels),
        "unit": [write(c) for c in h.unit],
        "counit": [write(c) for c in h.counit],
        "mult": mult,
        "comult": comult,
        "antipode": columns_to_json(h.antipode, zero, write),
    }


def _check_indices(dim, *indices):
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < dim:
            raise ValueError(f"basis index {i!r} out of range for dim {dim}")


def hopf_from_json(obj: dict) -> HopfAlgebraData:
    dim = int(obj["dim"])
    conductor = int(obj["conductor"])
    read = coefficient_reader(conductor)
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i, j, vec in obj["mult"]:
        _check_indices(dim, i, j)
        if len(vec) != dim:
            raise ValueError(f"product e_{i} e_{j} has {len(vec)} coefficients, not {dim}")
        coeffs = [read(o) for o in vec]
        mult[i][j] = {k: c for k, c in enumerate(coeffs) if not c.is_zero()}
    comult = [[] for _ in range(dim)]
    for i, j, k, c in obj["comult"]:
        _check_indices(dim, i, j, k)
        comult[i].append((j, k, read(c)))
    (rows, cols), antipode = columns_from_json(obj["antipode"], read)
    if (rows, cols) != (dim, dim):
        raise ValueError(f"antipode is {rows}x{cols}, not {dim}x{dim}")
    labels = list(obj["labels"])
    if len(labels) != dim:
        raise ValueError(f"{len(labels)} labels for dim {dim}")
    for key in ("unit", "counit"):
        if len(obj[key]) != dim:
            raise ValueError(f"{key} has {len(obj[key])} coefficients, not {dim}")
    return HopfAlgebraData(
        dim=dim,
        conductor=conductor,
        labels=labels,
        mult=mult,
        unit=[read(o) for o in obj["unit"]],
        comult=comult,
        counit=[read(o) for o in obj["counit"]],
        antipode=antipode,
    )


def candidate_to_json(cd, h: HopfAlgebraData) -> dict:
    write = _coefficient_writer()
    zero = h.zero()

    def vec(e):
        return [write(c) for c in e.coeffs]

    out = {
        "grouplikes": [vec(g) for g in cd.grouplikes],
        "grouplike_labels": list(cd.grouplike_labels),
        "expected": dict(cd.expected),
        "simples": [
            {"label": m.label, "dim": m.dim,
             "action": [columns_to_json(a, zero, write) for a in m.action]}
            for m in cd.simples
        ],
        "dual_blocks": [[vec(e) for e in blk] for blk in cd.dual_blocks],
    }
    if cd.skew_witness is not None:
        out["skew_witness"] = [vec(e) for e in cd.skew_witness]
    return out


def _element_from_json(arr, h: HopfAlgebraData, read) -> Element:
    vec = [read(o) for o in arr]
    if len(vec) != h.dim:
        raise ValueError(f"vector has {len(vec)} coefficients, not {h.dim}")
    return Element(h, vec)


def _module_from_json(obj, h: HopfAlgebraData, read):
    from .repsolver import RepModule

    dim = int(obj["dim"])
    if dim < 1:
        raise ValueError(f"module {obj['label']!r}: dim {dim} is not positive")
    read_in = [columns_from_json(a, read) for a in obj["action"]]
    if len(read_in) != h.dim:
        raise ValueError(f"module {obj['label']!r}: {len(read_in)} action matrices, not {h.dim}")
    if any(shape != (dim, dim) for shape, _ in read_in):
        raise ValueError(f"module {obj['label']!r}: action matrices must be {dim}x{dim}")
    return RepModule(obj["label"], dim, [cols for _, cols in read_in])


def candidate_from_json(obj: dict, h: HopfAlgebraData):
    from .catalog import CandidateData

    read = coefficient_reader(h.conductor)
    cd = CandidateData()
    cd.grouplikes = [_element_from_json(v, h, read) for v in obj["grouplikes"]]
    cd.grouplike_labels = list(obj["grouplike_labels"])
    cd.expected = dict(obj["expected"])
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
    per distinct content and indent, and its text reused; the memo lasts as
    long as this encoder.  Any other shape, True as conductor included, takes
    the generic path.

    pieces(o, ind, depth) is the same text in pieces, split before each
    member of a list or dict down to depth levels, so that a file is written
    without holding its whole text.
    """
    string = encode_basestring_ascii
    coefficients = {}

    def encode(o, ind):
        if isinstance(o, str):
            return string(o)
        inner = ind + " "
        if isinstance(o, dict):
            if not o:
                return "{}"
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
                    return text
            # string(k) raises TypeError for a key that is not a str
            return "{" + inner + ("," + inner).join(
                [string(k) + ": " + encode(v, inner) for k, v in sorted(o.items())]) + ind + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
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


def report_to_json(rep) -> dict:
    return {
        "dim": rep.dim,
        "conductor": rep.conductor,
        "radical_dim": rep.radical_dim,
        "coradical_dim": rep.coradical_dim,
        "filtration_dims": rep.filtration_dims,
        "grouplike_count": rep.grouplike_count,
        "grouplike_orders": rep.grouplike_orders,
        "tr_s2": cyc_to_json(rep.tr_s2),
        "semisimple": rep.semisimple,
        "cosemisimple": rep.cosemisimple,
        "chevalley": rep.chevalley,
        "chevalley_witness": rep.chevalley_witness,
        "antipode_order": rep.antipode_order,
        "s_squared_order": rep.s_squared_order,
        "distinguished_grouplike_index": rep.distinguished_grouplike_index,
        "distinguished_grouplike_label": rep.distinguished_grouplike_label,
        "skew_primitive_dims": rep.skew_primitive_dims,
        "certificates": rep.certificates,
    }
