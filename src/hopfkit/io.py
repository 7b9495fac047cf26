"""JSON interchange.  All payloads are deterministic: sorted keys, canonical
coefficient strings, no timestamps; files round-trip bit-exactly.
"""

from __future__ import annotations

import json
from math import isqrt

from .cyclotomic import cyc_from_json, cyc_to_json
from .hopf import Element, HopfAlgebraData
from .linalg import Matrix


def _vec_to_json(vec):
    return [cyc_to_json(c) for c in vec]


def _cyc_from_json(obj, conductor):
    c = cyc_from_json(obj)
    if c.conductor != conductor:
        raise ValueError(f"coefficient of conductor {c.conductor} in a structure of "
                         f"conductor {conductor}")
    return c


def _vec_from_json(arr, conductor):
    return [_cyc_from_json(o, conductor) for o in arr]


def matrix_to_json(m: Matrix):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[cyc_to_json(c) for c in row] for row in m.entries],
    }


def matrix_from_json(obj, conductor):
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if len(entries) != rows or any(len(row) != cols for row in entries):
        raise ValueError(f"matrix entries do not match its shape {rows}x{cols}")
    return Matrix(rows, cols, conductor, [_vec_from_json(row, conductor) for row in entries])


def hopf_to_json(h: HopfAlgebraData) -> dict:
    mult = []
    for i in range(h.dim):
        for j in range(h.dim):
            d = h.mult[i][j]
            if not d:
                continue  # zero products omitted
            vec = [h.zero()] * h.dim
            for k, c in d.items():
                vec[k] = c
            mult.append([i, j, _vec_to_json(vec)])
    comult = []
    for i in range(h.dim):
        for (j, k, c) in h.comult[i]:
            comult.append([i, j, k, cyc_to_json(c)])
    return {
        "dim": h.dim,
        "conductor": h.conductor,
        "labels": list(h.labels),
        "unit": _vec_to_json(h.unit),
        "counit": _vec_to_json(h.counit),
        "mult": mult,
        "comult": comult,
        "antipode": matrix_to_json(h.antipode),
    }


def _check_indices(dim, *indices):
    for i in indices:
        if not isinstance(i, int) or not 0 <= i < dim:
            raise ValueError(f"basis index {i!r} out of range for dim {dim}")


def hopf_from_json(obj: dict) -> HopfAlgebraData:
    dim = int(obj["dim"])
    conductor = int(obj["conductor"])
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i, j, vec in obj["mult"]:
        _check_indices(dim, i, j)
        if len(vec) != dim:
            raise ValueError(f"product e_{i} e_{j} has {len(vec)} coefficients, not {dim}")
        coeffs = _vec_from_json(vec, conductor)
        mult[i][j] = {k: c for k, c in enumerate(coeffs) if not c.is_zero()}
    comult = [[] for _ in range(dim)]
    for i, j, k, c in obj["comult"]:
        _check_indices(dim, i, j, k)
        comult[i].append((j, k, _cyc_from_json(c, conductor)))
    antipode = matrix_from_json(obj["antipode"], conductor)
    if (antipode.rows, antipode.cols) != (dim, dim):
        raise ValueError(f"antipode is {antipode.rows}x{antipode.cols}, not {dim}x{dim}")
    labels = list(obj["labels"])
    if len(labels) != dim:
        raise ValueError(f"{len(labels)} labels for dim {dim}")
    return HopfAlgebraData(
        dim=dim,
        conductor=conductor,
        labels=labels,
        mult=mult,
        unit=_vec_from_json(obj["unit"], conductor),
        comult=comult,
        counit=_vec_from_json(obj["counit"], conductor),
        antipode=antipode,
    )


def candidate_to_json(cd) -> dict:
    out = {
        "grouplikes": [_vec_to_json(g.coeffs) for g in cd.grouplikes],
        "grouplike_labels": list(cd.grouplike_labels),
        "expected": _expected_to_json(cd.expected),
        "simples": [
            {"label": m.label, "dim": m.dim,
             "action": [matrix_to_json(a) for a in m.action]}
            for m in cd.simples
        ],
        "dual_blocks": [[_vec_to_json(e.coeffs) for e in blk] for blk in cd.dual_blocks],
    }
    if cd.skew_witness is not None:
        out["skew_witness"] = [_vec_to_json(e.coeffs) for e in cd.skew_witness]
    return out


def _expected_to_json(expected):
    out = {}
    for k, v in expected.items():
        out[k] = v
    return out


def _element_from_json(arr, h: HopfAlgebraData) -> Element:
    vec = _vec_from_json(arr, h.conductor)
    if len(vec) != h.dim:
        raise ValueError(f"vector has {len(vec)} coefficients, not {h.dim}")
    return Element(h, vec)


def _module_from_json(obj, h: HopfAlgebraData):
    from .repsolver import RepModule

    dim = int(obj["dim"])
    if dim < 1:
        raise ValueError(f"module {obj['label']!r}: dim {dim} is not positive")
    action = [matrix_from_json(a, h.conductor) for a in obj["action"]]
    if len(action) != h.dim:
        raise ValueError(f"module {obj['label']!r}: {len(action)} action matrices, not {h.dim}")
    if any((a.rows, a.cols) != (dim, dim) for a in action):
        raise ValueError(f"module {obj['label']!r}: action matrices must be {dim}x{dim}")
    return RepModule(obj["label"], dim, action)


def candidate_from_json(obj: dict, h: HopfAlgebraData):
    from .catalog import CandidateData

    cd = CandidateData()
    cd.grouplikes = [_element_from_json(v, h) for v in obj["grouplikes"]]
    cd.grouplike_labels = list(obj["grouplike_labels"])
    cd.expected = dict(obj["expected"])
    cd.simples = [_module_from_json(m, h) for m in obj["simples"]]
    cd.dual_blocks = [[_element_from_json(v, h) for v in blk] for blk in obj["dual_blocks"]]
    for blk in cd.dual_blocks:
        if not blk or isqrt(len(blk)) ** 2 != len(blk):
            raise ValueError(f"dual block has {len(blk)} vectors, not a positive square")
    if "skew_witness" in obj:
        cd.skew_witness = tuple(_element_from_json(v, h) for v in obj["skew_witness"])
    return cd


def dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_json(path):
    """A JSON file whose top level is an object; anything else is a ValueError."""
    with open(path) as fh:
        obj = json.load(fh)
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
