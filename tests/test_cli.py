import json
import os
import resource
import subprocess
import sys

import pytest

from hopfkit.cli import main
from hopfkit.ydnichols import cyclic_datum

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_build_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert main(["build", "taft", "--n", "2", "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "h.sidecar.json").exists()
    assert main(["verify", str(out)]) == 0
    text = capsys.readouterr().out
    assert "antipode: pass" in text


def test_build_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["build", "fun-dic", "--p", "3", "--out", str(a)])
    main(["build", "fun-dic", "--p", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.sidecar.json").read_bytes() == (tmp_path / "b.sidecar.json").read_bytes()


def test_build_bad_params():
    assert main(["build", "gamma4p", "--p", "3", "--out", "/tmp/nope.json"]) == 2


# the family arguments that leave out a required parameter, and the flag each needs;
# dual-group's group kind is cyclic by default
_MISSING = [(["c_n"], "--n"), (["product"], "--ns"), (["dihedral"], "--n"), (["dicyclic"], "--n"),
            (["gamma4p"], "--p"), (["dual-group"], "--n"),
            (["dual-group", "--group", "gamma4p"], "--p"), (["taft"], "--n"),
            *[([name], "--p") for name in ("a-m10", "a-m10-dual", "a-m11", "h4xcp", "a4p", "b4p",
                                           "fun-dic", "h8p")]]


def test_the_missing_parameter_cases_cover_every_family_but_b8_and_q8():
    from hopfkit.catalog import FAMILY_NAMES

    assert sorted(set(FAMILY_NAMES) - {args[0] for args, _ in _MISSING}) == ["b8", "q8"]


@pytest.mark.parametrize("command", ["build", "certify"])
@pytest.mark.parametrize("args, flag", _MISSING, ids=[" ".join(args) for args, _ in _MISSING])
def test_a_missing_family_parameter_names_its_flag(tmp_path, capsys, command, args, flag):
    out = ["--out", str(tmp_path / "h.json")] if command == "build" else []
    assert main([command, *args, *out]) == 2
    assert capsys.readouterr().err == f"error: {args[0]} needs {flag}\n"
    assert list(tmp_path.iterdir()) == []


def _swap_antipode_entries(entries):
    # S(e_0) and S(e_1) get mixed up; algebra, coalgebra and bialgebra laws still hold
    entries[0][0], entries[0][1] = entries[0][1], entries[0][0]


def test_build_refuses_structure_that_fails_verify_hopf(tmp_path, monkeypatch, capsys):
    import hopfkit.cli as cli
    from hopfkit.catalog import build_family

    def corrupted_taft(name, params):
        h, cd = build_family("taft", {"n": 2})
        # S(e_0) and S(e_1) swapped; the other laws still hold
        h.antipode[0], h.antipode[1] = h.antipode[1], h.antipode[0]
        return h, cd

    monkeypatch.setattr(cli, "build_family", corrupted_taft)
    out = tmp_path / "h.json"
    assert main(["build", "taft", "--n", "2", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []
    assert "verify_hopf: " in capsys.readouterr().err


def test_max_dim_guard(tmp_path, monkeypatch):
    import hopfkit.cli as cli

    monkeypatch.setenv("HOPFKIT_MAX_DIM", "10")
    assert main(["build", "h8p", "--p", "3", "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("family, dim", [("c_n", 100000), ("taft", 100000 ** 2)])
def test_build_refuses_an_oversized_family_before_constructing(tmp_path, monkeypatch, capsys,
                                                               family, dim):
    import hopfkit.cli as cli

    def no_constructor(name, params):
        raise AssertionError(f"{name} was constructed")

    monkeypatch.delenv("HOPFKIT_MAX_DIM", raising=False)
    monkeypatch.setattr(cli, "build_family", no_constructor)
    assert main(["build", family, "--n", "100000", "--out", str(tmp_path / "h.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: dimension {dim} exceeds HOPFKIT_MAX_DIM=64"]
    assert list(tmp_path.iterdir()) == []


def test_taft_below_its_range_keeps_its_error_past_the_dimension_bound(capsys):
    assert main(["build", "taft", "--n", "-100000", "--out", "unused.json"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: need n >= 2"]


@pytest.mark.parametrize("bad_copy", ["first", "last"])
def test_a_product_given_twice_is_an_input_error(tmp_path, capsys, bad_copy):
    # whichever copy of e_i e_j comes first, the file is refused, not read as one of them
    out = tmp_path / "h.json"
    assert main(["build", "taft", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    entry = payload["mult"][3]
    bad = json.loads(json.dumps(entry))
    bad[2][0]["coeffs"][0] = "7/1"
    payload["mult"].insert(3 if bad_copy == "first" else 4, bad)
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"parse error: product e_{entry[0]} e_{entry[1]} is given twice"]


def test_verify_corrupted_file(tmp_path, capsys):
    out = tmp_path / "h.json"
    main(["build", "taft", "--n", "2", "--out", str(out)])
    payload = json.loads(out.read_text())
    # flip one multiplication coefficient
    payload["mult"][3][2][0]["coeffs"][0] = "7/1"
    out.write_text(json.dumps(payload))
    assert main(["verify", str(out)]) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text


def test_verify_empty_file(tmp_path):
    bad = tmp_path / "empty.json"
    bad.write_text("")
    assert main(["verify", str(bad)]) == 2


def _comult_index_99(payload):
    payload["comult"][0][1] = 99


def _zero_denominator(payload):
    payload["mult"][0][2][0]["coeffs"][0] = "1/0"


def _long_product_vector(payload):
    payload["mult"][0][2].append(payload["mult"][0][2][0])


def _huge_dim(payload):
    payload["dim"] = 100000


def _mixed_conductor(payload):
    # phi(6) = phi(3), so only the conductor field is wrong
    payload["comult"][0][3]["conductor"] = 6


def _antipode_row_dropped(payload):
    payload["antipode"]["entries"].pop()


def _antipode_not_square(payload):
    payload["antipode"]["entries"].pop()
    payload["antipode"]["rows"] -= 1


def _top_level_list(payload):
    return []


def _mult_not_a_list(payload):
    payload["mult"] = 5


def _labels_not_a_list(payload):
    payload["labels"] = 5


def _dim_null(payload):
    payload["dim"] = None


def _comult_entry_not_a_list(payload):
    payload["comult"] = [5]


def _infinite_coefficient(payload):
    # json.dumps writes Infinity, which json.load reads back as a float
    payload["mult"][0][2][0]["coeffs"][0] = float("inf")


def _labels_too_short(payload):
    payload["labels"] = payload["labels"][:1]
    payload["mult"][3][2][0]["coeffs"][0] = "7/1"


def _counit_one_short(payload):
    payload["counit"].pop()


def _unit_one_long(payload):
    payload["unit"].append(payload["unit"][0])


def _unit_one_short(payload):
    payload["unit"].pop()


def _index_true(payload):
    payload["comult"][0][1] = True


def _limit_memory():
    # a loader that allocates dim^2 tables before checking dim fails here, not on the host
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("corrupt", [_comult_index_99, _zero_denominator, _long_product_vector,
                                     _huge_dim, _mixed_conductor, _antipode_row_dropped,
                                     _antipode_not_square, _top_level_list, _mult_not_a_list,
                                     _labels_not_a_list, _dim_null, _comult_entry_not_a_list,
                                     _labels_too_short, _infinite_coefficient])
def test_verify_rejects_malformed_file(tmp_path, corrupt):
    out = tmp_path / "h.json"
    assert main(["build", "taft", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    replaced = corrupt(payload)
    out.write_text(json.dumps(payload if replaced is None else replaced))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "hopfkit.cli", "verify", str(out)],
                          env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_memory)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def _one_dim_of_conductor(n):
    """k as a 1-dim structure file over conductor n: every coefficient is the 1 of Q(zeta_n)
    written with one power-basis coefficient, which is right only when phi(n) = 1."""
    one = {"conductor": n, "coeffs": ["1/1"]}
    return {"dim": 1, "conductor": n, "labels": ["1"], "unit": [one], "counit": [one],
            "mult": [[0, 0, [one]]], "comult": [[0, 0, 0, one]],
            "antipode": {"rows": 1, "cols": 1, "entries": [[one]]}}


def _coefficient_of_conductor_2_61_minus_1(tmp_path):
    assert main(["build", "taft", "--n", "3", "--out", str(tmp_path / "t.json")]) == 0
    payload = json.loads((tmp_path / "t.json").read_text())
    payload["mult"][0][2][0]["conductor"] = 2 ** 61 - 1
    return payload


# each conductor would take trial division up to its square root to factor
@pytest.mark.parametrize("payload, command, message", [
    (lambda _: _one_dim_of_conductor(10 ** 18 + 3), "verify",
     "conductor 1000000000000000003 is too large for 1 coefficients"),
    (lambda _: _one_dim_of_conductor(10 ** 18 + 3), "dual",
     "conductor 1000000000000000003 is too large for 1 coefficients"),
    (lambda _: _one_dim_of_conductor(10 ** 18 + 3), "invariants",
     "conductor 1000000000000000003 is too large for 1 coefficients"),
    (_coefficient_of_conductor_2_61_minus_1, "verify",
     "coefficient of conductor 2305843009213693951 in a structure of conductor 3"),
    # no coefficient at all, so nothing would check the conductor
    (lambda _: dict(_one_dim_of_conductor(10 ** 18 + 3), dim=0, labels=[], unit=[], counit=[],
                    mult=[], comult=[], antipode={"rows": 0, "cols": 0, "entries": []}),
     "verify", "dim 0 is not positive"),
], ids=["huge-structure-verify", "huge-structure-dual", "huge-structure-invariants",
        "huge-coefficient-verify", "empty-huge-structure-verify"])
def test_a_huge_conductor_is_a_parse_error_before_it_is_factored(tmp_path, payload, command,
                                                                 message):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(payload(tmp_path)))
    argv = [command, str(path)] + (["--out", str(tmp_path / "d.json")]
                                   if command == "dual" else [])
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "hopfkit.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"parse error: {message}"]
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("command", ["verify", "invariants"])
@pytest.mark.parametrize("corrupt, message", [
    (_counit_one_short, "counit has 8 coefficients, not 9"),
    (_unit_one_long, "unit has 10 coefficients, not 9"),
    (_unit_one_short, "unit has 8 coefficients, not 9"),
    (_index_true, "basis index True out of range for dim 9"),
])
def test_unit_counit_length_and_bool_index_are_parse_errors(tmp_path, capsys, command, corrupt,
                                                            message):
    out = tmp_path / "h.json"
    assert main(["build", "taft", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    corrupt(payload)
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"parse error: {message}"]
    assert captured.out == ""


def _set(*path, value):
    """A corruption that sets payload[path[0]]...[path[-1]] to value."""
    def corrupt(payload):
        for key in path[:-1]:
            payload = payload[key]
        payload[path[-1]] = value
    return corrupt


# numbers a file may not give inexactly: dim, conductor, matrix shapes and coefficient
# conductors as JSON integers, coefficients as str or int, labels as a list of str
_INEXACT = [
    (_set("dim", value=9.5), "dim 9.5 is not an integer"),
    (_set("dim", value="9"), "dim '9' is not an integer"),
    (_set("dim", value=True), "dim True is not an integer"),
    (_set("conductor", value=3.0), "conductor 3.0 is not an integer"),
    (_set("unit", 0, "conductor", value=3.0), "coefficient conductor 3.0 is not an integer"),
    (_set("unit", 0, "coeffs", value=[True, False]),
     "coefficient True is not exact: give a str or an int"),
    (_set("mult", 0, 2, 0, "coeffs", value=[0.1, "0/1"]),
     "coefficient 0.1 is not exact: give a str or an int"),
    (_set("antipode", "rows", value=9.0), "matrix rows 9.0 is not an integer"),
    (_set("labels", value="abcdefghi"), "labels are not a list of strings"),
    (_set("labels", value=list(range(9))), "labels are not a list of strings"),
]


@pytest.mark.parametrize("command", ["verify", "invariants"])
@pytest.mark.parametrize("corrupt, message", _INEXACT, ids=[
    "dim-float", "dim-str", "dim-bool", "conductor-float", "coefficient-conductor-float",
    "coefficient-bools", "coefficient-float", "rows-float", "labels-str", "labels-ints"])
def test_inexact_numbers_in_a_structure_file_are_parse_errors(tmp_path, capsys, command, corrupt,
                                                              message):
    out = tmp_path / "h.json"
    assert main(["build", "taft", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    corrupt(payload)
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"parse error: {message}"]
    assert captured.out == ""


@pytest.mark.parametrize("command, prefix", [("invariants", "parse error in sidecar"),
                                             ("simples", "parse error")])
@pytest.mark.parametrize("corrupt, message", [
    (_set("simples", 0, "dim", value=1.0), "module 'chi0': dim 1.0 is not an integer"),
    (_set("grouplikes", 0, 0, "coeffs", value=[True, False]),
     "coefficient True is not exact: give a str or an int"),
    (_set("simples", 0, "action", 0, "entries", 0, 0, "conductor", value=3.0),
     "coefficient conductor 3.0 is not an integer"),
    # the claims `invariants --expect` compares with !=, where 9.0 == 9 and 0 == False
    (_set("expected", "dim", value=9.0), "expected dim 9.0 is not an integer"),
    (_set("expected", "coradical_dim", value="3"), "expected coradical_dim '3' is not an integer"),
    (_set("expected", "radical_dim", value=True), "expected radical_dim True is not an integer"),
    (_set("expected", "grouplike_count", value=3.0),
     "expected grouplike_count 3.0 is not an integer"),
    (_set("expected", "semisimple", value=0), "expected semisimple 0 is not a boolean"),
    (_set("expected", "chevalley", value=1), "expected chevalley 1 is not a boolean"),
    (_set("expected", "grouplike_orders", value=[1, 3.0, 3]),
     "expected grouplike_orders [1, 3.0, 3] is not a list of integers"),
    (_set("expected", "grouplike_orders", value=[1, True, 3]),
     "expected grouplike_orders [1, True, 3] is not a list of integers"),
    (_set("expected", "distinguished_grouplike", value=0.0),
     "expected distinguished_grouplike 0.0 is not an integer"),
    (_set("expected", "distinguished_grouplike", value=False),
     "expected distinguished_grouplike False is not an integer"),
    (_set("expected", "s4_is_id", value=1), "expected s4_is_id 1 is not a boolean"),
    (_set("expected", "distinguished_is_unit", value=1),
     "expected distinguished_is_unit 1 is not a boolean"),
    (_set("expected", "commutative", value=0), "expected commutative 0 is not a boolean"),
    (_set("expected", value=[]), "expected [] is not an object"),
    (_set("grouplike_labels", value="abc"), "grouplike_labels 'abc' is not a list of strings"),
    (_set("grouplike_labels", value=[1, 2, 3]),
     "grouplike_labels [1, 2, 3] is not a list of strings"),
], ids=["module-dim-float", "coefficient-bools", "coefficient-conductor-float", "dim-float",
        "coradical-dim-str", "radical-dim-bool", "grouplike-count-float", "semisimple-int",
        "chevalley-int", "orders-float", "orders-bool", "distinguished-float",
        "distinguished-bool", "s4-int", "distinguished-is-unit-int", "commutative-int",
        "expected-list", "labels-str", "labels-ints"])
def test_inexact_numbers_in_a_sidecar_are_parse_errors(tmp_path, capsys, command, prefix, corrupt,
                                                       message):
    out = tmp_path / "h.json"
    assert main(["build", "taft", "--n", "3", "--out", str(out)]) == 0
    side = tmp_path / "h.sidecar.json"
    payload = json.loads(side.read_text())
    corrupt(payload)
    side.write_text(json.dumps(payload))
    argv = [command, str(out), "--expect", str(side)] if command == "invariants" else \
        [command, str(out), str(side)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"{prefix}: {message}"]
    assert captured.out == ""


def test_verify_accepts_comult_padded_with_zero_entries(tmp_path, capsys):
    # 37 zero comult entries on top of the 18 real ones: the reader sums each
    # (i, j, k) and drops zero sums, so Delta is read as the clean file's
    out = tmp_path / "h.json"
    assert main(["build", "taft", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    zero = {"conductor": 3, "coeffs": ["0/1", "0/1"]}
    payload["comult"] += [[0, 0, 0, zero]] * 37
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    captured = capsys.readouterr()
    assert "antipode: pass" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("command", ["invariants", "simples"])
def test_sidecar_with_zero_denominator_is_an_input_error(tmp_path, command):
    out = tmp_path / "h.json"
    main(["build", "taft", "--n", "3", "--out", str(out)])
    side = tmp_path / "h.sidecar.json"
    payload = json.loads(side.read_text())
    payload["grouplikes"][0][0]["coeffs"][0] = "1/0"
    side.write_text(json.dumps(payload))
    argv = [command, str(out), "--expect", str(side)] if command == "invariants" else \
        [command, str(out), str(side)]
    assert main(argv) == 2


@pytest.mark.parametrize("command", ["invariants", "simples"])
def test_sidecar_that_is_not_an_object_is_an_input_error(tmp_path, command):
    out = tmp_path / "h.json"
    main(["build", "taft", "--n", "3", "--out", str(out)])
    side = tmp_path / "h.sidecar.json"
    side.write_text("[]")
    argv = [command, str(out), "--expect", str(side)] if command == "invariants" else \
        [command, str(out), str(side)]
    assert main(argv) == 2


def _simples_not_a_list(payload):
    payload["simples"] = 5


def _grouplike_too_short(payload):
    payload["grouplikes"][0].pop()


def _module_matrix_too_big(payload):
    entry = payload["simples"][0]["action"][0]["entries"][0][0]
    payload["simples"][0]["action"][0] = {"rows": 2, "cols": 2, "entries": [[entry] * 2] * 2}


def _dual_block_of_three(payload):
    payload["dual_blocks"] = [payload["grouplikes"][:3]]


def _module_of_dim_zero(payload):
    module = payload["simples"][0]
    module["dim"] = 0
    module["action"] = [{"rows": 0, "cols": 0, "entries": []}] * len(module["action"])


def _action_list_too_short(payload):
    payload["simples"][0]["action"] = payload["simples"][0]["action"][:2]


@pytest.mark.parametrize("corrupt", [_simples_not_a_list, _grouplike_too_short,
                                     _module_matrix_too_big, _dual_block_of_three,
                                     _module_of_dim_zero, _action_list_too_short])
@pytest.mark.parametrize("command", ["invariants", "simples"])
def test_malformed_sidecar_is_an_input_error(tmp_path, command, corrupt, capsys):
    out = tmp_path / "h.json"
    main(["build", "taft", "--n", "3", "--out", str(out)])
    side = tmp_path / "h.sidecar.json"
    payload = json.loads(side.read_text())
    corrupt(payload)
    side.write_text(json.dumps(payload))
    argv = [command, str(out), "--expect", str(side)] if command == "invariants" else \
        [command, str(out), str(side)]
    capsys.readouterr()
    assert main(argv) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("witness", [lambda w: [], lambda w: {}, lambda w: w[:2],
                                     lambda w: w + w[:1]], ids=["[]", "{}", "2", "4"])
def test_skew_witness_of_wrong_length_is_an_input_error(tmp_path, witness, capsys):
    out = tmp_path / "h.json"
    main(["build", "taft", "--n", "3", "--out", str(out)])
    side = tmp_path / "h.sidecar.json"
    payload = json.loads(side.read_text())
    assert len(payload["skew_witness"]) == 3
    payload["skew_witness"] = witness(payload["skew_witness"])
    side.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["invariants", str(out), "--expect", str(side)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "parse error in sidecar: skew_witness is not a list of 3 vectors (g, h, x)"]


def test_invariants_with_expect(tmp_path, capsys):
    out = tmp_path / "h.json"
    main(["build", "taft", "--n", "3", "--out", str(out)])
    capsys.readouterr()  # drop the build message
    rc = main(["invariants", str(out), "--expect", str(tmp_path / "h.sidecar.json")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coradical_dim"] == 3
    assert payload["radical_dim"] == 6
    assert payload["certificates"]["grouplike_certificate"] is True


@pytest.mark.parametrize("family, claim", [(["taft", "--n", "3"], "semisimple"),
                                           (["a-m10", "--p", "3"], "distinguished_grouplike"),
                                           (["a4p", "--p", "3"], "grouplike_orders")])
def test_invariants_accepts_the_claims_that_build_writes(tmp_path, capsys, family, claim):
    out = tmp_path / "h.json"
    assert main(["build", *family, "--out", str(out)]) == 0
    side = tmp_path / "h.sidecar.json"
    assert claim in json.loads(side.read_text())["expected"]
    capsys.readouterr()
    assert main(["invariants", str(out), "--expect", str(side)]) == 0
    assert capsys.readouterr().err == ""


_TAFT3, _AM10 = ["taft", "--n", "3"], ["a-m10", "--p", "3"]


@pytest.mark.parametrize("family, claims, mismatches", [
    (_TAFT3, {"radical_dim": 7}, ["radical_dim expected 7 got 6"]),
    (_TAFT3, {"grouplike_count": 4}, ["grouplike_count expected 4 got 3"]),
    (_TAFT3, {"semisimple": True}, ["semisimple expected True got False", "tr_s2 expected 9 got 0"]),
    (_TAFT3, {"commutative": True}, ["commutative expected True got False"]),
    (_AM10, {"dim": 13}, ["dim expected 13 got 12"]),
    (_AM10, {"coradical_dim": 5}, ["coradical_dim expected 5 got 6"]),
    (_AM10, {"chevalley": False}, ["chevalley expected False got True"]),
    (_AM10, {"s4_is_id": False}, ["s4_is_id expected False got True"]),
    (_AM10, {"distinguished_grouplike": 2}, ["distinguished_grouplike expected 2 got 1"]),
    (_AM10, {"distinguished_is_unit": True}, ["distinguished_is_unit expected True got False"]),
    # in certify's row order
    (_AM10, {"radical_dim": 7, "grouplike_count": 5},
     ["grouplike_count expected 5 got 6", "radical_dim expected 7 got 6"]),
], ids=["taft-radical-dim", "taft-grouplike-count", "taft-semisimple", "taft-commutative",
        "am10-dim", "am10-coradical-dim", "am10-chevalley", "am10-s4", "am10-distinguished",
        "am10-distinguished-is-unit", "am10-two-claims"])
def test_invariants_names_each_claim_mismatch(tmp_path, capsys, family, claims, mismatches):
    out = tmp_path / "h.json"
    assert main(["build", *family, "--out", str(out)]) == 0
    side = tmp_path / "h.sidecar.json"
    payload = json.loads(side.read_text())
    payload["expected"].update(claims)
    side.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["invariants", str(out), "--expect", str(side)]) == 1
    captured = capsys.readouterr()
    assert all(json.loads(captured.out)["certificates"].values())  # exit 1 for the claims only
    assert captured.err.splitlines() == [f"claim mismatch: {m}" for m in mismatches]


def test_invariants_names_why_the_grouplike_certificate_fails(tmp_path, capsys):
    out = tmp_path / "h.json"
    main(["build", "h8p", "--p", "3", "--out", str(out)])
    side = tmp_path / "h.sidecar.json"
    payload = json.loads(side.read_text())
    coeffs = payload["dual_blocks"][1][1][4]["coeffs"]
    assert coeffs[0] == "1/2"
    coeffs[0] = "3/2"
    side.write_text(json.dumps(payload))
    capsys.readouterr()  # drop the build message
    assert main(["invariants", str(out), "--expect", str(side)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["certificates"]["grouplike_certificate"] is False
    assert "grouplike_certificate: block1: Delta(m_uv) != sum_w m_uw (x) m_wv at (u, v) = (0, 0)" \
        in captured.err.splitlines()


def test_dual_command(tmp_path):
    src = tmp_path / "h.json"
    dst = tmp_path / "d.json"
    main(["build", "dicyclic", "--n", "3", "--out", str(src)])
    assert main(["dual", str(src), "--out", str(dst)]) == 0
    assert main(["verify", str(dst)]) == 0


def test_simples_command(tmp_path, capsys):
    out = tmp_path / "h.json"
    main(["build", "a-m11", "--p", "3", "--out", str(out)])
    capsys.readouterr()  # drop the build message
    rc = main(["simples", str(out), str(tmp_path / "h.sidecar.json")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["profile"] == [1, 1, 2, 2]


def test_nichols_qline(capsys):
    assert main(["nichols", "--qline", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_dim"] == 4


def test_nichols_gamma_module(capsys):
    assert main(["nichols", "--p", "5", "--class", "y:1", "--rep", "psi:1",
                 "--cutoff", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ranks"][0] == 1 and payload["ranks"][1] == 4


def test_yd_verify_data(capsys):
    assert main(["yd-verify", "--datum", "fun-dic", "--p", "3"]) == 0
    assert main(["yd-verify", "--p", "5", "--class", "x:1", "--rep", "chi:2"]) == 0


def test_yd_verify_class_defaults_to_the_prime_of_nichols(capsys):
    # nichols --class y:1 --rep psi:1 names the module at p = 5; so does yd-verify
    runs = []
    for argv in (["yd-verify", "--class", "y:1", "--rep", "psi:1"],
                 ["yd-verify", "--p", "5", "--class", "y:1", "--rep", "psi:1"]):
        runs.append((main(argv), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].err == ""


@pytest.mark.parametrize("argv, message", [
    ("nichols --p 5 --class y:1", "--rep name:index is required"),
    ("nichols --p 5", "give --qline, or --class and --rep"),
    ("yd-verify --p 5 --class y:1", "--rep name:index is required"),
    ("yd-verify --p 5", "give --file, --datum, or --class and --rep"),
    ("nichols --p 5 --class trivial:0 --rep alpha:9",
     "no irreducible representation alpha9 of the group"),
    ("yd-verify --p 5 --class trivial:0 --rep alpha:9",
     "no irreducible representation alpha9 of the group"),
    ("nichols --qline 3 --cutoff -2", "cutoff must be >= 0, got -2"),
    ("nichols --p 5 --class y:1 --rep foo:1", "the y classes take a psi representation, got 'foo'"),
    ("yd-verify --p 5 --class y:1 --rep chi:1",
     "the y classes take a psi representation, got 'chi'"),
    ("nichols --p 5 --class x:1 --rep psi:1", "the x classes take a chi representation, got 'psi'"),
])
def test_incomplete_yd_input_is_an_input_error(capsys, argv, message):
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv, message", [
    ("certify c_n --n 0", "the cyclic group C_n needs n >= 1, got 0"),
    ("certify dihedral --n 0", "the dihedral group D_n needs n >= 1, got 0"),
    ("certify dicyclic --n 0", "the dicyclic group Dic_n needs n >= 1, got 0"),
    ("certify product --ns 2,0", "each cyclic factor C_n needs n >= 1, got 0"),
    ("build product --ns 2,0 --out unused.json", "each cyclic factor C_n needs n >= 1, got 0"),
    ("build dual-group --group cyclic --n -1 --out unused.json",
     "the cyclic group C_n needs n >= 1, got -1"),
    # parameters whose formula dimension is far past HOPFKIT_MAX_DIM
    ("build product --ns=-200,-200 --out unused.json",
     "each cyclic factor C_n needs n >= 1, got -200"),
])
def test_group_of_order_below_one_is_an_input_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["HOPFKIT_MAX_DIM", "HOPFKIT_NICHOLS_GUARD_MB"])
def test_non_integer_guard_is_an_input_error(name):
    # read by main, not at import, so the exit-code contract holds
    env = dict(os.environ, PYTHONPATH=SRC, **{name: "1.5"})
    proc = subprocess.run([sys.executable, "-m", "hopfkit.cli", "nichols", "--qline", "4"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {name} must be an integer"]


def test_the_parser_is_built_once_and_the_guards_read_on_every_call(monkeypatch, capsys):
    import hopfkit.cli as cli

    assert main(["nichols", "--qline", "4"]) == 0
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("HOPFKIT_NICHOLS_GUARD_MB", "x")
    assert main(["nichols", "--qline", "4"]) == 2
    monkeypatch.setenv("HOPFKIT_NICHOLS_GUARD_MB", "0")
    capsys.readouterr()
    assert main(["nichols", "--qline", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["guard_hit"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh process pays for every module it imports; dataclasses brings inspect, ast and dis
    code = "import sys, hopfkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_bosonize_command(tmp_path):
    out = tmp_path / "b.json"
    assert main(["bosonize", "--datum", "c2", "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_bosonize_exits_1_when_the_structure_fails_verify_hopf(tmp_path, monkeypatch, capsys):
    # the lifting y^2 = 1 - g^2 of a valid datum over k[C_12] with chi^2 != eps
    from hopfkit import cli
    from hopfkit.ydnichols import bosonize

    monkeypatch.setattr(cli, "named_datum", lambda name, p: cyclic_datum(12, 3, 2))
    monkeypatch.setattr(cli, "bosonize", lambda d: bosonize(d, 1))
    monkeypatch.chdir(tmp_path)
    assert main(["bosonize", "--datum", "c2", "--out", "b.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "verify_hopf: associativity fails at (g, y^1#1)" in err.splitlines()
    assert all(line.startswith("verify_hopf: ") for line in err.splitlines())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["bosonize", "yd-verify"])
@pytest.mark.parametrize("p", ["0", "1", "9"])
def test_datum_prime_that_is_not_an_odd_prime_is_an_input_error(tmp_path, monkeypatch, capsys,
                                                                command, p):
    # --p 0 is not read as the default p = 3; every datum but c2 takes p
    monkeypatch.chdir(tmp_path)
    for datum in ("fun-dic", "a4p-chi2", "a4p-chi3"):
        argv = [command, "--datum", datum, "--p", p] + (["--out", "b.json"]
                                                        if command == "bosonize" else [])
        assert main(argv) == 2, datum
        out, err = capsys.readouterr()
        assert out == ""
        # bosonize --p 9 has dimension 72: the guard refuses it before p is looked at
        assert err.splitlines() == ["error: dimension 72 exceeds HOPFKIT_MAX_DIM=64"
                                    if (command, p) == ("bosonize", "9")
                                    else f"error: p must be an odd prime, got {p}"]
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["bosonize", "yd-verify"])
def test_datum_prime_is_checked_after_the_dimension_guard(tmp_path, monkeypatch, capsys,
                                                          command):
    monkeypatch.chdir(tmp_path)
    out = ["--out", "b.json"] if command == "bosonize" else []
    monkeypatch.setenv("HOPFKIT_MAX_DIM", "72")
    assert main([command, "--datum", "fun-dic", "--p", "9"] + out) == 2
    assert capsys.readouterr().err.splitlines() == ["error: p must be an odd prime, got 9"]
    # a p far above the guard is refused at once, not factored by trial division first
    monkeypatch.delenv("HOPFKIT_MAX_DIM")
    p = 10 ** 18 + 3
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "hopfkit.cli", command, "--datum", "fun-dic",
                           "--p", str(p)] + out, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    dim = 8 * p if command == "bosonize" else 4 * p
    assert proc.stderr.splitlines() == [f"error: dimension {dim} exceeds HOPFKIT_MAX_DIM=64"]
    assert list(tmp_path.iterdir()) == []


def test_bosonize_refuses_a_dimension_above_the_guard_before_building(tmp_path, monkeypatch,
                                                                      capsys):
    from hopfkit import cli

    def refuse(*args):
        raise AssertionError("the datum was constructed")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "named_datum", refuse)
    assert main(["bosonize", "--datum", "fun-dic", "--p", "11", "--out", "f.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: dimension 88 exceeds HOPFKIT_MAX_DIM=64"]
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setenv("HOPFKIT_MAX_DIM", "23")
    assert main(["bosonize", "--datum", "a4p-chi3", "--out", "f.json"]) == 2
    assert capsys.readouterr().err == "error: dimension 24 exceeds HOPFKIT_MAX_DIM=23\n"


def test_yd_verify_refuses_a_datum_algebra_above_the_guard_before_building(tmp_path, monkeypatch,
                                                                          capsys):
    # the guard reads dim L, half the bosonization's dimension, as build fun-dic --p 17 does
    from hopfkit import cli

    def refuse(*args):
        raise AssertionError("the datum was constructed")

    monkeypatch.setattr(cli, "named_datum", refuse)
    assert main(["yd-verify", "--datum", "fun-dic", "--p", "17"]) == 2
    assert capsys.readouterr() == ("", "error: dimension 68 exceeds HOPFKIT_MAX_DIM=64\n")
    assert main(["build", "fun-dic", "--p", "17", "--out", str(tmp_path / "f.json")]) == 2
    assert capsys.readouterr() == ("", "error: dimension 68 exceeds HOPFKIT_MAX_DIM=64\n")
    monkeypatch.setenv("HOPFKIT_MAX_DIM", "11")
    assert main(["yd-verify", "--datum", "a4p-chi3"]) == 2
    assert capsys.readouterr().err == "error: dimension 12 exceeds HOPFKIT_MAX_DIM=11\n"


def test_certify_command(tmp_path, capsys):
    rc = main(["certify", "taft", "--n", "2", "--json", str(tmp_path / "c.json")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ALL CLAIMS PASS" in text
    payload = json.loads((tmp_path / "c.json").read_text())
    assert payload["ok"] is True


@pytest.mark.parametrize("command", ["build", "dual", "bosonize", "invariants", "certify"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, command):
    src = tmp_path / "h.json"
    main(["build", "taft", "--n", "2", "--out", str(src)])
    capsys.readouterr()  # drop the build message
    bad = str(tmp_path / "missing" / "x.json")
    argv = {"build": ["build", "taft", "--n", "2", "--out", bad],
            "dual": ["dual", str(src), "--out", bad],
            "bosonize": ["bosonize", "--datum", "c2", "--out", bad],
            "invariants": ["invariants", str(src), "--json", bad],
            "certify": ["certify", "taft", "--n", "2", "--json", bad]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {bad}: No such file or directory"]
    assert not (tmp_path / "missing").exists()


def _c2_datum_payload():
    from hopfkit import io as hio
    from hopfkit.cyclotomic import cyc_to_json
    from hopfkit.ydnichols import named_datum

    d = named_datum("c2", 3)
    return {
        "algebra": hio.hopf_to_json(d.L),
        "g": [cyc_to_json(d.g.get(i, d.L.zero())) for i in range(d.L.dim)],
        "chi": [cyc_to_json(c) for c in d.chi],
        "q": cyc_to_json(d.q),
    }


def test_yd_verify_from_file(tmp_path, capsys):
    f = tmp_path / "datum.json"
    f.write_text(json.dumps(_c2_datum_payload()))
    assert main(["yd-verify", "--file", str(f)]) == 0
    assert main(["yd-verify", "--file", str(tmp_path / "missing.json")]) == 2


def test_yd_verify_file_refuses_algebra_that_fails_verify_hopf(tmp_path, capsys):
    payload = _c2_datum_payload()
    _swap_antipode_entries(payload["algebra"]["antipode"]["entries"])
    f = tmp_path / "datum.json"
    f.write_text(json.dumps(payload))
    assert main(["yd-verify", "--file", str(f)]) == 1
    assert "INVALID" in capsys.readouterr().out


def _g_not_a_list(payload):
    payload["g"] = 5


def _g_too_short(payload):
    payload["g"].pop()


def _algebra_huge_dim(payload):
    payload["algebra"]["dim"] = 100000


def _q_of_another_conductor(payload):
    # q = -1 written at conductor 4 in a datum of conductor 2: the right value in the wrong field
    assert payload["algebra"]["conductor"] == 2
    payload["q"] = {"conductor": 4, "coeffs": ["-1/1", "0/1"]}


@pytest.mark.parametrize("corrupt", [_g_not_a_list, _g_too_short, _algebra_huge_dim,
                                     _q_of_another_conductor])
def test_yd_verify_rejects_malformed_file(tmp_path, corrupt):
    payload = _c2_datum_payload()
    corrupt(payload)
    f = tmp_path / "datum.json"
    f.write_text(json.dumps(payload))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "hopfkit.cli", "yd-verify", "--file", str(f)],
                          env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_memory)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("corrupt, message", [
    (_set("algebra", "dim", value=2.0), "dim 2.0 is not an integer"),
    (_set("q", "coeffs", value=[-1.0]), "coefficient -1.0 is not exact: give a str or an int"),
    (_set("g", 1, "coeffs", value=[True]), "coefficient True is not exact: give a str or an int"),
], ids=["dim-float", "coefficient-float", "coefficient-bool"])
def test_inexact_numbers_in_a_datum_file_are_errors(tmp_path, capsys, corrupt, message):
    payload = json.loads(json.dumps(_c2_datum_payload()))
    corrupt(payload)
    f = tmp_path / "datum.json"
    f.write_text(json.dumps(payload))
    assert main(["yd-verify", "--file", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


def test_build_dimensions(tmp_path, capsys):
    for argv, dim in [
        (["build", "h8p", "--p", "3", "--out", str(tmp_path / "a.json")], 24),
        (["build", "gamma4p", "--p", "5", "--out", str(tmp_path / "b.json")], 20),
        (["build", "c_n", "--n", "1", "--out", str(tmp_path / "c.json")], 1),
    ]:
        assert main(argv) == 0
        assert f"dim {dim}" in capsys.readouterr().out


def test_certify_am11_cli(capsys):
    assert main(["certify", "a-m11", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "ALL CLAIMS PASS" in out
    assert "distinguished_grouplike" in out


def test_invariants_and_simples_refuse_unverified_structure(tmp_path, capsys):
    out = tmp_path / "h.json"
    main(["build", "taft", "--n", "3", "--out", str(out)])
    payload = json.loads(out.read_text())
    del payload["comult"][1]  # drop one comultiplication entry
    out.write_text(json.dumps(payload))
    sidecar = str(tmp_path / "h.sidecar.json")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    assert main(["invariants", str(out)]) == 1
    report = tmp_path / "report.json"
    assert main(["invariants", str(out), "--expect", sidecar, "--json", str(report)]) == 1
    assert not report.exists()
    assert main(["simples", str(out), sidecar]) == 1
    captured = capsys.readouterr()
    assert "verify_hopf: " in captured.err
    assert "{" not in captured.out


def _deep_arrays(path):
    path.write_text("[" * 100000 + "]" * 100000)


def _deep_objects(path):
    path.write_text('{"a":' * 3000 + "1" + "}" * 3000)


@pytest.mark.parametrize("deep", [_deep_arrays, _deep_objects])
@pytest.mark.parametrize("argv", [
    "verify DEEP", "invariants DEEP", "invariants H --expect DEEP", "dual DEEP --out x.json",
    "simples DEEP SIDE", "simples H DEEP", "yd-verify --file DEEP",
])
def test_deeply_nested_json_is_an_input_error(tmp_path, argv, deep):
    h = tmp_path / "h.json"
    assert main(["build", "taft", "--n", "3", "--out", str(h)]) == 0
    deep(tmp_path / "deep.json")
    names = {"DEEP": "deep.json", "H": "h.json", "SIDE": "h.sidecar.json"}
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "hopfkit.cli"]
                          + [names.get(a, a) for a in argv.split()],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


_CLOSED_STDOUT = [["certify", "taft", "--n", "2"], ["verify", "{h}"], ["invariants", "{h}"],
                  ["bosonize", "--datum", "c2"], ["yd-verify", "--class", "y:1", "--rep", "psi:1"],
                  ["nichols", "--qline", "4"]]


def _run_with_stdout_closed(argv, unbuffered):
    """(exit code, stderr) of the command with its stdout's reader gone before the first write,
    as in `hopfkit verify h.json | head -0`."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "hopfkit.cli"] + argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    return proc.wait(timeout=60), err


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", _CLOSED_STDOUT, ids=lambda argv: argv[0])
def test_a_stdout_closed_early_is_exit_2_with_one_stderr_line(tmp_path, argv, unbuffered):
    h = tmp_path / "h.json"
    assert main(["build", "taft", "--n", "2", "--out", str(h)]) == 0
    code, err = _run_with_stdout_closed([a.format(h=h) for a in argv], unbuffered)
    assert code == 2
    assert err.splitlines() == ["error: cannot write stdout: broken pipe"]


def test_help_to_a_closed_stdout_is_exit_2_with_one_stderr_line():
    assert _run_with_stdout_closed(["--help"], "") == (2, "error: cannot write stdout: broken pipe\n")


@pytest.mark.parametrize("argv, unbuffered", [(["--help"], "1"), (["certify", "--help"], "1"),
                                              (["certify", "--help"], "")],
                         ids=["help-1", "certify-help-1", "certify-help-"])
def test_unbuffered_or_subcommand_help_to_a_closed_stdout_is_exit_2(argv, unbuffered):
    # argparse drops a failed write of the help itself, so an unbuffered stdout never
    # reaches the flush at exit
    assert _run_with_stdout_closed(argv, unbuffered) == (
        2, "error: cannot write stdout: broken pipe\n")
