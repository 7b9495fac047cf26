"""perfbench's tracer reads hopfkit from outside: it wraps the module functions
and its hooks read the dense Matrix given to linalg.rank/nullspace and
ydnichols.matrix_rank and returned by ydnichols.symmetrizer (the columns it
builds), and the paths given to io.load_json and io.dump_json.
This runs the tracer on cheap commands, so a change under src/ that breaks
those hooks fails here.  Nothing under perfbench/ is changed."""

import os

from hopfkit import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_counts_elimination_input_and_symmetrizer_entries(monkeypatch, capsys):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["certify", "taft", "--n", "2"]) == 0
        assert cli.main(["nichols", "--p", "5", "--class", "y:1", "--rep", "psi:1",
                         "--cutoff", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    table = tracer.table()
    assert table["linalg.input_cells"] > 0
    assert table["ydnichols.symmetrizer.nnz.deg2"] > 0


def test_tracer_counts_the_field_ops_of_a_certificate(monkeypatch, capsys):
    # the tracer counts field ops at the CycNumber dunders it wraps; a kernel
    # that reached the field-op cache around them would read zero here
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["certify", "taft", "--n", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    table = tracer.table()
    assert table["cyclotomic.mul.calls"] > 0
    assert table["cyclotomic.addsub.calls"] > 0


def test_tracer_reads_each_nichols_degree(monkeypatch, capsys):
    # the per-degree metrics the benchmark reads: the nnz of the columns of
    # each S_n that ydnichols.symmetrizer builds, those of the words wx with
    # w in W_(n-1), and the time of each degree's rank
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    from hopfkit.ydnichols import braiding, yd_module_gamma4p
    from test_ydnichols import carried_columns

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["nichols", "--p", "5", "--class", "y:1", "--rep", "psi:1",
                         "--cutoff", "3"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    table = tracer.table()
    c = braiding(yd_module_gamma4p(5, ("y", 1), ("psi", 1)))
    for n, cols in enumerate(carried_columns(c, 4, 3), 1):
        nnz = sum(1 for col in cols for x in col if not x.is_zero())
        assert table[f"ydnichols.symmetrizer.nnz.deg{n}"] == nnz > 0, n
        assert table[f"ydnichols.symmetrizer.total_s.deg{n}"] > 0, n
    assert table["ydnichols.rank.total_s.deg3"] > 0
    assert "ydnichols.symmetrizer.nnz.deg4" not in table


def test_tracer_counts_the_bytes_of_the_files_read_and_written(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    h, d = tmp_path / "h.json", tmp_path / "d.json"
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["build", "taft", "--n", "2", "--out", str(h)]) == 0
        assert cli.main(["dual", str(h), "--out", str(d)]) == 0
        assert cli.main(["verify", str(d)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    table = tracer.table()
    size = {path.name: path.stat().st_size for path in tmp_path.iterdir()}
    assert table["io.bytes_read"] == size["h.json"] + size["d.json"] > 0
    assert table["io.bytes_written"] == size["h.json"] + size["h.sidecar.json"] + size["d.json"] > 0
