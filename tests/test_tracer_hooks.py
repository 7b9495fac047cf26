"""perfbench's tracer reads hopfkit from outside: it wraps the module functions
and its hooks read the dense Matrix given to linalg.rank/nullspace and returned
by ydnichols.symmetrizer.  This runs the tracer on two cheap commands, so a
change under src/ that breaks those hooks fails here.  Nothing under perfbench/
is changed."""

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
