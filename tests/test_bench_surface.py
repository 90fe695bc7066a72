"""The names the traced benchmark binds still exist and restore cleanly.

``bench/tracing.py`` wraps about twenty layer functions by attribute, so
deleting or renaming one of them (``walls.sign_vector``,
``stabcheck.spin``, ``cli.rep_from_doc``, ...) breaks every ``--trace 1``
run.  This builds the layer tracer, runs one traced command, and checks
that uninstalling puts every original object back, and that every
``qs.<name>`` and ``cli.<name>`` the benchmark reads still resolves.
"""

import ast
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

import quiverstab  # noqa: E402
from quiverstab import cli  # noqa: E402


def test_layer_tracer_wraps_and_restores_every_layer(tmp_path, capsys):
    tracer = tracing.layer_tracer()
    assert tracer.patches
    tracer.install()
    try:
        code = cli.main(["walls", "slice", "--type", "A1", "-n", "1",
                         "--out", str(tmp_path / "slice.svg")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert {"walls.render_slice", "geom2d.arrangement_cells"} <= set(tracer.layers)
    for owner, attr, original, _ in tracer.patches:
        assert getattr(owner, attr) is original, (owner, attr)


def test_every_package_name_the_benchmark_reads_exists():
    # bench/ binds the package as ``qs`` and its CLI module as ``cli``
    modules = {"qs": quiverstab, "cli": cli}
    used = {
        (path.name, node.value.id, node.attr)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {("workloads.py", "qs", "submodule_lattice"), ("workloads.py", "cli", "main")} <= used
    missing = [use for use in sorted(used) if not hasattr(modules[use[1]], use[2])]
    assert missing == []
