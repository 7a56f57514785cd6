"""Each command imports only the layers it runs, and lazy names still resolve."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import peierls
import peierls.cli as cli

SRC = Path(__file__).resolve().parent.parent / "src"
# what every pipeline command loads: the package, cli and the layers below optimize
PIPELINE = {"peierls", "peierls.cli", "peierls.digraph", "peierls.optimizer"}
PIPELINE |= {"peierls.potential", "peierls.shift_space"}
PRINT_LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))"

BARRIER = ["barrier", "--max-letter", "6"]
VERIFY = ["subaction", "verify", "--max-letter", "6", "--values", "values.csv"]
COMPARE = ["subaction", "compare", "--max-letter", "6"]
COMPARE += ["--values", "values.csv", "--values-b", "values.csv"]
CONVERGE = ["converge", "--stages", "6,12"]
DEMO = ["demo", "renewal", "--stages", "6,12", "--scan-to", "12", "--no-cache"]


def _loaded_after(code: str, cwd: Path, root: str | tuple[str, ...] = "peierls") -> set[str]:
    """The modules under ``root`` (a name or several) a fresh interpreter holds after
    running ``code``."""
    roots = (root,) if isinstance(root, str) else root
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{PRINT_LOADED.format(roots=roots)}"],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Renewal (2,0) inputs in a working directory that also holds values.csv."""
    monkeypatch.chdir(tmp_path)
    shift = {"kind": "renewal", "renewal": {"a": 2, "b": 0}}
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    (tmp_path / "pot.json").write_text(json.dumps({"depth": 1, "tail": {"kind": "linear", "c": 1}}))
    (tmp_path / "values.csv").write_text("".join(f"{j},{-float(j)}\n" for j in range(7)))
    return ["--shift", "shift.json", "--potential", "pot.json"]


def test_import_peierls_loads_no_layer(tmp_path):
    assert _loaded_after("import peierls", tmp_path) == {"peierls"}


def test_import_peierls_cli_loads_no_layer(tmp_path):
    roots = ("peierls", "json", "argparse")  # the last two load only for what they print
    assert _loaded_after("import peierls.cli", tmp_path, root=roots) == {"peierls", "peierls.cli"}


def test_shift_check_loads_only_the_shift_layer(inputs, tmp_path):
    argv = ["shift", "check", "--shift", "shift.json", "--out", "report.out"]
    code = f"import peierls.cli\nassert peierls.cli.run({argv!r}) == 0"
    expected = {"peierls", "peierls.cli", "peierls.digraph", "peierls.shift_space"}
    expected.add("peierls.countable")  # BP and BI are decided over the whole alphabet
    assert _loaded_after(code, tmp_path) == expected


@pytest.mark.parametrize(
    "argv, exit_code", [(["--help"], 0), (["barrier", "--help"], 0), (["barrier"], 2)]
)
def test_help_and_usage_errors_load_no_layer(tmp_path, argv, exit_code):
    code = (
        "import io, peierls.cli\n"
        "sys.stdout = io.StringIO()  # help text must not mix with the module list\n"
        f"try: peierls.cli.run({argv!r})\n"
        f"except SystemExit as exc: assert exc.code == {exit_code}\n"
        "else: raise AssertionError('run returned')\n"
        "sys.stdout = sys.__stdout__"
    )
    assert _loaded_after(code, tmp_path) == {"peierls", "peierls.cli"}


# renewal inputs: each command finds its core with countable's covering search
@pytest.mark.parametrize(
    "command, layers",
    [
        (["optimize", "--max-letter", "6"], {"peierls.countable"}),
        (BARRIER, {"peierls.barrier", "peierls.countable"}),
        (VERIFY, {"peierls.subaction", "peierls.countable"}),
        (COMPARE, {"peierls.subaction", "peierls.countable"}),
        (CONVERGE, {"peierls.barrier", "peierls.countable", "peierls.truncation"}),
        (DEMO, {"peierls.barrier", "peierls.countable", "peierls.truncation"}),
    ],
)
def test_each_command_loads_only_its_layers(inputs, tmp_path, command, layers):
    # demo builds its own renewal inputs and takes no --shift/--potential
    argv = command + (inputs if command is not DEMO else []) + ["--out", "report.out"]
    code = f"import peierls.cli\nassert peierls.cli.run({argv!r}) == 0"
    assert _loaded_after(code, tmp_path) == PIPELINE | layers


@pytest.mark.parametrize(
    "command, layers",
    [
        (["barrier", "--format", "csv"], set()),
        (["subaction", "verify", "--values", "values.csv", "--assert"], {"peierls.subaction"}),
        (["barrier"], {"peierls.barrier", "peierls.countable"}),
    ],
)
def test_finite_shift_commands_load_no_countable_layer_they_skip(tmp_path, command, layers):
    # the benchmark's pipeline: a barrier CSV on a finite shift compiles no bound report,
    # covering search or calibration, and verifying it compiles neither of the last two
    shift = {"kind": "full", "alphabet_size": 3}
    pot = {"depth": 1, "tail": {"kind": "linear", "c": 1}, "table": [{"word": [0], "value": 0.0}]}
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    (tmp_path / "pot.json").write_text(json.dumps(pot))
    (tmp_path / "values.csv").write_text("0,0.0\n1,0.0\n2,0.0\n")  # its barrier
    argv = command + ["--shift", "shift.json", "--potential", "pot.json", "--out", "report.out"]
    code = f"import peierls.cli\nassert peierls.cli.run({argv!r}) == 0"
    assert _loaded_after(code, tmp_path) == PIPELINE | layers


@pytest.mark.parametrize(
    "command", [["optimize", "--max-letter", "6"], BARRIER, VERIFY, COMPARE, CONVERGE, DEMO]
)
def test_no_command_loads_dataclasses_or_inspect(inputs, tmp_path, command):
    # records are NamedTuples: dataclasses (and the inspect it pulls in) cost ~20 ms a run;
    # a well-formed line needs no argparse, nor the gettext and locale its first parser loads
    argv = command + (inputs if command is not DEMO else []) + ["--out", "report.out"]
    code = f"import peierls.cli\nassert peierls.cli.run({argv!r}) == 0"
    for root in ("dataclasses", "inspect", "argparse", "gettext", "locale"):
        assert _loaded_after(code, tmp_path, root=root) == set()


@pytest.mark.parametrize("command", ["converge", "demo"])
@pytest.mark.parametrize("rule", [(1, 1), (2, 0)])
def test_converge_and_demo_load_no_statistics_or_hashlib(inputs, tmp_path, command, rule):
    # statistics loads decimal and fractions for the probe's slope fit, which (2, 0) makes;
    # hashlib loads OpenSSL for a cache file name.  Each command runs cold, then warm.
    shift = {"kind": "renewal", "renewal": {"a": rule[0], "b": rule[1]}}
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    argv = CONVERGE + ["--scan-to", "12"] + inputs + ["--out", "report.out"]
    if command == "demo":  # unlike DEMO, with the cache
        argv = ["demo", "renewal", "--a", str(rule[0]), "--b", str(rule[1]), "--stages", "6,12"]
        argv += ["--scan-to", "12", "--out", "report.out"]
    code = f"import peierls.cli\nfor _ in 'cold', 'warm': assert peierls.cli.run({argv!r}) == 0"
    roots = ("statistics", "decimal", "fractions", "hashlib", "_hashlib")
    assert _loaded_after(code, tmp_path, root=roots) == set()
    assert len(os.listdir(os.environ["PEIERLS_CACHE_DIR"])) == 2


def _wrap_sites() -> list[tuple[str, str]]:
    """The (module, attribute) pairs perfbench/spans.py replaces, read from its source."""
    tree = ast.parse((SRC.parent / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAP_SITES"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no WRAP_SITES")


def test_every_traced_site_resolves_on_a_fresh_import(tmp_path):
    # the benchmark's traced replay wraps these attributes; each must exist
    sites = _wrap_sites()
    code = f"import importlib\nfor m, a in {sites!r}: getattr(importlib.import_module(m), a)"
    loaded = _loaded_after(code, tmp_path)
    assert {module for module, _ in sites} <= loaded


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from peierls import *", namespace)
    for name in peierls.__all__:
        assert getattr(peierls, name) is namespace[name]
    assert set(peierls.__all__) <= set(dir(peierls))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        peierls.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name
    with pytest.raises(ImportError):
        exec("from peierls import no_such_name", {})


def test_cli_takes_only_layer_names_from_the_package():
    with pytest.raises(AttributeError, match="^module 'peierls.cli' has no attribute 'no_such_"):
        cli.no_such_name
    for name in "__all__", "__path__":  # the package has both
        assert hasattr(peierls, name)
        with pytest.raises(AttributeError):
            getattr(cli, name)


def test_a_public_name_imports_its_layer_as_an_import_statement_does(tmp_path):
    # -X importtime logs an import statement's module, and import_module's not at all
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import peierls; peierls.optimize"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "peierls.optimizer" in {line.split("|")[-1].strip() for line in done.stderr.splitlines()}


@pytest.mark.parametrize(
    "name, command",
    [
        ("compute_barrier", BARRIER),
        ("verify_subaction", VERIFY),
        ("build_family", CONVERGE),
        ("optimize", ["optimize", "--max-letter", "6"]),
        ("parse_potential", CONVERGE),
    ],
)
def test_a_layer_replaced_on_cli_is_the_one_that_runs(inputs, monkeypatch, capsys, name, command):
    # perfbench/spans.py traces a layer by replacing cli's attribute this way
    original = getattr(cli, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    assert cli.run(command + inputs) == 0
    assert calls == [name]
    assert capsys.readouterr().out
