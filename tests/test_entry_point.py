"""The installed entry point, ``peierls.cli.main``, run as a real process.

``test_cli_golden`` calls ``run`` in-process; these cases start
``python -m peierls.cli`` so that ``main`` and the interpreter's exit are
part of what is checked: the same golden stdout, the same ``--out`` files
and the documented exit codes.  One case runs ``run`` in a ``python -c`` child
instead, to read the freeze count before anything of peierls is imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli_golden import CASES, GOLDEN, INPUTS, RENEWAL

SRC = Path(__file__).resolve().parent.parent / "src"
ENTRY_CASE_NAMES = {"barrier_json", "barrier_csv", "subaction_verify", "converge_cached_twice"}
ENTRY_CASES = [c for c in CASES if c[0] in ENTRY_CASE_NAMES]


UNFROZEN_RUN = (
    "-c",
    "import gc, sys; frozen = gc.get_freeze_count(); from peierls.cli import run; "
    "code = run(sys.argv[1:]); assert gc.get_freeze_count() == frozen, gc.get_freeze_count(); "
    "sys.exit(code)",
)


def _peierls(
    argv: list[str], cwd: Path, entry: tuple[str, ...] = ("-m", "peierls.cli")
) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PEIERLS_CACHE_DIR=str(cwd))
    return subprocess.run(
        [sys.executable, *entry, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.fixture
def workdir(tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("case, commands, written", ENTRY_CASES, ids=[c[0] for c in ENTRY_CASES])
def test_entry_point_output_is_pinned(case, commands, written, workdir):
    out = []
    for argv in commands:
        done = _peierls(argv, workdir)
        assert done.returncode == 0, done.stderr
        out.append(done.stdout)
    assert "".join(out) == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    if written is not None:
        expected = (GOLDEN / f"{case}.{written}").read_text(encoding="utf-8")
        assert (workdir / written).read_text(encoding="utf-8") == expected


def test_entry_point_exits_1_on_a_failed_assert(workdir):
    values = (GOLDEN / "barrier_csv.values.csv").read_text(encoding="utf-8")
    (workdir / "lowered.csv").write_text(values.replace("1,-2.0", "1,-2.5"), encoding="utf-8")
    done = _peierls(
        ["subaction", "verify", *RENEWAL, "--max-letter", "6", "--values", "lowered.csv", "--assert"],
        workdir,
    )
    assert done.returncode == 1, done.stderr
    assert '"is_calibrated": false' in done.stdout


def test_entry_point_exits_2_on_a_missing_input(workdir):
    done = _peierls(["barrier", "--shift", "missing.json", "--potential", "renewal_pot.json"], workdir)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: cannot read missing.json")


def test_entry_point_prints_help_through_argparse(workdir):
    done = _peierls(["barrier", "--help"], workdir)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: peierls barrier")
    assert done.stderr == ""


def test_entry_point_reports_a_bad_value_through_argparse(workdir):
    done = _peierls(["barrier", *RENEWAL, "--max-letter", "x"], workdir)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage: peierls barrier")
    assert done.stderr.endswith(
        "peierls barrier: error: argument --max-letter: invalid int value: 'x'\n"
    )


def test_run_leaves_the_caller_unfrozen(workdir):
    # only main freezes the heap, just before the interpreter exits; the child reads its
    # freeze count before importing peierls (some Pythons start with frozen objects), so
    # a gc.freeze() at import time or inside run fails the check
    done = _peierls(["barrier", *RENEWAL, "--max-letter", "6"], workdir, entry=UNFROZEN_RUN)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "barrier_json.out").read_text(encoding="utf-8")
