"""Parsing a distance-matrix CSV in parts.

``load_matrix`` parses a large matrix in byte ranges cut at line ends,
one per usable CPU: the first in the calling process, each other in a
forked child, all into one shared array.  The tests patch
``_PAIR_BUDGET`` small and ``os.sched_getaffinity`` to a few CPUs, so
that small files fork on any machine.  The parts give one
``np.loadtxt`` over the whole file bit for bit; a failing part, a child
that dies, or rows that do not add up fall back to that one parse, so
every error reads as it does without parts; and no child outlives the
call.
"""

import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

import rectilib
import rectilib.space as space_module
from rectilib.cli import main
from rectilib.errors import RectilibError
from rectilib.space import load_matrix

# values whose text takes every path of the float parser: subnormals,
# both zeros, the extremes, and 17-digit mantissas
ODD = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e-310, 1.7976931348623157e308,
       0.1, 1 / 3, 2.5, 123456789.125, 6.02214076e23, 1e-5]


@pytest.fixture
def forks(monkeypatch) -> list:
    """``os.fork``, counted: one entry per call."""
    calls: list = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def use_cpus(monkeypatch, count: int, budget: int = 1) -> None:
    """Make ``count`` CPUs usable and the pair budget ``budget``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(space_module, "_PAIR_BUDGET", budget)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def whole(path) -> np.ndarray:
    """The matrix as one ``np.loadtxt`` over the whole file reads it."""
    with open(path) as fh:
        return np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)


def in_parts(path, n: int) -> np.ndarray | None:
    with open(path) as fh:
        return space_module._parse_in_parts(fh, n)


def odd_rows(n: int) -> list[list[str]]:
    rng = np.random.default_rng(n)
    return [["%.17g" % v for v in rng.choice(ODD, n)] for _ in range(n)]


def line_metric(n: int) -> list[list[str]]:
    """The distances of points ``0..n-1`` on a line: a valid matrix."""
    return [[str(abs(i - j)) for j in range(n)] for i in range(n)]


def write(path, lines: list[str], end: str = "\n", last_end: bool = True) -> None:
    text = end.join(lines) + (end if last_end else "")
    path.write_bytes(text.encode())


def write_space(tmp_path, lines: list[str], n: int):
    matrix, weights = tmp_path / "m.csv", tmp_path / "w.csv"
    write(matrix, lines)
    weights.write_text("id,weight\n" + "".join(f"{i},1.0\n" for i in range(n)))
    return matrix, weights


LAYOUTS = {
    "lf": lambda rows: ([",".join(r) for r in rows], {}),
    "crlf": lambda rows: ([",".join(r) for r in rows], {"end": "\r\n"}),
    "no final newline": lambda rows: ([",".join(r) for r in rows], {"last_end": False}),
    "crlf, no final newline": lambda rows: ([",".join(r) for r in rows], {"end": "\r\n", "last_end": False}),
    "spaces around tokens": lambda rows: ([" , ".join(f" {v}" for v in r) + "  " for r in rows], {}),
    # the last line is over a third of the file, so with three parts the
    # second cut lands inside it
    "long last line": lambda rows: ([",".join(r) for r in rows[:-1]]
                                    + [",".join(" " * 80 + v for v in rows[-1])], {}),
}


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_parts_give_one_loadtxt_bit_for_bit(tmp_path, monkeypatch, forks, layout, cpus):
    """A block of blank and ``#`` lines, put before every line in turn,
    falls just before, at and just after each cut in some of the files;
    every file parses in parts to the bits one ``np.loadtxt`` gives."""
    use_cpus(monkeypatch, cpus)
    n = 7
    lines, style = LAYOUTS[layout](odd_rows(n))
    path = tmp_path / "m.csv"
    for at in range(len(lines) + 1):
        write(path, lines[:at] + ["", "# a comment, 1,2", "#", ""] + lines[at:], **style)
        before = len(forks)
        parsed = in_parts(path, n)
        assert parsed is not None, at
        assert len(forks) > before
        expected = whole(path)
        assert parsed.shape == expected.shape == (n, n)
        assert parsed.tobytes() == expected.tobytes(), at
        assert_no_child_left()


def test_a_cut_inside_the_last_line_drops_its_part(tmp_path, monkeypatch, forks):
    """Three CPUs, but the second cut lands inside the last line: two
    parts, one fork."""
    use_cpus(monkeypatch, 3)
    lines, style = LAYOUTS["long last line"](odd_rows(7))
    path = tmp_path / "m.csv"
    write(path, lines, **style)
    assert len(lines[-1]) > path.stat().st_size / 3
    assert in_parts(path, 7).tobytes() == whole(path).tobytes()
    assert len(forks) == 1
    assert_no_child_left()


def test_a_second_thread_keeps_the_parse_whole(tmp_path, monkeypatch, forks):
    """A fork copies only the forking thread, so a lock another thread
    holds would stay held in the child: no fork while a thread runs."""
    use_cpus(monkeypatch, 2)
    path = tmp_path / "m.csv"
    write(path, [",".join(r) for r in odd_rows(7)])
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert in_parts(path, 7) is None
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and not forks
    assert in_parts(path, 7).tobytes() == whole(path).tobytes()
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_load_matrix_in_parts_builds_the_same_space(tmp_path, monkeypatch, forks, cpus):
    n = 9
    matrix, weights = write_space(tmp_path, [",".join(r) for r in line_metric(n)], n)
    one = load_matrix(str(matrix), str(weights))
    assert not forks
    use_cpus(monkeypatch, cpus)
    parts = load_matrix(str(matrix), str(weights))
    assert len(forks) == cpus - 1
    assert parts._matrix.tobytes() == one._matrix.tobytes()
    assert not parts._matrix.flags.writeable
    assert_no_child_left()


def bad_token(token):
    def put(lines):
        last = lines[-1].split(",")
        return lines[:-1] + [",".join([token] + last[1:])]
    return put


BREAKS = {
    "semicolon": bad_token("0;1"),
    "quoted": bad_token('"1"'),
    "underscore": bad_token("1_0"),
    "ragged row": lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]],
    # with three parts, the first part's rows are all one field short
    "narrow first rows": lambda lines: [x.rsplit(",", 1)[0] for x in lines[:4]] + lines[4:],
    "a row too many": lambda lines: lines + [lines[-1]],
    "a row too few": lambda lines: lines[:-1],
}


def failure(matrix, weights, capsys) -> tuple:
    """The error ``load_matrix`` raises, and the CLI's exit code and
    output, on these files."""
    with pytest.raises(RectilibError) as info:
        load_matrix(str(matrix), str(weights))
    capsys.readouterr()
    code = main(["gen", "--matrix", str(matrix), "--weights", str(weights)])
    return type(info.value), str(info.value), code, capsys.readouterr()


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("name", list(BREAKS))
def test_a_later_part_failing_gives_the_error_of_one_parse(tmp_path, monkeypatch, capsys, forks, name, cpus):
    """The fault sits in the last line, so in the last part, or in the
    first part's every row; the error, the exit code and the output are
    those of the one parse, whose row numbers count the whole file."""
    n = 9
    lines = BREAKS[name]([",".join(r) for r in line_metric(n)])
    matrix, weights = write_space(tmp_path, lines, n)
    expected = failure(matrix, weights, capsys)
    assert not forks and expected[2] in (1, 2)
    use_cpus(monkeypatch, cpus)
    assert failure(matrix, weights, capsys) == expected
    assert len(forks) == 2 * (cpus - 1)
    assert_no_child_left()


def die_in_child(monkeypatch, module, name: str) -> None:
    """Make ``module.name``, once it returns in a child, kill the child
    with SIGKILL."""
    parent, original = os.getpid(), getattr(module, name)

    def dying(*args):
        result = original(*args)
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return result

    monkeypatch.setattr(module, name, dying)


@pytest.mark.parametrize(
    "module, name", [(space_module, "_load_part"), (os, "read")], ids=["before its count", "before its rows"]
)
def test_a_killed_child_falls_back_to_one_parse(tmp_path, monkeypatch, forks, module, name):
    """A child killed by a signal once it has parsed its part, or once it
    has been sent its offset, leaves the load to one parse: the same
    space, and no child left."""
    n = 9
    matrix, weights = write_space(tmp_path, [",".join(r) for r in line_metric(n)], n)
    expected = load_matrix(str(matrix), str(weights))._matrix.tobytes()
    use_cpus(monkeypatch, 3)
    die_in_child(monkeypatch, module, name)
    assert load_matrix(str(matrix), str(weights))._matrix.tobytes() == expected
    assert len(forks) == 2
    assert_no_child_left()


@pytest.fixture(scope="module")
def line_files(tmp_path_factory):
    """Matrix and weights files of 500 and 2000 points on a line."""
    folder = tmp_path_factory.mktemp("line")
    files = {}
    for n in (500, 2000):
        matrix, weights = folder / f"m{n}.csv", folder / f"w{n}.csv"
        idx = np.arange(n)
        np.savetxt(matrix, np.abs(idx[:, None] - idx), fmt="%d", delimiter=",")
        weights.write_text("id,weight\n" + "".join(f"{i},1.0\n" for i in range(n)))
        files[n] = (str(matrix), str(weights))
    return files


@pytest.mark.parametrize("n, cpus, most", [(2000, 2, 1), (2000, 64, 4_000_000 // (1 << 18) - 1), (500, 64, 0)])
def test_the_input_bounds_the_processes(monkeypatch, forks, line_files, n, cpus, most):
    """Parts are at most ``n * n // _PAIR_BUDGET``: 2000 points fork once
    on two CPUs and 14 times on 64 (patched, not run on 64), 500 points
    never."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    space = load_matrix(*line_files[n])
    assert len(forks) == most
    idx = np.arange(n)
    assert np.array_equal(space._matrix, np.abs(idx[:, None] - idx))
    assert_no_child_left()


@pytest.mark.parametrize("text", ["", "\n\n", "# no rows\n\n#\n"], ids=["empty", "blank", "comments"])
def test_a_matrix_with_no_data_row_is_an_input_error(tmp_path, text):
    """No warning from numpy, no shape error: one line naming the file."""
    matrix, weights = tmp_path / "m.csv", tmp_path / "w.csv"
    matrix.write_text(text)
    weights.write_text("id,weight\n0,1.0\n1,1.0\n")
    src = os.path.dirname(os.path.dirname(rectilib.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from rectilib.cli import main; sys.exit(main())",
         "gen", "--matrix", str(matrix), "--weights", str(weights)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: stage load: {matrix}: no data rows\n")
