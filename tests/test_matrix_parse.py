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

A regular file's parsed matrix is kept in a cache keyed by the file's
bytes, so a later load of the same bytes parses nothing.  The
``fresh_cache`` fixture of ``conftest.py`` gives each test its own
cache; a test that counts the forks of more than one load asks it for a
new cache before each load.
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
def test_load_matrix_in_parts_builds_the_same_space(tmp_path, monkeypatch, forks, fresh_cache, cpus):
    n = 9
    matrix, weights = write_space(tmp_path, [",".join(r) for r in line_metric(n)], n)
    one = load_matrix(str(matrix), str(weights))
    assert not forks
    use_cpus(monkeypatch, cpus)
    fresh_cache()
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


def failure(matrix, weights, capsys, fresh_cache) -> tuple:
    """The error ``load_matrix`` raises, and the CLI's exit code and
    output, on these files, each load from a new cache."""
    fresh_cache()
    with pytest.raises(RectilibError) as info:
        load_matrix(str(matrix), str(weights))
    capsys.readouterr()
    fresh_cache()
    code = main(["gen", "--matrix", str(matrix), "--weights", str(weights)])
    return type(info.value), str(info.value), code, capsys.readouterr()


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("name", list(BREAKS))
def test_a_later_part_failing_gives_the_error_of_one_parse(
    tmp_path, monkeypatch, capsys, forks, fresh_cache, name, cpus
):
    """The fault sits in the last line, so in the last part, or in the
    first part's every row; the error, the exit code and the output are
    those of the one parse, whose row numbers count the whole file."""
    n = 9
    lines = BREAKS[name]([",".join(r) for r in line_metric(n)])
    matrix, weights = write_space(tmp_path, lines, n)
    expected = failure(matrix, weights, capsys, fresh_cache)
    assert not forks and expected[2] in (1, 2)
    use_cpus(monkeypatch, cpus)
    assert failure(matrix, weights, capsys, fresh_cache) == expected
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
def test_a_killed_child_falls_back_to_one_parse(tmp_path, monkeypatch, forks, fresh_cache, module, name):
    """A child killed by a signal once it has parsed its part, or once it
    has been sent its offset, leaves the load to one parse: the same
    space, and no child left."""
    n = 9
    matrix, weights = write_space(tmp_path, [",".join(r) for r in line_metric(n)], n)
    expected = load_matrix(str(matrix), str(weights))._matrix.tobytes()
    use_cpus(monkeypatch, 3)
    die_in_child(monkeypatch, module, name)
    fresh_cache()
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


# -- the cache of parsed matrices ----------------------------------------


@pytest.fixture
def loadtxt_calls(monkeypatch) -> list:
    """``np.loadtxt``, counted: one entry per call in this process."""
    calls: list = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


def float_metric(n: int, seed: int = 0) -> list[str]:
    """Lines of the distances of ``n`` random points on a line, each with
    17 digits: a valid matrix whose every bit must survive the cache."""
    x = np.random.default_rng(seed).random(n)
    return [",".join("%.17g" % abs(a - b) for b in x) for a in x]


def entries(folder) -> set:
    return set(folder.glob("*.npy")) if folder.is_dir() else set()


def space_bytes(space) -> tuple:
    return space._matrix.tobytes(), space.ids, space.weights.tobytes()


def test_a_warm_load_gives_the_cold_load_bit_for_bit(tmp_path, monkeypatch, forks, fresh_cache):
    """The second load of the same bytes reads the cache: no
    ``np.loadtxt``, no fork, and the same bits, ids and weights in a
    read-only matrix."""
    folder = fresh_cache()
    use_cpus(monkeypatch, 2)
    matrix, weights = write_space(tmp_path, float_metric(9), 9)
    cold = load_matrix(str(matrix), str(weights))
    assert len(forks) == 1 and len(entries(folder)) == 1
    assert folder.stat().st_mode & 0o777 == 0o700

    def no_parse(*args, **kwargs):
        raise AssertionError("a warm load parsed the file")

    monkeypatch.setattr(np, "loadtxt", no_parse)
    warm = load_matrix(str(matrix), str(weights))
    assert len(forks) == 1
    assert space_bytes(warm) == space_bytes(cold)
    assert not warm._matrix.flags.writeable
    with pytest.raises(ValueError):
        warm._matrix[0, 1] = 2.0


def test_a_byte_changed_under_the_same_size_and_mtime_is_a_miss(tmp_path, loadtxt_calls):
    """The key is the bytes, not the size and mtime: a file edited in
    place, with its mtime put back, is parsed again, and its new entry
    is checked like any other."""
    matrix, weights = write_space(tmp_path, [",".join(r) for r in line_metric(4)], 4)
    load_matrix(str(matrix), str(weights))
    before = matrix.stat()
    text = matrix.read_bytes()
    assert text.startswith(b"0,1,")
    matrix.write_bytes(b"0,5," + text[4:])  # d(0, 1) = 5, d(1, 0) = 1
    os.utime(matrix, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = matrix.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    with pytest.raises(RectilibError, match=r"symmetric: d\(0, 1\) = 5.0, d\(1, 0\) = 1.0$"):
        load_matrix(str(matrix), str(weights))
    assert len(loadtxt_calls) == 2


def test_a_file_that_changes_while_it_is_parsed_is_not_kept(tmp_path, monkeypatch, fresh_cache):
    """The parse reads the file again after the hash, so a file whose size
    or mtime moved in between is loaded but not kept under the old key."""
    folder = fresh_cache()
    matrix, weights = write_space(tmp_path, float_metric(5), 5)
    loadtxt = np.loadtxt

    def touched(*args, **kwargs):
        os.utime(matrix, ns=(0, 10**9))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", touched)
    load_matrix(str(matrix), str(weights))
    assert not entries(folder)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    load_matrix(str(matrix), str(weights))
    assert len(entries(folder)) == 1


BAD_ENTRIES = {
    "truncated": lambda entry, m: entry.write_bytes(entry.read_bytes()[:-10]),
    "garbage": lambda entry, m: entry.write_bytes(b"not an array\n" * 10),
    "float32": lambda entry, m: np.save(entry, m.astype(np.float32)),
    "big-endian": lambda entry, m: np.save(entry, m.astype(">f8")),
    "1-D": lambda entry, m: np.save(entry, m.ravel()),
    "pickled objects": lambda entry, m: np.save(entry, np.array([m, None], dtype=object), allow_pickle=True),
}


@pytest.mark.parametrize("kind", list(BAD_ENTRIES))
def test_a_bad_entry_is_a_miss_and_is_rewritten(tmp_path, fresh_cache, loadtxt_calls, kind):
    """An entry that is not a 2-D native float64 ``.npy`` is never an
    error: the file is parsed again and the entry written anew."""
    folder = fresh_cache()
    matrix, weights = write_space(tmp_path, float_metric(6), 6)
    cold = load_matrix(str(matrix), str(weights))
    (entry,) = entries(folder)
    BAD_ENTRIES[kind](entry, np.array(cold._matrix))
    again = load_matrix(str(matrix), str(weights))
    assert len(loadtxt_calls) == 2
    assert space_bytes(again) == space_bytes(cold)
    kept = np.load(entry, allow_pickle=False)
    assert kept.dtype == np.float64 and kept.tobytes() == cold._matrix.tobytes()
    load_matrix(str(matrix), str(weights))
    assert len(loadtxt_calls) == 2


def test_a_fifo_is_parsed_and_never_kept(tmp_path, fresh_cache, loadtxt_calls):
    """A pipe cannot be read twice, so it is not hashed: it is parsed as
    without a cache, and nothing is written."""
    folder = fresh_cache()
    matrix, weights = write_space(tmp_path, float_metric(5), 5)
    fifo = tmp_path / "m.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as out:
            out.write(matrix.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        piped = load_matrix(str(fifo), str(weights))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert not folder.exists()
    assert space_bytes(piped) == space_bytes(load_matrix(str(matrix), str(weights)))


def test_an_unwritable_cache_loads_as_without_one(tmp_path, monkeypatch, loadtxt_calls):
    """``XDG_CACHE_HOME`` names a regular file: every load parses, none
    fails, and nothing is written anywhere."""
    blocker = tmp_path / "a file"
    blocker.write_text("not a folder\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    matrix, weights = write_space(tmp_path, float_metric(5), 5)
    first = load_matrix(str(matrix), str(weights))
    second = load_matrix(str(matrix), str(weights))
    assert len(loadtxt_calls) == 2
    assert space_bytes(first) == space_bytes(second)
    assert blocker.read_text() == "not a folder\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a file", "m.csv", "w.csv"]


def test_a_file_that_fails_to_parse_is_never_kept(tmp_path, fresh_cache, loadtxt_calls):
    """So every load of it parses, and raises the same error."""
    folder = fresh_cache()
    lines = BREAKS["semicolon"]([",".join(r) for r in line_metric(4)])
    matrix, weights = write_space(tmp_path, lines, 4)
    errors = []
    for _ in range(2):
        with pytest.raises(RectilibError) as info:
            load_matrix(str(matrix), str(weights))
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] and "0;1" in errors[0][1]
    assert len(loadtxt_calls) == 2
    assert not entries(folder)


def test_the_cache_keeps_the_four_most_recently_used(tmp_path, fresh_cache, loadtxt_calls):
    """Five matrices, the first loaded again before the fifth: four
    entries remain, and the second matrix's, the least recently used,
    is gone, so it parses again."""
    folder = fresh_cache()
    files, names = [], []
    for k in range(5):
        sub = tmp_path / str(k)
        sub.mkdir()
        files.append([str(p) for p in write_space(sub, float_metric(5, seed=k), 5)])
    for k in (0, 1, 2, 3):
        before = entries(folder)
        load_matrix(*files[k])
        (new,) = entries(folder) - before
        names.append(new)
    load_matrix(*files[0])
    assert len(loadtxt_calls) == 4
    load_matrix(*files[4])
    assert len(entries(folder)) == 4
    assert names[1] not in entries(folder)
    assert {names[0], names[2], names[3]} <= entries(folder)
    load_matrix(*files[1])
    assert len(loadtxt_calls) == 6


HASHLIB_GUARD = """
import sys
from rectilib.pipeline import RunConfig, run_pipeline
from rectilib.space import load_matrix

run_pipeline(RunConfig(kind="interval", resolution=200))
assert "hashlib" not in sys.modules, "a generator run imported hashlib"
load_matrix(*sys.argv[1:])
assert "hashlib" in sys.modules
"""


def test_only_a_matrix_load_imports_hashlib(tmp_path):
    """In a fresh interpreter a generator run imports no ``hashlib``; the
    cache key of a matrix load does."""
    matrix, weights = write_space(tmp_path, float_metric(5), 5)
    src = os.path.dirname(os.path.dirname(rectilib.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", HASHLIB_GUARD, str(matrix), str(weights)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
