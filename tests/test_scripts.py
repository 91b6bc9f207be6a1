"""Each script in scripts/ runs as a program and prints its recorded output.

The scripts import only public names of ``seifert`` and ``seifert.cli``, so
a removed name fails here rather than when someone next runs the script.
They end through ``seifert.cli.run``, so their exit codes are ``seifert``'s.
The expected stdout of each run is in tests/golden/.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ("lens_classification_table.py", ["--max-p", "9", "--bound", "6"], "lens_classification_table.txt"),
    ("elliptic_degree_scan.py", ["--max-order", "3"], "elliptic_degree_scan.txt"),
    ("parabolic_self_covers.py", [], "parabolic_self_covers.txt"),
]


def run_script(script, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        timeout=60,
    )


@pytest.mark.parametrize("script, args, golden", RUNS, ids=[s for s, _, _ in RUNS])
def test_script_output(script, args, golden):
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (ROOT / "tests" / "golden" / golden).read_bytes()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--max-p", "-1"], "max_p must be non-negative"),
        (["--bound", "0"], "bound must be a positive integer"),
        (["--bound", "201"], "bound must be at most 200"),
    ],
)
def test_table_refuses_bad_arguments(args, message):
    # refused before the header: exit 2, one error line, nothing on stdout
    proc = run_script("lens_classification_table.py", *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", f"error: {message}\n".encode())


def test_elliptic_scan_with_no_hits():
    # --b-range 0 finds no positive degree: the largest is reported as none
    proc = run_script("elliptic_degree_scan.py", "--max-order", "3", "--b-range", "0")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode().splitlines() == [
        "scanned 17 fiberings; largest positive covering degree: none",
        "",
        "fiberings that cover with degree 2:",
    ]


def test_elliptic_scan_refuses_negative_b_range():
    proc = run_script("elliptic_degree_scan.py", "--b-range", "-3")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode().splitlines()[-1].endswith("error: --b-range must be non-negative")


class TestClosedStdout:
    """A reader that closes a script's pipe early ends the script with exit
    141 (128 + SIGPIPE) and an empty stderr, as ``seifert`` ends, whether the
    write fails in a ``print`` (unbuffered stdout) or in the final flush."""

    @staticmethod
    def _command(script, *args, unbuffered):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return [sys.executable, str(ROOT / "scripts" / script), *args], env

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_reader_closes_after_first_bytes(self, unbuffered):
        # 219 KB of table, more than a pipe buffer holds
        argv, env = self._command(
            "lens_classification_table.py", "--max-p", "128", "--bound", "4", unbuffered=unbuffered
        )
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (141, b"")

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("script", ["elliptic_degree_scan.py", "parabolic_self_covers.py"])
    def test_reader_closed_before_any_write(self, script, unbuffered):
        # a few hundred bytes fit in a pipe buffer, so the read end closes first
        argv, env = self._command(script, unbuffered=unbuffered)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(argv, env=env, stdout=write, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("script", [s for s, _, _ in RUNS])
def test_script_arguments(script):
    # --help prints usage; an unknown argument exits 2 before any output
    proc = run_script(script, "--help")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"usage: ")
    proc = run_script(script, "--bogus")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode().splitlines()[-1].endswith("unrecognized arguments: --bogus")
