#!/usr/bin/env python3
"""Print the SHA-256 of every output of a fixed list of CLI commands.

Each command runs in-process through ``qubitcert.cli.main``, in its own copy
of a fresh directory that holds a small record ``rec.json``, a config file
``cfg.json``, a copy of it named ``II-0`` and an empty directory ``a-dir``.
For each command one line gives its argv, its exit code, and the SHA-256 of
its stdout, of its stderr and of each file it wrote.  Run it on two
checkouts and compare: identical output means that every listed command
prints, exits and writes byte-identically on both.

    PYTHONPATH=src python scripts/output_digests.py > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import shutil
import tempfile
from pathlib import Path

from qubitcert.cli import main as cli_main
from qubitcert.configs import BUILTIN_IDS

SMALL = ["--jobs", "4", "--shots", "1000", "--reps", "2"]
NOISE = [
    ["--leak-lambda", "0.1"],
    ["--leak-lambda", "0.1", "--leak-mu", "0.5"],
    ["--readout-e0", "0.02"],
    ["--readout-e1", "0.03"],
    ["--coherent-leak", "0.2"],
    ["--drift-eps", "0.02"],
    ["--drift-eps", "0.02", "--drift-mode", "angle-jitter"],
    ["--drift-eps", "0.02", "--drift-mode", "column-mix"],
]
AUDIT = ["audit-drift", "--config", "II-0", "--trials", "20", "--jobs", "5"]
#: every output flag: (argv before it, the flag)
OUTPUTS = [
    (["gen-config", "II-0"], "--out"),
    (["simulate", "--config", "II-0", "--jobs", "2", "--shots", "100"], "--out"),
    (["analyze", "rec.json"], "--out"),
    (["analyze", "rec.json"], "--svg"),
    (["audit-drift", "--config", "II-0", "--drift-eps", "0.01", "--trials", "2"], "--out"),
    (["optimize", "--dim", "2", "--restarts", "1"], "--out"),
]
SUBCOMMANDS = ["gen-config", "simulate", "analyze", "audit-drift", "optimize"]

COMMANDS = [
    *(["gen-config", cid] for cid in BUILTIN_IDS),
    ["gen-config", "--config", "cfg.json", "--out", "canon.json"],
    ["simulate", "--config", "II-0", *SMALL],
    ["simulate", "--config", "cfg.json", *SMALL, "--out", "sim.json"],
    *(["simulate", "--config", "II-0", *SMALL, *flags, "--out", "sim.json"] for flags in NOISE),
    ["analyze", "rec.json"],
    ["analyze", "rec.json", "--out", "scatter.csv", "--svg", "scatter.svg"],
    *(
        [*AUDIT, "--drift-eps", eps, "--drift-mode", mode, "--out", "audit.csv"]
        for eps in ("0.01", "0.05")
        for mode in ("both", "angle-jitter", "column-mix")
    ),
    ["optimize", "--dim", "3", "--field", "real", "--restarts", "4", "--out", "search.json"],
    ["optimize", "--dim", "4", "--field", "complex", "--restarts", "2", "--out", "search.json"],
    # a built-in id wins over the file II-0, so the output may overwrite that file
    ["simulate", "--config", "II-0", "--jobs", "2", "--shots", "100", "--out", "II-0"],
    ["audit-drift", "--config", "II-0", "--drift-eps", "0.02", "--trials", "2", "--out", "II-0"],
    # one bad output path each: a missing directory, a file's child, a directory, empty
    *(
        [*argv, flag, out]
        for argv, flag in OUTPUTS
        for out in ("missing/x", "cfg.json/x", "a-dir", "")
    ),
    # one output that names an input or another output each
    ["simulate", "--config", "cfg.json", "--jobs", "2", "--out", "cfg.json"],
    ["audit-drift", "--config", "cfg.json", "--drift-eps", "0.01", "--trials", "2",
     "--out", "a-dir/../cfg.json"],
    ["analyze", "rec.json", "--out", "rec.json"],
    ["analyze", "rec.json", "--svg", "./rec.json"],
    ["analyze", "rec.json", "--out", "scatter", "--svg", "a-dir/../scatter"],
    # usage
    [],
    ["--help"],
    *([cmd, "--help"] for cmd in SUBCOMMANDS),
    ["simulate", "--config", "II-0", "--drift-eps", "0.02", "--drift-mode", "worst"],
    ["audit-drift", "--config", "II-0", "--drift-eps", "0.02", "--drift-mode", "worst"],
    ["simulate", "--config", "II-0", "--drift-mode", "column-mix"],
    ["simulate", "--config", "missing.json"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): _sha(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _run(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _digest(argv: list[str], before: dict[str, str]) -> str:
    """Run ``argv`` in the working directory; its digest line."""
    code, out, err = _run(argv)
    written = {k: v for k, v in _files(Path.cwd()).items() if before.get(k) != v}
    files = "".join(f" | {name} {sha}" for name, sha in written.items())
    return f"{shlex.join(argv)} | exit {code} | stdout {_sha(out)} | stderr {_sha(err)}{files}"


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp, "fixture")
        fixture.mkdir()
        (fixture / "a-dir").mkdir()
        os.chdir(fixture)
        for argv in (
            ["gen-config", "II-0", "--out", "cfg.json"],
            ["simulate", "--config", "II-0", *SMALL, "--out", "rec.json"],
        ):
            print(_digest(argv, _files(fixture)))
        shutil.copy(fixture / "cfg.json", fixture / "II-0")
        before = _files(fixture)
        for i, argv in enumerate(COMMANDS):
            os.chdir(shutil.copytree(fixture, Path(tmp, str(i))))
            print(_digest(argv, before))
        os.chdir(tmp)


if __name__ == "__main__":
    main()
