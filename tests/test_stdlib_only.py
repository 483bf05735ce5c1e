"""The runtime stays pure standard library: every import in the package
is of mindrec itself or of a standard-library module, and the worker
processes of offline-eval, metrics --sets and export --events cost the
other commands no import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from conftest import write_cli_fixture

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mindrec"


def imported_modules(path):
    """(line, top-level module name) of every import in one source file;
    relative imports read as mindrec."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            name = "mindrec" if node.level else node.module.partition(".")[0]
            yield node.lineno, name


def test_package_imports_only_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [f"{path.name}:{line}: {name}"
               for path in sources for line, name in imported_modules(path)
               if name != "mindrec" and name not in sys.stdlib_module_names]
    assert foreign == []


def test_cli_import_loads_no_worker_modules():
    # Only a command that starts a worker imports multiprocessing: recommend,
    # offline-eval, metrics --sets and export --events with a second CPU.
    # Only a digest loads OpenSSL (_hashlib).
    code = ("import sys, mindrec.cli\n"
            "print(sorted({'multiprocessing', 'pickle', 'socket', '_hashlib'}"
            " & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_offline_eval_without_a_digest_leaves_openssl_unloaded(tmp_path):
    # _hashlib adds about 3.6 MB to every process.  Every node of the
    # fixture carries an ID, and no preset derives a seed.
    corpus, maps, now = write_cli_fixture(tmp_path, n_users=3)
    code = ("import sys\nfrom mindrec import cli\n"
            "status = cli.main(sys.argv[1:])\n"
            "print(status, '_hashlib' in sys.modules)\n")
    argv = ["offline-eval", "--corpus", corpus, "--mindmaps", maps, "--now", now,
            "--preset", "all_maps_all_terms", "--out", tmp_path / "o.csv"]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0 False\n"), done.stderr
    assert len((tmp_path / "o.csv").read_text().splitlines()) == 4
