"""The benchmark's traced launcher, `perfbench/tracing.py`, wraps program
functions by name: a command run through it must exit as the plain call
does, write the same bytes, and dump its spans."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_cli_fixture

ROOT = Path(__file__).resolve().parents[1]


def _call(argv, launcher):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *launcher, *map(str, argv)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("command", ["offline-eval", "recommend"])
def test_traced_call_matches_the_plain_call(tmp_path, command):
    corpus_path, maps_dir, now = write_cli_fixture(tmp_path, n_users=3)
    argv = [command, "--corpus", corpus_path, "--mindmaps", maps_dir, "--seed", 3,
            "--now", now, "--preset", "all_maps_all_terms"]
    if command == "recommend":
        argv += ["--user", "user01"]
    spans = tmp_path / "spans.json"
    plain = _call([*argv, "--out", tmp_path / "plain.csv"], ["-m", "mindrec.cli"])
    traced = _call([*argv, "--out", tmp_path / "traced.csv"],
                   ["perfbench/tracing.py", "--out", spans, "--request", "r1", "--"])
    assert plain.returncode == 0 and traced.returncode == 0, traced.stderr.decode()
    assert (traced.stdout, traced.stderr) == (plain.stdout, plain.stderr)
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    dump = json.loads(spans.read_text(encoding="utf-8"))
    assert dump["request"] == "r1" and dump["spans"]
