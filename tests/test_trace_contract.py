"""The benchmark's span recorder must see every layer each command passes through.

``perfbench/trace_driver.py`` replaces the pipeline functions that
``brandmatch.cli`` imports and exits 70 when a successful command leaves one of
the expected layers without a span. These tests run it as a subprocess, the
way the benchmark does, so a change to how the CLI reaches a layer fails here
before it fails a benchmark run. ``perfbench/`` is only read, never modified.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from brandmatch.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
DRIVER = ROOT / "perfbench" / "trace_driver.py"


def _load_driver():
    spec = importlib.util.spec_from_file_location("trace_driver", DRIVER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def pizza_fixture(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pizza")
    assert main(["synth", "--out", str(directory), "--brand", "pizza"]) == EXIT_OK
    manifest = {path.stem: len(json.loads(path.read_text(encoding="utf-8")))
                for path in directory.glob("*.json")}
    assert len(manifest) == 26
    manifest_path = directory.parent / f"{directory.name}-manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return directory, manifest_path


@pytest.mark.parametrize("command", ["validate", "match", "embed"])
def test_trace_driver_sees_every_expected_layer(command, pizza_fixture, tmp_path):
    directory, manifest = pizza_fixture
    argv = [command, "--users", str(directory / "users.txt"), "--metadata", str(directory),
            "--target", "pizza_brand"]
    if command == "match":
        argv += ["--weighting", "tfidf", "--export-matrix", str(tmp_path / "matrix.tsv"),
                 "--output", str(tmp_path / "report.txt")]
    if command == "embed":
        argv += ["--embedding", str(tmp_path / "e.tsv"), "--plot", str(tmp_path / "p.svg")]
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(DRIVER), str(spans_path), str(manifest),
                           "request-1", "--", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    recorded = {span["name"] for span in json.loads(spans_path.read_text())["spans"]}
    expected = _load_driver().expected_spans(argv)
    assert expected <= recorded, f"no span for {sorted(expected - recorded)}"
