"""Tests that keep the benchmark from going stale.

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_mode_reports_every_metric_of_every_workload():
    proc = _run(ROOT, "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": True, "ok": True}


def test_layers_file_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())["metrics"]
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in layers] == spec["per_layer"]


def test_without_the_program_sources_it_fails_and_prints_no_result():
    (BENCH / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        proc = _run(bare, "--workload", "sweep", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
