"""Self-tests of the benchmark: tracing is deterministic, invisible in the
report bytes and complete, and BENCHMARK.json matches the metrics run.py
prints.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gtlab  # noqa: E402
import gtlab.cli  # noqa: E402
import numpy  # noqa: E402
import scipy.integrate  # noqa: E402
from gtlab import suites  # noqa: E402

import run  # noqa: E402
from tracer import LAPACK, LAPACK_OTHER, LAYERS, Tracer  # noqa: E402
from workloads import SUITE_TAGS, WORKLOADS, Workload  # noqa: E402

# small versions of the three workloads
SMALL = {
    "verify": {"suites": ["inequalities"], "dims": [2, 3], "trials": 20,
               "seed": 5},
    "tail": {"suites": ["concentration"], "trials": 300, "seed": 5},
    "ratio": {"suites": ["studies"], "dims": [16], "trials": 1000, "seed": 5},
}

COUNT_SUFFIXES = (".calls", ".matrices", ".values")


def run_cli(tmp_path: Path, subcommand: str, traced: bool,
            layers: tuple[str, ...] = LAYERS):
    """One in-process CLI run, as launch.py makes it, with ``layers``
    wrapped when traced; returns (report bytes, tracer metrics)."""
    config = tmp_path / f"{subcommand}.json"
    config.write_text(json.dumps(SMALL[subcommand]))
    out = tmp_path / f"{subcommand}-{'traced' if traced else 'plain'}.json"
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install(layers)
    started = time.monotonic()
    try:
        rc = gtlab.cli.main([subcommand, "--config", str(config),
                             "--out", str(out)])
    finally:
        ended = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
    assert rc == 0
    return (out.read_bytes(),
            tracer.metrics(ended - started) if traced else None)


@pytest.mark.parametrize("subcommand", sorted(SMALL))
def test_traced_report_bytes_equal_untraced(tmp_path, subcommand):
    plain, _ = run_cli(tmp_path, subcommand, traced=False)
    traced, _ = run_cli(tmp_path, subcommand, traced=True)
    assert traced == plain


@pytest.mark.parametrize("subcommand", sorted(SMALL))
def test_counts_repeat_across_traced_runs(tmp_path, subcommand):
    _, first = run_cli(tmp_path, subcommand, traced=True)
    _, second = run_cli(tmp_path, subcommand, traced=True)
    counts = [{k: v for k, v in m.items() if k.endswith(COUNT_SUFFIXES)}
              for m in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["lapack.calls"] > 0
    assert counts[0]["samplers.standard_complex.values"] > 0


def _unwrapped_public_functions() -> list[str]:
    """Bindings in gtlab namespaces that still hold a public gtlab function."""
    missing = []
    for module in (gtlab, *(getattr(gtlab, layer) for layer in LAYERS)):
        for name, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("gtlab.")
                    and not obj.__name__.startswith("_")):
                missing.append(f"{module.__name__}.{name}")
    return missing


def test_every_rebound_name_is_wrapped():
    assert suites.expm_herm is gtlab.linalg.expm_herm
    originals = {fn: getattr(numpy.linalg, fn) for fn in LAPACK + LAPACK_OTHER}
    tracer = Tracer()
    tracer.install()
    try:
        assert _unwrapped_public_functions() == []
        assert suites.expm_herm is gtlab.linalg.expm_herm
        assert suites.expm_herm.perfbench_span == "linalg.expm_herm"
        for fn in LAPACK + LAPACK_OTHER:
            assert getattr(numpy.linalg, fn).perfbench_span == f"lapack.{fn}"
        for module in (gtlab.studies, gtlab.inequalities):
            assert module.quad.perfbench_span == "quad.quad"
        for tag, (_, _, runner) in suites.REGISTRY.items():
            if runner is not None:
                assert runner.perfbench_span == f"suites.tag.{tag}"
        generator = vars(gtlab.samplers.RngStream)["generator"]
        assert generator.perfbench_span == "samplers.RngStream.generator"
    finally:
        tracer.uninstall()
    assert {fn: getattr(numpy.linalg, fn)
            for fn in LAPACK + LAPACK_OTHER} == originals
    assert gtlab.studies.quad is scipy.integrate.quad
    assert not hasattr(suites.REGISTRY["Eq.1"][2], "perfbench_span")
    assert len(_unwrapped_public_functions()) > 50


def test_pinned_tags_match_registry():
    for suite, tags in SUITE_TAGS.items():
        assert tags == suites.SUITE_TAGS[suite]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_traced_run_end_to_end():
    """One short traced run of a real workload through run.py."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify-loop",
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stdout
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["trace.coverage"]["value"] >= 0.95
    assert metrics["linalg.validate.calls"]["value"] > 0


@pytest.mark.parametrize("subcommand", sorted(SMALL))
def test_coverage_with_every_layer_wrapped(tmp_path, subcommand):
    _, metrics = run_cli(tmp_path, subcommand, traced=True)
    assert metrics["trace.coverage"] >= 0.95


def test_coverage_fails_with_a_layer_left_unwrapped(tmp_path):
    # without suites, the checkers' time falls to cli.run, the entry layer
    layers = tuple(layer for layer in LAYERS if layer != "suites")
    _, metrics = run_cli(tmp_path, "verify", traced=True, layers=layers)
    assert metrics["suites.calls"] == 0
    assert metrics["trace.coverage"] < 0.95


def test_bare_nonfinite_values_are_counted_and_pass_the_gate(tmp_path):
    report = (b'{"cases": [{"name": "a", "status": "pass", "lhs": NaN},\n'
              b' {"name": "b", "status": "pass", "lhs": Infinity,'
              b' "extra": {"r": [-Infinity, 1.5]}}],\n'
              b' "summary": {"failed": 0}}\n')
    workload = Workload(name="w", subcommand="verify", suite="inequalities",
                        sizes={}, cases=("a", "b"), why="")
    gate = run.Gate(workload, "key", store=tmp_path / "digests.json")
    inv = run.Invocation(wall_s=1.0, setup_s=0.5, run_s=0.5, peak_rss_mb=1.0,
                         rc=0, report=report)
    gate.check(inv, "first")
    gate.check(inv, "second")
    assert gate.problems == []
    assert (gate.attempted, gate.failed) == (4, 0)
    assert run.count_nonfinite(json.loads(report)) == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tail-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
