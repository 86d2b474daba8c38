"""gtlab benchmark: end-to-end CLI timings, and per-layer metrics from a
traced run.

    python3 perfbench/run.py --workload verify-loop --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; gtlab is imported from ``src/``.  One
client, closed loop: one ``gtlab`` invocation at a time, each in a fresh
interpreter with ``OPENBLAS_NUM_THREADS`` pinned to ``BLAS_THREADS``.  After one untimed
warm-up invocation, invocations repeat until ``--seconds`` have passed
(at least ``MIN_INVOCATIONS``), and the medians are reported.

The machine this was tuned on changes speed by itself, by up to 2x, over
minutes.  So, before each untraced invocation, a fresh interpreter runs
``REFERENCE`` (the imports that dominate gtlab's own start-up, which no
gtlab change can alter), and each of the invocation's times is scaled by
``REFERENCE_S`` over that reference time: the end-to-end times are
seconds on a machine where the reference takes ``REFERENCE_S``.  Raw
times are printed and kept in the result file too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics; the
traced ones run the in-process tracer (``tracer.py``).

Every invocation passes the correctness gate: exit code 0, a report with
``summary.failed == 0``, exactly the workload's pinned case names, and the
same SHA-256 as every other report of this source tree, workload, seed,
library versions and thread count (remembered across runs in
``.perfbench/digests.json``).  A traced report must equal the untraced one
byte for byte.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count report cases.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import BOUNDARIES, LAPACK, LAYERS
from workloads import SUITE_TAGS, WARMUP_SIZES, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_INVOCATIONS = 3
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150.0
REFERENCE = "import numpy, scipy.stats"
REFERENCE_S = 1.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s",
              "peak_rss_mb": "MiB"}
SCALED = ("wall_s", "setup_s", "run_s")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, with its unit, in report order."""
    units: dict[str, str] = {}
    for layer in LAYERS + BOUNDARIES:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({
        "samplers.generator.calls": "count",
        "samplers.generator.self_s": "s",
        "samplers.standard_complex.calls": "count",
        "samplers.standard_complex.values": "count",
        "linalg.validate.calls": "count",
        "linalg.validate.self_s": "s",
    })
    for fn in LAPACK:
        units[f"lapack.{fn}.calls"] = "count"
        units[f"lapack.{fn}.matrices"] = "count"
        units[f"lapack.{fn}.self_s"] = "s"
    units["lapack.matrices_per_call"] = "count"
    for tags in SUITE_TAGS.values():
        for tag in tags:
            units[f"suites.tag.{tag}.trials_per_s"] = "1/s"
    units.update({
        "reports.binomial_ci.calls": "count",
        "reports.binomial_ci.self_s": "s",
        "cli.parse_config.self_s": "s",
        "cli.emit.self_s": "s",
        "cli.report_bytes": "bytes",
        "cli.report_nonfinite": "count",
        "trace.overhead_s": "s",
        "trace.coverage": "share",
    })
    return units


# ---------------------------------------------------------------------------
# one invocation

@dataclass
class Invocation:
    wall_s: float
    setup_s: float
    run_s: float
    peak_rss_mb: float
    rc: int
    report: bytes | None
    layers: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    log: str = ""
    reference_s: float = math.nan


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    # both would make the report bytes depend on the environment
    env.pop("SOURCE_DATE_EPOCH", None)
    env.pop("GTLAB_SEED", None)
    return env


def invoke(subcommand: str, config: str, traced: bool, tag: str) -> Invocation:
    """Spawn one ``gtlab <subcommand>`` through ``launch.py`` and time it."""
    config_path = WORK / f"{tag}.config.json"
    config_path.write_text(config, encoding="utf-8")
    report_path = WORK / f"{tag}.report.json"
    timing_path = WORK / f"{tag}.timing.json"
    log_path = WORK / f"{tag}.log"
    for stale in (report_path, timing_path):
        stale.unlink(missing_ok=True)
    spans = str(WORK / f"{tag}.spans.npz") if traced else "-"
    cmd = [sys.executable, str(HERE / "launch.py"), str(timing_path), spans,
           "--", subcommand, "--config", str(config_path),
           "--out", str(report_path)]
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    timing = (json.loads(timing_path.read_text(encoding="utf-8"))
              if timing_path.exists() else {})
    return Invocation(
        wall_s=exited - spawned,
        setup_s=timing.get("imported", math.nan) - spawned,
        run_s=timing.get("ended", math.nan) - timing.get("started", math.nan),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        rc=proc.returncode,
        report=report_path.read_bytes() if report_path.exists() else None,
        layers=timing.get("layers", {}),
        versions=timing.get("versions", {}),
        log=log_path.read_text(encoding="utf-8", errors="replace")[-2000:])


def reference_s() -> float:
    """Wall time of a fresh interpreter running ``REFERENCE``."""
    spawned = time.monotonic()
    subprocess.run([sys.executable, "-c", REFERENCE],
                   cwd=ROOT, env=child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.monotonic() - spawned


# ---------------------------------------------------------------------------
# correctness gate

def count_nonfinite(value) -> int:
    if isinstance(value, float):
        return 0 if math.isfinite(value) else 1
    if isinstance(value, dict):
        return sum(count_nonfinite(v) for v in value.values())
    if isinstance(value, list):
        return sum(count_nonfinite(v) for v in value)
    return 0


class Gate:
    """Checks each report of one workload and seed, and counts cases."""

    def __init__(self, workload: Workload, digest_key: str,
                 store: Path = WORK / "digests.json"):
        self.workload = workload
        self.digest_key = digest_key
        self.store = store
        self.digest = self._stored().get(digest_key)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _stored(self) -> dict:
        if not self.store.exists():
            return {}
        return json.loads(self.store.read_text(encoding="utf-8"))

    def check(self, inv: Invocation, label: str):
        """Gate one invocation and count its cases."""
        cases = len(self.workload.cases)
        self.attempted += cases
        problems = self._problems(inv)
        if problems:
            self.failed += cases
            self.problems.extend(f"{label}: {p}" for p in problems)
            return
        report = json.loads(inv.report)
        self.failed += sum(1 for c in report["cases"] if c["status"] != "pass")

    def _problems(self, inv: Invocation) -> list[str]:
        if inv.rc != 0:
            return [f"exit code {inv.rc}; log tail: {inv.log.strip()[-400:]}"]
        if inv.report is None:
            return ["no report written"]
        try:
            # lenient: bare NaN / Infinity are accepted and counted instead
            report = json.loads(inv.report)
            names = [c["name"] for c in report["cases"]]
            failed = report["summary"]["failed"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report ({exc})"]
        problems = []
        if failed != 0:
            problems.append(f"summary.failed == {failed}")
        if sorted(names) != sorted(self.workload.cases):
            problems.append(f"case names differ from the pinned list: {names}")
        digest = hashlib.sha256(inv.report).hexdigest()
        if self.digest is None:
            self.digest = digest
            stored = self._stored()
            stored[self.digest_key] = digest
            self.store.write_text(json.dumps(stored, indent=1) + "\n",
                                  encoding="utf-8")
        elif digest != self.digest:
            problems.append(f"report sha256 {digest} differs from {self.digest}"
                            f" for {self.digest_key}")
        return problems


# ---------------------------------------------------------------------------
# environment

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


# ---------------------------------------------------------------------------
# runs

def median(values: list[float]) -> float:
    """Median of the finite values; 0 when an invocation that failed the
    gate left none (the result then reads ``"correct": false``)."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            gate: Gate):
    """Invocations until ``seconds`` pass; returns (untraced, traced)."""
    config = workload.config(seed)
    untraced: list[Invocation] = []
    traced: list[Invocation] = []
    deadline = time.monotonic() + seconds
    round_s = 0.0
    while (len(untraced) < (1 if trace else MIN_INVOCATIONS)
           or time.monotonic() + round_s <= deadline):
        began = time.monotonic()
        reference = math.nan if trace else reference_s()
        inv = invoke(workload.subcommand, config, False, workload.name)
        inv.reference_s = reference
        gate.check(inv, f"invocation {len(untraced) + 1}")
        untraced.append(inv)
        if trace:
            inv = invoke(workload.subcommand, config, True,
                         f"{workload.name}.traced")
            gate.check(inv, f"traced invocation {len(traced) + 1}")
            traced.append(inv)
        round_s = time.monotonic() - began
    return untraced, traced


def end_to_end(untraced: list[Invocation]) -> dict[str, float]:
    """Medians over the invocations; times scaled to reference speed."""
    out = {name: median([getattr(inv, name) * REFERENCE_S / inv.reference_s
                         for inv in untraced])
           for name in SCALED}
    out["peak_rss_mb"] = median([inv.peak_rss_mb for inv in untraced])
    return out


def layer_metrics(untraced: list[Invocation], traced: list[Invocation],
                  gate: Gate) -> dict[str, float]:
    units = per_layer_units()
    counts = [{k: v for k, v in inv.layers.items()
               if k.endswith((".calls", ".matrices", ".values"))}
              for inv in traced]
    if any(c != counts[0] for c in counts[1:]):
        gate.problems.append("per-layer counts differ between traced runs")
    out = {}
    for name in units:
        values = [inv.layers.get(name, 0.0) for inv in traced]
        out[name] = median(values)
    report = traced[0].report or b""
    out["cli.report_bytes"] = len(report)
    out["cli.report_nonfinite"] = (count_nonfinite(json.loads(report))
                                   if report else 0)
    traced_run = median([inv.run_s for inv in traced])
    out["trace.overhead_s"] = traced_run - median([i.run_s for i in untraced])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so that invoke() stops
    # and reaps the running child before exiting
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not (SRC / "gtlab" / "cli.py").is_file():
        print(f"perfbench: no gtlab sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)

    warm = invoke(workload.subcommand,
                  json.dumps({"suites": [workload.suite], **WARMUP_SIZES,
                              "seed": args.seed}),
                  False, "warmup")
    if warm.rc not in (0, 1) or warm.report is None:
        print(f"perfbench: warm-up invocation failed (exit {warm.rc}):\n"
              f"{warm.log}", file=sys.stderr)
        return 1
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        **warm.versions,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "seed": args.seed,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
    digest_key = "|".join(str(part) for part in (
        env["source_sha256"], env["numpy"], env["scipy"], env["blas"],
        workload.name, args.seed, f"threads={BLAS_THREADS}"))
    gate = Gate(workload, digest_key)
    untraced, traced = measure(workload, args.seed, args.seconds,
                               bool(args.trace), gate)
    if args.trace:
        values = layer_metrics(untraced, traced, gate)
        units = per_layer_units()
    else:
        values = end_to_end(untraced)
        units = END_TO_END

    failed_share = gate.failed / gate.attempted
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"invocations={len(untraced)} untraced, {len(traced)} traced")
    for key, value in env.items():
        print(f"  env {key} = {value}")
    for name, value in values.items():
        print(f"  {name:42s} {value:.6g} {units[name]}")
    if not args.trace:
        for name in (*SCALED, "reference_s"):
            raw = median([getattr(inv, name) for inv in untraced])
            label = name if name == "reference_s" else f"unscaled {name}"
            print(f"  {label:42s} {raw:.6g} s")
    print(f"  {'failed_share':42s} {failed_share:.6g} share "
          f"({gate.failed} of {gate.attempted} cases)")
    for problem in gate.problems:
        print(f"  GATE FAILED {problem}")
    result = {
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "env": env, "result": result, "failed_share": failed_share,
         "problems": gate.problems,
         "samples": {name: [getattr(inv, name) for inv in untraced]
                     for name in (*END_TO_END, "reference_s")}},
        indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
