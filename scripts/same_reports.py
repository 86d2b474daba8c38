"""Check that the reports of this checkout are byte-identical to those of
the commit REV.

Usage, from the root of a checkout::

    python3 scripts/same_reports.py REV

``src/`` at REV is extracted with ``git archive`` into a temporary
directory.  Both trees then write the same 64 reports: ``verify``,
``tail`` and ``ratio`` at the sizes of ``perfbench/workloads.py`` and
``hunt`` on ``{"suites": ["counterexamples"]}``, at seeds 1001-1003, the
two :data:`RERUNS` configs, at which a Monte Carlo case reruns a chance
miss, and the two :data:`BLOCKS` configs, at which the blocked draws of
``verify`` and of ``tail`` leave their first block; each is written
fresh as JSON and as
CSV and its JSON
re-emitted by ``report`` as JSON and as CSV.  Every run has
``OPENBLAS_NUM_THREADS=1`` and no ``SOURCE_DATE_EPOCH``.  The script
lists each report whose bytes or exit code differ, and for a JSON
report the name of each case whose record
differs with its old and new ``status`` (``absent`` where a report has
no such case), so a verdict that moved shows at a glance.  It ends with
one line per differing case: its name, the number of JSON reports it
differs in and its status changes, as in
``rank-one-decomposition: 6 JSON reports, pass -> pass``, followed by one
line per run (its name, ending in its seed) in which it differs with its
old and new ``lhs`` and ``margin``, as in ``  verify-1001: lhs 0.0125 ->
0.0104, margin 0.594 -> 0.596``, so how far a case moved shows too.  It exits 0 only when no
report differs, and writes nothing inside the checkout.
"""

from __future__ import annotations

import io
import json
import os
import runpy
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1001, 1002, 1003)
FORMATS = ("json", "csv")
#: ``name -> (subcommand, config)``: the configs whose reports record
#: ``"escalated": true``, the sign-series Monte Carlo case (Eq.OB) of
#: ``tail`` and the Eq.R case of ``ratio``; none at seeds 1001-1003 reruns.
RERUNS = {
    "tail-rerun": ("tail", {"suites": ["concentration"], "trials": 8000,
                            "seed": 154}),
    "ratio-rerun": ("ratio", {"suites": ["studies"], "dims": [16],
                              "trials": 10000, "seed": 193}),
}
#: ``name -> (subcommand, config)``: a ``verify`` at which Eq.1a, Eq.1aA and
#: the n = 2 sweeps each draw two or more blocks, and a ``tail`` at which
#: Eq.rf1 (10 blocks), Eq.GTE (5 each), Eq.S, Eq.C and the Eq.J and Eq.4.29
#: sweeps do; the benchmark sizes stay in the first block of many of them.
BLOCKS = {
    "verify-blocks": ("verify", {"suites": ["inequalities"], "dims": [2],
                                 "trials": 30000, "seed": 1001}),
    "tail-blocks": ("tail", {"suites": ["concentration"], "trials": 40000,
                             "seed": 1001}),
}


def configs() -> dict:
    """``subcommand -> config`` without the seed: the benchmark workloads'
    sizes, and hunt at its defaults."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    found = {w.subcommand: {"suites": [w.suite], **w.sizes}
             for w in workloads["WORKLOADS"].values()}
    found["hunt"] = {"suites": ["counterexamples"]}
    return found


def extract_src(rev: str, into: Path) -> Path:
    """``src/`` at ``rev``, unpacked under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def gtlab(src: Path, work: Path, *args: str) -> int:
    """Run the gtlab CLI of the tree ``src`` in ``work``; its exit code."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("SOURCE_DATE_EPOCH", None)
    code = subprocess.run([sys.executable, "-m", "gtlab.cli", *args],
                          cwd=work, env=env, stdout=subprocess.DEVNULL).returncode
    if code not in (0, 1):
        raise SystemExit(f"gtlab {' '.join(args)} with {src} exited {code}")
    return code


def runs() -> list[tuple[str, str, dict]]:
    """``(name, subcommand, config)`` of each run; a name ends in the
    config's seed."""
    found = [(f"{command}-{seed}", command, {**config, "seed": seed})
             for command, config in configs().items() for seed in SEEDS]
    found += [(f"{name}-{config['seed']}", command, config)
              for name, (command, config) in {**RERUNS, **BLOCKS}.items()]
    return found


def reports(src: Path, work: Path) -> dict:
    """``report name -> (exit code, bytes)`` for the 64 reports of ``src``."""
    found = {}
    for name, command, config in runs():
        cfg = work / f"{name}.config.json"
        cfg.write_text(json.dumps(config))
        for fmt in FORMATS:
            out = work / f"{name}.{fmt}"
            code = gtlab(src, work, command, "--config", str(cfg),
                         "--format", fmt, "--out", str(out))
            found[out.name] = code, out.read_bytes()
        saved = work / f"{name}.json"
        for fmt in FORMATS:
            out = work / f"{name}.report.{fmt}"
            code = gtlab(src, work, "report", "--config", str(saved),
                         "--format", fmt, "--out", str(out))
            found[out.name] = code, out.read_bytes()
    return found


def differing_cases(old: bytes, new: bytes) -> list[tuple[str, dict | None,
                                                          dict | None]]:
    """``(name, old record, new record)`` of each case whose record differs
    between two JSON reports, ``None`` for a report without the case."""
    old_cases, new_cases = ({case["name"]: case for case in
                             json.loads(report)["cases"]}
                            for report in (old, new))
    return [(name, old_cases.get(name), new_cases.get(name))
            for name in sorted(old_cases.keys() | new_cases.keys())
            if old_cases.get(name) != new_cases.get(name)]


def status(case: dict | None) -> str:
    return "absent" if case is None else case["status"]


def moved(was: dict | None, now: dict | None, field: str) -> str:
    """``field`` of a case's old and new record, ``old -> new``."""
    return " -> ".join("absent" if case is None else repr(case[field])
                       for case in (was, now))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_src = extract_src(argv[0], tmp / "rev")
        (tmp / "old").mkdir()
        (tmp / "new").mkdir()
        old = reports(old_src, tmp / "old")
        new = reports(ROOT / "src", tmp / "new")
    differ = sorted(name for name in old if old[name] != new[name])
    changes: dict[str, list[str]] = {}
    # case -> run -> its lhs and margin line; a JSON report and its
    # re-emission carry the same records
    values: dict[str, dict[str, str]] = {}
    for name in differ:
        print(f"differs: {name}")
        if name.endswith(".json"):
            run = name.split(".")[0]
            for case, was, now in differing_cases(old[name][1], new[name][1]):
                change = f"{status(was)} -> {status(now)}"
                print(f"  case: {case}  status: {change}")
                changes.setdefault(case, []).append(change)
                values.setdefault(case, {})[run] = (
                    f"lhs {moved(was, now, 'lhs')}, "
                    f"margin {moved(was, now, 'margin')}")
    print(f"{len(old) - len(differ)} of {len(old)} reports identical")
    for case, found in sorted(changes.items()):
        print(f"{case}: {len(found)} JSON reports, "
              f"{', '.join(sorted(set(found)))}")
        for run, line in sorted(values[case].items()):
            print(f"  {run}: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
