"""Check that the reports of this checkout are byte-identical to those of
the commit REV.

Usage, from the root of a checkout::

    python3 scripts/same_reports.py REV

``src/`` at REV is extracted with ``git archive`` into a temporary
directory.  Both trees then write the same 48 reports: ``verify``,
``tail`` and ``ratio`` at the sizes of ``perfbench/workloads.py`` and
``hunt`` on ``{"suites": ["counterexamples"]}``, at seeds 1001-1003, each
written fresh as JSON and as CSV and its JSON re-emitted by ``report`` as
JSON and as CSV.  Every run has ``OPENBLAS_NUM_THREADS=1`` and no
``SOURCE_DATE_EPOCH``.  The script lists each report whose bytes or exit
code differ, and for a JSON report the name of each case whose record
differs with its old and new ``status`` (``absent`` where a report has
no such case), so a verdict that moved shows at a glance.  It ends with
one line per differing case: its name, the number of JSON reports it
differs in and its status changes, as in
``rank-one-decomposition: 6 JSON reports, pass -> pass``.  It exits 0
only when no report differs, and writes nothing inside the checkout.
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


def reports(src: Path, work: Path) -> dict:
    """``report name -> (exit code, bytes)`` for the 48 reports of ``src``."""
    found = {}
    for command, config in configs().items():
        for seed in SEEDS:
            cfg = work / f"{command}-{seed}.config.json"
            cfg.write_text(json.dumps({**config, "seed": seed}))
            for fmt in FORMATS:
                out = work / f"{command}-{seed}.{fmt}"
                code = gtlab(src, work, command, "--config", str(cfg),
                             "--format", fmt, "--out", str(out))
                found[out.name] = code, out.read_bytes()
            saved = work / f"{command}-{seed}.json"
            for fmt in FORMATS:
                out = work / f"{command}-{seed}.report.{fmt}"
                code = gtlab(src, work, "report", "--config", str(saved),
                             "--format", fmt, "--out", str(out))
                found[out.name] = code, out.read_bytes()
    return found


def differing_cases(old: bytes, new: bytes) -> list[tuple[str, str, str]]:
    """``(name, old status, new status)`` of each case whose record differs
    between two JSON reports."""
    old_cases, new_cases = ({case["name"]: case for case in
                             json.loads(report)["cases"]}
                            for report in (old, new))
    return [(name, *(cases[name]["status"] if name in cases else "absent"
                     for cases in (old_cases, new_cases)))
            for name in sorted(old_cases.keys() | new_cases.keys())
            if old_cases.get(name) != new_cases.get(name)]


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
    moved: dict[str, list[str]] = {}
    for name in differ:
        print(f"differs: {name}")
        if name.endswith(".json"):
            for case, was, now in differing_cases(old[name][1], new[name][1]):
                print(f"  case: {case}  status: {was} -> {now}")
                moved.setdefault(case, []).append(f"{was} -> {now}")
    print(f"{len(old) - len(differ)} of {len(old)} reports identical")
    for case, changes in sorted(moved.items()):
        print(f"{case}: {len(changes)} JSON reports, "
              f"{', '.join(sorted(set(changes)))}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
