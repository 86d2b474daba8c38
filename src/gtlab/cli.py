"""Batch driver: run named suites from a config document and emit reports.

Usage::

    gtlab <verify|tail|ratio|hunt> --config cfg.json [--format json|csv] [--out path]
    gtlab report --config report.json [--format json|csv] [--out path]

The config is a single JSON document.  ``suites`` lists suite names;
``trials``, ``dims`` and ``seed`` are set once, at the top level, for the
whole run::

    {"suites": ["inequalities"], "trials": 100, "dims": [2, 3, 4],
     "seed": 1}

Every setting given is an integer (``dims`` a non-empty list of distinct
ones), so ``null`` is a config error; an omitted seed is
:data:`~gtlab.samplers.DEFAULT_MASTER_SEED`.  No tolerance is
configurable: the checked statements are exact theorems, and each check
admits a fixed rounding slack.

Each subcommand runs its own suite family (``verify`` the inequality
checks, ``tail`` the concentration sweeps, ``ratio`` the ensemble
studies, ``hunt`` the counter-example searches), once, when ``suites``
names it or ``all``; a config whose suites name none of that family is a
config error.  Exit codes: 0 all cases passed, 1 at least one violation,
2 config error (a bad config, saved report or SOURCE_DATE_EPOCH), 3 a
runner raised or a worker died (one stderr line says which; no report).

This module owns the report document: :func:`run` builds it as one
strict JSON-native dict (``schema_version``, ``seed``, ``timestamp``,
``cases``, ``summary``), :func:`emit` writes it, and ``report`` re-emits
a saved one once each of its cases has every :class:`CaseRecord` field.
Reports are deterministic for a fixed (config, seed): the timestamp field
is populated from SOURCE_DATE_EPOCH when set and left null otherwise, so
repeated runs are byte-identical; a malformed SOURCE_DATE_EPOCH is a
config error, raised before any suite runs.  :func:`main`, not import,
pins BLAS to one thread (:func:`~gtlab.linalg.pin_blas_to_one_thread`)
and sets glibc's heap thresholds (:func:`keep_block_memory_on_the_heap`);
neither moves a report bit.
A non-finite number (a side of a hunt that finds no witness) is written
as null in JSON and as ``nan`` in CSV.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import pin_blas_to_one_thread
from .samplers import BLOCK_ENTRIES, DEFAULT_MASTER_SEED, SEED_LIMIT
from .suites import (SUITE_NAMES, CaseRecord, RunnerError, SuiteParams,
                     run_suite)

SCHEMA_VERSION = "2"

_SUBCOMMAND_FAMILY = {
    "verify": "inequalities",
    "tail": "concentration",
    "ratio": "studies",
    "hunt": "counterexamples",
}

#: The config settings, the fields of :class:`SuiteParams`, each with the
#: least value it admits.
_SETTINGS = {"trials": 1, "dims": 1, "seed": 0}


class ConfigError(ValueError):
    """Invalid config document; the message carries the offending position."""


@dataclass(frozen=True)
class SuiteConfig:
    """One subcommand's suite ``family``, run under ``params`` when the
    config's suites name it (``selected``)."""

    family: str
    params: SuiteParams
    selected: bool


def _deterministic_timestamp() -> str | None:
    """SOURCE_DATE_EPOCH as an ISO 8601 UTC time, None when unset; a value
    that is not an integer count of seconds in range is a config error."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    import datetime
    try:
        return datetime.datetime.fromtimestamp(
            int(epoch), tz=datetime.timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"SOURCE_DATE_EPOCH: {epoch!r} is not an integer "
                          f"count of seconds in range ({exc})") from exc


# ---------------------------------------------------------------------------
# config parsing

def _expect(condition: bool, where: str, message: str):
    if not condition:
        raise ConfigError(f"{where}: {message}")


def _expect_integer(value, where: str, least: int):
    _expect(isinstance(value, int) and not isinstance(value, bool)
            and value >= least, where, f"must be an integer >= {least}")


def _setting(key: str, value):
    """A top-level setting, checked: an integer at or above its least
    value, ``dims`` a non-empty list of distinct ones."""
    _expect(key in _SETTINGS, key, "unknown config key")
    if key != "dims":
        _expect_integer(value, key, _SETTINGS[key])
        _expect(key != "seed" or value < SEED_LIMIT, key,
                "must be below 2**64")
        return value
    _expect(isinstance(value, list) and value, key,
            "must be a non-empty list of dimensions")
    for j, n in enumerate(value):
        _expect_integer(n, f"{key}[{j}]", _SETTINGS[key])
    # each dimension names its own cases (gt-sweep-n2)
    _expect(len(set(value)) == len(value), key, "must not repeat a dimension")
    return tuple(value)


def parse_config(text: str, family: str) -> SuiteConfig:
    """Parse and validate a config document for one suite family (the
    subcommand's), which its suites must then name.  Omitted settings
    take :class:`SuiteParams`'s defaults, and an omitted seed the default
    master seed."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _expect(isinstance(raw, dict), "top level", "config must be an object")
    names = raw.pop("suites", [])
    _expect(isinstance(names, list), "suites", "must be a list")
    settings = {"seed": DEFAULT_MASTER_SEED}
    settings.update((key, _setting(key, value)) for key, value in raw.items())
    choices = SUITE_NAMES + ("all",)
    for i, name in enumerate(names):
        _expect(not isinstance(name, dict), f"suites[{i}]", "a suite entry is "
                "a name; move its settings to the top level of the config")
        _expect(name in choices, f"suites[{i}]", f"unknown suite {name!r} "
                f"(expected one of {', '.join(choices)})")
    selected = family in names or "all" in names
    _expect(selected or not names, "suites",
            f"none is in the {family} family of this subcommand")
    return SuiteConfig(family=family, params=SuiteParams(**settings),
                       selected=selected)


# ---------------------------------------------------------------------------
# the report document

def _json(obj):
    """``obj`` as a strict JSON-native value: numpy arrays and scalars as
    lists and Python numbers, complex numbers as ``[real, imag]`` pairs,
    tuples as lists and every non-finite number as None."""
    if isinstance(obj, dict):
        return {str(k): _json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return _json([obj.real, obj.imag])
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    return obj


def run(config: SuiteConfig) -> dict:
    """Execute the family's suite once if the config selects it; returns
    the report document as a strict JSON-native dict.  The timestamp is
    read first, so a malformed SOURCE_DATE_EPOCH fails before any suite
    runs."""
    timestamp = _deterministic_timestamp()
    cases = run_suite(config.family, config.params) if config.selected else []
    statuses = [case.status for case in cases]
    return _json({
        "schema_version": SCHEMA_VERSION,
        "seed": config.params.seed,
        "timestamp": timestamp,
        "cases": [dataclasses.asdict(case) for case in cases],
        "summary": {"total": len(cases), "passed": statuses.count("pass"),
                    "failed": statuses.count("fail"),
                    "indeterminate": statuses.count("indeterminate")},
    })


def _load_report(text: str, path: str) -> dict:
    """A saved report document, checked before it is re-emitted: it has a
    schema version, a seed and ``summary.failed``, and each case exactly
    the fields of a :class:`CaseRecord`, with a null or two-sided ``ci``."""
    try:
        report = _json(json.loads(text))
        if not isinstance(report["summary"]["failed"], int) \
                or not {"schema_version", "seed"} <= report.keys():
            raise KeyError("schema_version, seed or summary.failed")
        for case in report["cases"]:
            if CaseRecord(**case).ci is not None and len(case["ci"]) != 2:
                raise TypeError("ci is not a pair")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"--config {path}: not a report document "
                          f"({type(exc).__name__}: {exc})") from exc
    return report


def _cell(value) -> str:
    """A CSV cell of a number; a null side reads ``nan``."""
    return "nan" if value is None else repr(value)


def emit(report: dict, fmt: str) -> str:
    """Serialize the report document; json round-trips losslessly, csv is
    one row per case, with empty ``ci_low``/``ci_high`` cells for a case
    without a confidence interval."""
    if fmt == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["name", "equation", "lhs", "rhs", "margin", "pass",
                         "trials", "status", "ci_low", "ci_high"])
        for c in report["cases"]:
            ci = ("", "") if c["ci"] is None else map(_cell, c["ci"])
            writer.writerow([c["name"], c["equation"], _cell(c["lhs"]),
                             _cell(c["rhs"]), _cell(c["margin"]),
                             str(c["passed"]).lower(), c["trials"],
                             c["status"], *ci])
        return buffer.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def keep_block_memory_on_the_heap():
    """Let freed block arrays be reused from the heap: below 4 blocks of
    ``BLOCK_ENTRIES`` complex entries an array is not mapped on its own,
    and the heap's top goes back to the kernel only above 8.  glibc's
    dynamic thresholds would trim it after every block, and the next block
    would fault in fresh zeroed pages.  Both are set, since either alone
    switches the dynamic ones off.  Without ``mallopt`` it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    block = BLOCK_ENTRIES * np.dtype(np.complex128).itemsize
    mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
    mallopt(-3, 4 * block)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 * block)  # M_TRIM_THRESHOLD


def _write_output(payload: str, out: str | None):
    if out is None:
        sys.stdout.write(payload)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gtlab",
        description="Trace-inequality and matrix-concentration verification "
                    "suites")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("verify", "run the inequality suites"),
            ("tail", "run the concentration sweeps"),
            ("ratio", "run the ensemble-average studies"),
            ("hunt", "run the counter-example searches"),
            ("report", "re-emit an existing report document")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the config "
                       "(or report, for the report subcommand) JSON document")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (stdout "
                       "when omitted)")
    args = parser.parse_args(argv)
    pin_blas_to_one_thread()
    keep_block_memory_on_the_heap()

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"--config {args.config}: {exc}") from exc
        if args.command == "report":
            report = _load_report(text, args.config)
        else:
            config = parse_config(text, family=_SUBCOMMAND_FAMILY[args.command])
            report = run(config)
        _write_output(emit(report, args.format), args.out)
    except ConfigError as exc:
        print(f"gtlab: config error: {exc}", file=sys.stderr)
        return 2
    except RunnerError as exc:
        print(f"gtlab: error: {exc}", file=sys.stderr)
        return 3
    return 0 if report["summary"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
