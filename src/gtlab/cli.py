"""Batch driver: run named suites from a config document and emit reports.

Usage::

    gtlab <verify|tail|ratio|hunt> --config cfg.json [--format json|csv] [--out path]
    gtlab report --config report.json [--format json|csv] [--out path]

The config is a single JSON document.  ``suites`` lists suite names or
per-suite parameter objects; top-level ``trials``, ``dims``, ``seed`` and
``series_length`` provide defaults::

    {"suites": [{"name": "inequalities", "trials": 100, "dims": [2, 3, 4]}],
     "seed": 1}

No tolerance is configurable: the checked statements are exact theorems,
and each check admits a fixed rounding slack.

Each subcommand runs its own suite family (``verify`` the inequality
checks, ``tail`` the concentration sweeps, ``ratio`` the ensemble
studies, ``hunt`` the counter-example searches); ``all`` in the config
expands to the family of the subcommand, and a config whose suites name
none of that family is a config error.  Exit codes: 0 all cases passed,
1 at least one violation, 2 config error, 3 resource guard tripped.

Reports are deterministic for a fixed (config, seed): the timestamp field
is populated from SOURCE_DATE_EPOCH when set and left null otherwise, so
repeated runs are byte-identical.  The JSON form is strict: a non-finite
number (a side a case does not evaluate) is written as null.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .concentration import ResourceGuardError
from .samplers import default_master_seed
from .suites import SUITE_NAMES, CaseRecord, SuiteParams, run_suite

SCHEMA_VERSION = "1"

_SUBCOMMAND_FAMILY = {
    "verify": "inequalities",
    "tail": "concentration",
    "ratio": "studies",
    "hunt": "counterexamples",
}


class ConfigError(ValueError):
    """Invalid config document; the message carries the offending position."""


@dataclass(frozen=True)
class SuiteRequest:
    name: str
    params: SuiteParams


@dataclass(frozen=True)
class SuiteConfig:
    requests: tuple[SuiteRequest, ...]
    seed: int


@dataclass
class ReportDocument:
    schema_version: str
    seed: int
    timestamp: str | None
    cases: list[CaseRecord]
    summary: dict[str, int]

    @classmethod
    def from_cases(cls, seed: int, cases: list[CaseRecord]) -> "ReportDocument":
        summary = {
            "total": len(cases),
            "passed": sum(1 for c in cases if c.status == "pass"),
            "failed": sum(1 for c in cases if c.status == "fail"),
            "indeterminate": sum(1 for c in cases if c.status == "indeterminate"),
        }
        return cls(schema_version=SCHEMA_VERSION, seed=seed,
                   timestamp=_deterministic_timestamp(), cases=cases,
                   summary=summary)


def _deterministic_timestamp() -> str | None:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    import datetime
    return datetime.datetime.fromtimestamp(
        int(epoch), tz=datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# config parsing

def _expect(condition: bool, where: str, message: str):
    if not condition:
        raise ConfigError(f"{where}: {message}")


def parse_config(text: str, family: str | None = None) -> SuiteConfig:
    """Parse and validate a config document, optionally restricted to one
    suite family (the subcommand's), which its suites must then name."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _expect(isinstance(raw, dict), "top level", "config must be an object")
    known_keys = {"suites", "trials", "dims", "seed", "series_length"}
    for key in raw:
        _expect(key in known_keys, key, "unknown config key")
    suites_raw = raw.get("suites", [])
    _expect(isinstance(suites_raw, list), "suites", "must be a list")

    def _scalar(entry: dict, where: str, key: str, default, kind, minimum=None):
        value = entry.get(key, default)
        if value is None:
            return None
        _expect(isinstance(value, kind) and not isinstance(value, bool),
                f"{where}.{key}", f"must be of type {kind.__name__}")
        if minimum is not None:
            _expect(value >= minimum, f"{where}.{key}", f"must be >= {minimum}")
        return value

    top_trials = _scalar(raw, "top level", "trials", 1000, int, 1)
    top_seed = _scalar(raw, "top level", "seed", None, int, 0)
    top_series = _scalar(raw, "top level", "series_length", 10, int, 1)
    top_dims = _parse_dims(raw.get("dims"), "top level")
    seed = top_seed if top_seed is not None else default_master_seed()

    requests: list[SuiteRequest] = []
    for i, entry in enumerate(suites_raw):
        where = f"suites[{i}]"
        if isinstance(entry, str):
            entry = {"name": entry}
        _expect(isinstance(entry, dict), where, "must be a name or an object")
        for key in entry:
            _expect(key in {"name", "trials", "dims", "seed", "series_length"},
                    f"{where}.{key}", "unknown suite key")
        name = entry.get("name")
        _expect(isinstance(name, str), f"{where}.name", "must be a string")
        _expect(name in SUITE_NAMES or name == "all", f"{where}.name",
                f"unknown suite {name!r} (expected one of "
                f"{', '.join(SUITE_NAMES + ('all',))})")
        trials = _scalar(entry, where, "trials", top_trials, int, 1)
        entry_seed = _scalar(entry, where, "seed", None, int, 0)
        series_length = _scalar(entry, where, "series_length", top_series, int, 1)
        dims = _parse_dims(entry.get("dims"), where) or top_dims or (2, 3, 4)
        names = SUITE_NAMES if name == "all" else (name,)
        for resolved in names:
            if family is not None and resolved != family:
                continue
            params = SuiteParams(seed=entry_seed if entry_seed is not None else seed,
                                 trials=trials, dims=dims,
                                 series_length=series_length)
            requests.append(SuiteRequest(name=resolved, params=params))
    _expect(requests or not suites_raw, "suites",
            f"none is in the {family} family of this subcommand")
    return SuiteConfig(requests=tuple(requests), seed=seed)


def _parse_dims(value, where: str) -> tuple[int, ...] | None:
    if value is None:
        return None
    _expect(isinstance(value, list) and value, f"{where}.dims",
            "must be a non-empty list of dimensions")
    dims = []
    for j, n in enumerate(value):
        _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
                f"{where}.dims[{j}]", "must be a positive integer")
        dims.append(n)
    return tuple(dims)


# ---------------------------------------------------------------------------
# running and emitting

def run(config: SuiteConfig) -> ReportDocument:
    """Execute the configured suites in order and assemble the report."""
    cases: list[CaseRecord] = []
    for request in config.requests:
        cases.extend(run_suite(request.name, request.params))
    return ReportDocument.from_cases(config.seed, cases)


def document_to_dict(report: ReportDocument) -> dict:
    return {
        "schema_version": report.schema_version,
        "seed": report.seed,
        "timestamp": report.timestamp,
        "cases": [dataclasses.asdict(c) for c in report.cases],
        "summary": dict(report.summary),
    }


def _strict(obj):
    """The JSON payload with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _number(value) -> float:
    """A case side read back from JSON: null stands for NaN."""
    return math.nan if value is None else value


def document_from_dict(raw: dict) -> ReportDocument:
    cases = []
    for c in raw.get("cases", []):
        ci = c.get("ci")
        cases.append(CaseRecord(
            name=c["name"], equation=c["equation"], lhs=_number(c["lhs"]),
            rhs=_number(c["rhs"]), margin=_number(c["margin"]),
            passed=c["passed"], status=c["status"],
            trials=c["trials"], ci=tuple(ci) if ci is not None else None,
            extra=c.get("extra", {})))
    return ReportDocument(schema_version=raw["schema_version"], seed=raw["seed"],
                          timestamp=raw.get("timestamp"), cases=cases,
                          summary=dict(raw["summary"]))


def emit(report: ReportDocument, fmt: str = "json") -> str:
    """Serialize the report; json round-trips losslessly, csv is one row
    per case, with empty ``ci_low``/``ci_high`` cells for a case without a
    confidence interval."""
    if fmt == "json":
        return json.dumps(_strict(document_to_dict(report)), indent=2,
                          allow_nan=False) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["name", "equation", "lhs", "rhs", "margin", "pass",
                         "trials", "status", "ci_low", "ci_high"])
        for c in report.cases:
            ci = ("", "") if c.ci is None else (repr(c.ci[0]), repr(c.ci[1]))
            writer.writerow([c.name, c.equation, repr(c.lhs), repr(c.rhs),
                             repr(c.margin), str(c.passed).lower(), c.trials,
                             c.status, *ci])
        return buffer.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


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

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"--config {args.config}: {exc}") from exc
        if args.command == "report":
            try:
                report = document_from_dict(json.loads(text))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ConfigError(f"--config {args.config}: not a report "
                                  f"document ({exc})") from exc
        else:
            config = parse_config(text, family=_SUBCOMMAND_FAMILY[args.command])
            report = run(config)
        _write_output(emit(report, args.format), args.out)
    except ConfigError as exc:
        print(f"gtlab: config error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"gtlab: resource guard: {exc}", file=sys.stderr)
        return 3
    return 0 if report.summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
