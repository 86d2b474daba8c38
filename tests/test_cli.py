import contextlib
import csv
import ctypes
import dataclasses
import importlib
import inspect
import io
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gtlab
from gtlab import cli, linalg, pauli, samplers, studies, suites
from gtlab import concentration as conc
from gtlab import inequalities as ineq
from gtlab.reports import GapReport, TailReport, inequality_tol
from gtlab.samplers import DEFAULT_MASTER_SEED, RngStream, gue
from gtlab.suites import _tag_stream

SRC = Path(__file__).resolve().parents[1] / "src"


BASE_CONFIG = {"suites": ["inequalities"], "trials": 40, "dims": [2, 3],
               "seed": 1}


@contextlib.contextmanager
def one_cpu():
    """Run the block on one CPU of this process's affinity, so that
    ``fork_map`` runs its tasks in this process, where a test observes
    them; the affinity is restored afterwards."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_cli(tmp_path, config, command="verify", fmt="json", out_name="report"):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / out_name
    code = cli.main([command, "--config", str(cfg), "--format", fmt,
                     "--out", str(out)])
    return code, out.read_text() if out.exists() else None


class TestConfigParsing:
    def test_shorthand_and_object_forms(self):
        config = cli.parse_config(json.dumps({
            "suites": ["studies"], "trials": 5, "dims": [3, 2], "seed": 2}),
            "studies")
        assert config.family == "studies" and config.selected
        assert config.params == suites.SuiteParams(seed=2, trials=5,
                                                   dims=(3, 2))

    def test_family_filter(self):
        config = cli.parse_config(json.dumps({"suites": ["all"], "seed": 0}),
                                  family="studies")
        assert config.family == "studies" and config.selected
        assert config.params.seed == 0

    def test_unknown_suite_position_annotated(self):
        with pytest.raises(cli.ConfigError, match=r"^suites\[1\]: unknown"):
            cli.parse_config(json.dumps({"suites": ["studies", "bogus"]}),
                             "studies")

    def test_malformed_json_has_position(self):
        with pytest.raises(cli.ConfigError, match="line 1"):
            cli.parse_config("{not json", "studies")

    def test_bad_types_rejected(self):
        with pytest.raises(cli.ConfigError, match="trials"):
            cli.parse_config(json.dumps({"suites": [], "trials": "many"}),
                             "studies")
        with pytest.raises(cli.ConfigError, match="dims"):
            cli.parse_config(json.dumps({"suites": [], "dims": [0]}), "studies")
        with pytest.raises(cli.ConfigError, match="unknown"):
            cli.parse_config(json.dumps({"suites": [], "extra": 1}), "studies")

    # each id names the setting's place, the top level
    @pytest.mark.parametrize("key", ["trials", "dims", "seed"],
                             ids=lambda key: f"{key}-top")
    def test_null_setting_exit_two(self, tmp_path, capsys, key):
        # null is no value: it reached a runner as None (trials) or stood
        # for an absent key (seed, dims)
        config = {"suites": ["inequalities"], "seed": 1, key: None}
        assert run_cli(tmp_path, config) == (2, None)
        assert key in config_error(capsys)

    @pytest.mark.parametrize("seed", [2 ** 64], ids=["top"])
    def test_seed_of_2_64_or_more_exit_two(self, tmp_path, capsys, seed):
        # master seeds are 64-bit: a larger one is a config error, not a
        # traceback from the first runner's RngStream
        config = {"suites": ["studies"], "seed": seed, "trials": 1}
        assert run_cli(tmp_path, config, "ratio") == (2, None)
        assert "seed: must be below 2**64" in config_error(capsys)
        config["seed"] = 2 ** 64 - 1
        assert cli.parse_config(json.dumps(config), "studies") \
            .params.seed == 2 ** 64 - 1

    @pytest.mark.parametrize("entry", [
        {"name": "studies"}, {"name": "studies", "trials": 30},
        {"name": "studies", "seed": 5}])
    def test_suite_entry_object_exit_two(self, tmp_path, capsys, entry):
        # a setting lives at the top level only, so the report's seed is
        # the one every case was drawn from
        config = {"suites": ["studies", entry], "seed": 1, "trials": 1}
        assert run_cli(tmp_path, config, "ratio") == (2, None)
        assert config_error(capsys).endswith(
            "suites[1]: a suite entry is a name; move its settings to the "
            "top level of the config")

    def test_repeated_dimension_exit_two(self, tmp_path, capsys):
        # two cases would share the name gt-sweep-n2
        config = {**BASE_CONFIG, "dims": [2, 3, 2]}
        assert run_cli(tmp_path, config) == (2, None)
        assert "dims: must not repeat a dimension" in config_error(capsys)

    def test_seed_variable_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GTLAB_SEED", "777")
        config = {"suites": ["studies"], "trials": 1}
        assert cli.parse_config(json.dumps(config), "studies").params.seed \
            == DEFAULT_MASTER_SEED
        _, text = run_cli(tmp_path, config, "ratio")
        assert json.loads(text)["seed"] == DEFAULT_MASTER_SEED

    def test_readme_configs_parse(self):
        # the README's config examples cannot drift from the parser
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert blocks
        for block in blocks:
            family, = json.loads(block)["suites"]
            assert cli.parse_config(block, family).selected

    def test_tolerances_key_exit_two(self, tmp_path):
        # the checks are exact theorems: no config may loosen their slack
        with pytest.raises(cli.ConfigError, match=r"^tolerances: unknown"):
            cli.parse_config(json.dumps({"suites": [],
                                         "tolerances": {"Eq.1": 1e-9}}),
                             "inequalities")
        with pytest.raises(cli.ConfigError,
                           match=r"^suites\[0\]: a suite entry is a name"):
            cli.parse_config(json.dumps({"suites": [{
                "name": "inequalities", "tolerances": {"Eq.1": 1e-9}}]}),
                "inequalities")
        for config in ({**BASE_CONFIG, "tolerances": {"Eq.1": float("nan")}},
                       {**BASE_CONFIG, "suites": [{
                           "name": "inequalities",
                           "tolerances": {"Eq.AB": -1.0}}]}):
            code, text = run_cli(tmp_path, config)
            assert (code, text) == (2, None)


class TestRunAndEmit:
    def test_empty_suite_list(self, tmp_path):
        code, text = run_cli(tmp_path, {"suites": [], "seed": 1})
        assert code == 0
        report = json.loads(text)
        assert report["cases"] == []
        assert report["summary"]["total"] == 0

    @pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999999999"])
    def test_malformed_source_date_epoch_exit_two_before_the_run(
            self, epoch, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        ran = []
        monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
        code, text = run_cli(tmp_path, BASE_CONFIG)
        assert (code, text, ran) == (2, None, [])
        err = capsys.readouterr().err
        assert err.startswith("gtlab: config error: SOURCE_DATE_EPOCH: ")
        assert err.count("\n") == 1

    def test_source_date_epoch_zero_is_written_byte_identically(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        code1, text1 = run_cli(tmp_path, BASE_CONFIG, out_name="r1.json")
        code2, text2 = run_cli(tmp_path, BASE_CONFIG, out_name="r2.json")
        assert code1 == code2 == 0
        assert json.loads(text1)["timestamp"] == "1970-01-01T00:00:00+00:00"
        assert text1 == text2

    def test_deterministic_reports_byte_identical(self, tmp_path):
        code1, text1 = run_cli(tmp_path, BASE_CONFIG, out_name="r1.json")
        code2, text2 = run_cli(tmp_path, BASE_CONFIG, out_name="r2.json")
        assert code1 == code2 == 0
        assert text1 == text2

    def test_json_round_trip(self, tmp_path):
        _, text = run_cli(tmp_path, BASE_CONFIG)
        assert cli.emit(json.loads(text), "json") == text

    def test_csv_row_count(self, tmp_path):
        _, text = run_cli(tmp_path, BASE_CONFIG, fmt="csv")
        json_code, json_text = run_cli(tmp_path, BASE_CONFIG, fmt="json",
                                       out_name="again.json")
        cases = json.loads(json_text)["cases"]
        rows = [line for line in text.splitlines() if line]
        assert len(rows) == len(cases) + 1
        assert rows[0] == ("name,equation,lhs,rhs,margin,pass,trials,"
                           "status,ci_low,ci_high")

    def test_csv_tells_fail_from_indeterminate(self, tmp_path, monkeypatch):
        def case(name, status, ci):
            return suites.CaseRecord(name=name, equation="Eq.RU", lhs=0.3,
                                     rhs=0.2, margin=-0.1, passed=False,
                                     status=status, trials=100, ci=ci,
                                     extra={})

        document = document_of(monkeypatch, [
            case("failed", "fail", (0.25, 0.3)),
            case("straddling", "indeterminate", (0.1, 0.3)),
            case("no-interval", "fail", None)])
        text = cli.emit(document, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["status"] for r in rows] == ["fail", "indeterminate", "fail"]
        assert [r["pass"] for r in rows] == ["false"] * 3
        assert (rows[0]["ci_low"], rows[0]["ci_high"]) == ("0.25", "0.3")
        assert (rows[2]["ci_low"], rows[2]["ci_high"]) == ("", "")
        # a saved JSON report re-emits with the same columns (exit 1: the
        # report holds failures)
        saved = tmp_path / "saved.json"
        saved.write_text(cli.emit(document, "json"))
        assert cli.main(["report", "--config", str(saved), "--format", "csv",
                         "--out", str(tmp_path / "re.csv")]) == 1
        assert (tmp_path / "re.csv").read_text() == text

    def test_forced_failure_exit_one(self, tmp_path, monkeypatch):
        # a parametrization residual far above its 1e-12 threshold for
        # every coefficient vector
        monkeypatch.setattr(pauli, "squared_norm_identity_residual",
                            lambda a: np.ones(len(a)))
        code, text = run_cli(tmp_path, BASE_CONFIG)
        assert code == 1
        report = json.loads(text)
        assert report["summary"]["failed"] >= 1
        failed = [c for c in report["cases"] if not c["passed"]]
        assert failed and failed[0]["equation"] == "Eq.AB"

    def test_runner_exception_exit_three(self, tmp_path, monkeypatch, capsys):
        # a runner that raises has found no violation: exit 3 with one line
        # naming the tag and the exception, and no report
        def raising(params, stream, tag):
            raise ValueError("no convergence")

        suite, operation, _ = suites.REGISTRY["Eq.1b"]
        monkeypatch.setitem(suites.REGISTRY, "Eq.1b",
                            (suite, operation, raising))
        assert run_cli(tmp_path, BASE_CONFIG) == (3, None)
        assert capsys.readouterr().err.splitlines() == [
            "gtlab: error: Eq.1b: ValueError: no convergence"]

    def test_one_by_one_dims_exit_zero(self, tmp_path):
        # a 1x1 GUE pair always commutes, so the order fit draws its pair
        # at 2x2 at least; it used to crash with exit 1
        config = {"suites": ["inequalities"], "trials": 5, "dims": [1],
                  "seed": 1}
        code, text = run_cli(tmp_path, config)
        assert code == 0
        fit = next(c for c in json.loads(text)["cases"]
                   if c["name"] == "equality-order-fit")
        assert fit["status"] == "pass"

    @pytest.mark.parametrize("seed", [3, 346, 864])
    def test_order_fit_of_a_2x2_pair_passes(self, seed):
        # at these seeds the 2x2 pair's gaps at the smallest eps are at
        # rounding level and carry no slope
        params = suites.SuiteParams(seed=seed, trials=1, dims=(2,))
        _, fit = suites._run_equality_order(
            params, _tag_stream(seed, "EqualityOrder"), "EqualityOrder")
        assert fit.status == "pass", fit.extra

    def test_config_error_exit_two(self, tmp_path):
        code, _ = run_cli(tmp_path, {"suites": ["bogus"]})
        assert code == 2

    def test_missing_config_exit_two(self, tmp_path):
        code = cli.main(["verify", "--config", str(tmp_path / "absent.json")])
        assert code == 2

    def test_ratio_subcommand_emits_target_case(self, tmp_path):
        config = {"suites": ["studies"], "trials": 20000, "seed": 3}
        code, text = run_cli(tmp_path, config, command="ratio")
        assert code == 0
        cases = json.loads(text)["cases"]
        ratio_cases = [c for c in cases if c["equation"] == "Eq.R"]
        assert ratio_cases
        assert abs(ratio_cases[0]["lhs"] - 4.0 / 3.0) < 0.05

    def test_hunt_serializes_witness(self, tmp_path):
        config = {"suites": ["counterexamples"], "trials": 50000, "seed": 4}
        code, text = run_cli(tmp_path, config, command="hunt")
        assert code == 0
        cases = {c["equation"]: c for c in json.loads(text)["cases"]}
        for tag in ("Eq.4.1d", "ABC.trace"):
            case = cases[tag]
            assert case["extra"]["found"] is True
            assert case["lhs"] > case["rhs"]
            assert "matrices" in case["extra"]

    def test_report_subcommand_reemits(self, tmp_path):
        _, text = run_cli(tmp_path, BASE_CONFIG)
        report_path = tmp_path / "saved.json"
        report_path.write_text(text)
        code = cli.main(["report", "--config", str(report_path),
                         "--format", "csv", "--out",
                         str(tmp_path / "re.csv")])
        assert code == 0
        assert (tmp_path / "re.csv").read_text().startswith("name,equation")

    def test_json_is_strict_and_reemits_byte_for_byte(self, tmp_path,
                                                      monkeypatch):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code, text = run_cli(tmp_path, BASE_CONFIG)
        assert code == 0
        json.loads(text, parse_constant=reject)
        saved = tmp_path / "saved.json"
        saved.write_text(text)
        assert cli.main(["report", "--config", str(saved), "--out",
                         str(tmp_path / "re.json")]) == 0
        assert (tmp_path / "re.json").read_text() == text
        # a hunt that spends its budget without a witness has no sides
        hunt = dataclasses.replace(suites.REGISTRY["ABC.trace"][2],
                                   scan=lambda stream, budget: None)
        missed, = hunt(suites.SuiteParams(seed=1, trials=10),
                       _tag_stream(1, "ABC.trace"), "ABC.trace")
        document = document_of(monkeypatch, [missed])
        case, = json.loads(cli.emit(document, "json"),
                           parse_constant=reject)["cases"]
        assert case["lhs"] is None and case["rhs"] is None

    def test_generators_do_not_grow_with_trials(self, monkeypatch):
        keys = record_stream_keys(monkeypatch)
        counts = []
        for trials in (200, 400):
            keys.clear()
            suites.run_suite("inequalities",
                             suites.SuiteParams(seed=1, trials=trials, dims=(2, 3)))
            assert len(set(keys)) == len(keys), "a stream key was reused"
            counts.append(len(keys))
        assert counts[0] == counts[1]

    def test_no_stream_key_is_handed_out_twice(self, monkeypatch):
        # at trials=8000 the samples of the (8, 2), (16, 1) and (16, 2)
        # domination groups span two or more tail blocks
        keys = record_stream_keys(monkeypatch)
        params = suites.SuiteParams(seed=1, trials=8000, dims=(2,))
        for family in suites.SUITE_NAMES:
            suites.run_suite(family, params)
        reused = {k for k in keys if keys.count(k) > 1}
        assert not reused, f"stream keys reused: {sorted(reused)}"

    def test_report_subcommand_rejects_non_report(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        assert cli.main(["report", "--config", str(cfg)]) == 2

    def test_suites_outside_the_family_exit_two(self, tmp_path):
        # a run that would check nothing must not report success
        for config, command in (
                ({"suites": ["studies"], "seed": 1}, "verify"),
                ({"suites": ["concentration"], "trials": 40, "seed": 1},
                 "verify"),
                ({"suites": ["inequalities", "studies"]}, "hunt")):
            code, text = run_cli(tmp_path, config, command=command)
            assert (code, text) == (2, None), (config, command)
        with pytest.raises(cli.ConfigError, match=r"^suites: none is in the "
                                                  r"studies family"):
            cli.parse_config(json.dumps({"suites": ["inequalities"]}),
                             family="studies")
        # one suite of the family is enough
        config = cli.parse_config(json.dumps({"suites": ["inequalities",
                                                         "studies"]}),
                                  family="studies")
        assert config.family == "studies" and config.selected

    def test_family_named_twice_runs_once(self, tmp_path):
        # the family runs once, so every case name is unique
        config = {"suites": ["studies", "all", "studies"], "trials": 1,
                  "seed": 1}
        code, text = run_cli(tmp_path, config, "ratio")
        names = [case["name"] for case in json.loads(text)["cases"]]
        assert code == 0 and len(names) == len(set(names)) == 3


class TestReportSubcommand:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory) -> dict:
        """A small verify report, as loaded from its JSON."""
        tmp_path = tmp_path_factory.mktemp("saved")
        _, text = run_cli(tmp_path, {**BASE_CONFIG, "dims": [2], "trials": 5})
        return json.loads(text)

    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMAND_FAMILY))
    def test_reemits_fresh_json_and_csv(self, tmp_path, command):
        config = {"suites": [cli._SUBCOMMAND_FAMILY[command]], "trials": 50,
                  "dims": [2], "seed": 1}
        code, _ = run_cli(tmp_path, config, command, out_name="r.json")
        assert run_cli(tmp_path, config, command, "csv")[0] == code
        for fmt, out in (("json", "r.json"), ("csv", "report")):
            assert cli.main(["report", "--config", str(tmp_path / "r.json"),
                             "--format", fmt, "--out",
                             str(tmp_path / "re")]) == code
            assert (tmp_path / "re").read_text() == \
                (tmp_path / out).read_text()

    def test_reemits_a_schema_1_report_byte_for_byte(self, tmp_path, saved):
        # schema "1" judged residual identities by threshold (rhs) rather
        # than as gaps; a report saved then re-emits as it was saved
        text = cli.emit({**saved, "schema_version": "1"}, "json")
        path = tmp_path / "saved.json"
        path.write_text(text)
        assert cli.main(["report", "--config", str(path), "--out",
                         str(tmp_path / "re")]) == 0
        assert (tmp_path / "re").read_text() == text

    DAMAGE = {
        "no-schema-version": lambda d: d.pop("schema_version"),
        "no-seed": lambda d: d.pop("seed"),
        "no-summary-failed": lambda d: d["summary"].pop("failed"),
        "null-summary-failed": lambda d: d["summary"].update(failed=None),
        "case-without-ci": lambda d: d["cases"][0].pop("ci"),
        "case-without-extra": lambda d: d["cases"][0].pop("extra"),
        "case-with-unknown-field": lambda d: d["cases"][0].update(note=1),
        "ci-not-a-pair": lambda d: d["cases"][0].update(ci=[0.5]),
        "case-not-an-object": lambda d: d["cases"].append("case"),
        "empty-object": lambda d: d.clear(),
        "schema-99-int": lambda d: d.update(schema_version=99),
        "schema-3": lambda d: d.update(schema_version="3"),
    }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_incomplete_document_exit_two(self, tmp_path, capsys, saved,
                                          damage, fmt):
        document = json.loads(json.dumps(saved))
        self.DAMAGE[damage](document)
        path = tmp_path / "saved.json"
        path.write_text(json.dumps(document))
        out = tmp_path / "re"
        assert cli.main(["report", "--config", str(path), "--format", fmt,
                         "--out", str(out)]) == 2
        assert not out.exists()
        assert "not a report document" in config_error(capsys)


def config_error(capsys) -> str:
    """The one line written to stderr, which reports a config error."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gtlab: config error: "), \
        lines
    return lines[0]


def record_stream_keys(monkeypatch) -> list:
    """Record the key of every generator built from now on."""
    keys = []
    generator = RngStream.generator

    def recording(stream):
        keys.append((stream.master_seed, stream.path))
        return generator(stream)

    monkeypatch.setattr(RngStream, "generator", recording)
    return keys


def document_of(monkeypatch, cases) -> dict:
    """The report document of a run whose one suite yields ``cases``."""
    monkeypatch.setattr(cli, "run_suite", lambda family, params: cases)
    return cli.run(cli.SuiteConfig(family="studies",
                                   params=suites.SuiteParams(seed=1),
                                   selected=True))


#: Tags whose cases are all judged by ``_worst_case``: the Sweep rows,
#: residual identities among them, and the runners that call their row's
#: operation for the GapReports.
SWEEP_CASE_TAGS = [
    tag for tag, (_, _, runner) in suites.REGISTRY.items()
    if type(runner) is suites.Sweep
    or tag in ("Eq.1", "Eq.1a", "Eq.1b", "Eq.4.1c", "Eq.OB")]


def raised_last_step(profiles):
    """Recursion profiles ``(..., m + 1)`` whose first profile's last step
    rises by 1e-11 relative; the others are left as they are."""
    profiles = profiles.copy()
    first = profiles.reshape(-1, profiles.shape[-1])[0]
    first[-1] = first[-2] + 1e-11 * max(1.0, first[-2])
    return profiles


#: Residual cases: ``(tag, case name, perturbation)``, where the
#: perturbation of the result of the tag's operation puts the case's
#: residual, its ``lhs``, at 10x its threshold, its ``extra.tol``.
RESIDUAL_INJECTIONS = [
    ("Eq.AB", "pauli-parametrization", lambda residual: residual + 1e-11),
    ("Eq.4.2", "top-k-functional-consistency",
     lambda top: top + 1e-8 * np.maximum(1.0, top)),
    ("Eq.Sn1", "delta2-identity", lambda d: d + 1e-9 * np.maximum(1.0, d)),
    ("Eq.SP", "operator-norm-identity",
     lambda norm: norm + 1e-11 * np.maximum(1.0, norm)),
    ("Eq.DDN", "recursion-non-increasing", raised_last_step),
    ("Eq.R.quadrature", "pauli-ratio-quadrature",
     lambda result: dataclasses.replace(result, ratio=result.ratio + 1e-7)),
    ("EqualityOrder", "equality-commuting",
     lambda scan: dataclasses.replace(scan, gaps=scan.gaps + 1e-11)
     if scan.commuting else scan),
    ("EqualityOrder", "equality-order-fit",
     lambda scan: scan if scan.commuting
     else dataclasses.replace(scan, slope=scan.slope + 1.0)),
]


def just_below(exact: float) -> float:
    """A bound below the tail ``exact`` by twice the rounding tolerance of
    an exact inequality."""
    return exact - 2.0 * float(inequality_tol(exact, exact))


def bound_below_exact(report: TailReport) -> TailReport:
    """``report``'s count and exact tail judged against a bound just below
    the exact tail."""
    return TailReport.from_counts(report.exceed, report.trials,
                                  report.exact_tail,
                                  just_below(report.exact_tail), report.extras)


def without_one_sided_tails(report: TailReport) -> TailReport:
    """``report`` with both one-sided tail frequencies read as 0."""
    return dataclasses.replace(report, extras={**report.extras,
                                               "upper_tail": 0.0,
                                               "lower_tail": 0.0})


#: Tail, hunt and limit tags: ``tag -> wrap``, where ``wrap(operation)``
#: replaces the tag's operation so that every case of the tag must fail.
VERDICT_INJECTIONS = {
    # a hunt that finds no witness
    "Eq.4.1d": lambda scan: lambda stream, budget: None,
    "ABC.trace": lambda scan: lambda stream, budget: None,
    # a tail bound just below the exact tail; Eq.RU's variance proxy k/N
    # gives back the N of its cell
    "Eq.C": lambda chernoff: lambda *args, **kwargs: bound_below_exact(
        chernoff(*args, **kwargs)),
    "Eq.RU": lambda bound: lambda k, eps, sigma2: just_below(
        conc.exact_tail(round(k / sigma2), k, eps)),
    # one-sided tails that miss every two-sided exceedance
    "Eq.rf": lambda tail: lambda *args: [
        without_one_sided_tails(report) for report in tail(*args)],
    # a Hermitization ratio 20% above sqrt(2), twice the allowed deviation
    "Limit.sqrt2": lambda ratio: lambda *args: dataclasses.replace(
        ratio(*args), ratio=1.2 * math.sqrt(2.0)),
}

#: Tags covered by a test of their own: ``tag -> (class, test)``.
OWN_INJECTION_TESTS = {
    "Eq.S": ("TestRegistry", "test_a_biased_stacked_covariance_fails_eq_s"),
    "Eq.S3": ("TestRegistry",
              "test_a_covariance_off_its_rank_one_sum_fails_eq_s3"),
    "Eq.LT": ("TestRegistry",
              "test_a_commuting_pair_off_its_exponential_fails_eq_lt"),
    "Eq.R": ("TestMonteCarloEscalation",
             "test_ratio_real_violation_still_fails"),
    "Eq.GTE": ("TestRegistry",
               "test_a_right_side_below_the_left_fails_eq_gte"),
    "Eq.rf1": ("TestRegistry", "test_a_left_side_raised_by_0_15_fails_eq_rf1"),
}


class TestRegistry:
    EXPECTED_TAGS = {
        # 2x2 reduction, hyperbolic forms, scalar bound
        "Eq.AB", "Eq.1", "Eq.1a", "Eq.1aA", "Eq.1b",
        # product-word lemmas and the limit formula
        "Lemma.1", "Lemma.2", "Lemma.3", "Eq.LT",
        # singular-value dominance and convex transfer
        "Eq.2.6", "Eq.H", "Eq.W2", "Eq.ALT", "Lemma.5",
        # spectral functionals and norm variants
        "Eq.4", "Eq.4.2", "Eq.4.1", "Eq.4.1w", "Eq.5", "Eq.5a",
        "Eq.Sn", "Eq.Sn1",
        # non-Hermitian extension, three-matrix bound, equality order
        "Eq.4.1a", "Eq.4.1b", "Eq.4.1c", "EqualityOrder",
        # covariance experiment and tail machinery
        "Eq.S", "Eq.S3", "Eq.SP", "Eq.C", "Eq.rf", "Eq.rf1", "Eq.J",
        "Eq.GTE", "Eq.4.29", "Eq.RU",
        # sign-series bounds
        "Eq.OB", "Eq.DDN", "Eq.DD1", "Eq.RUvsOB",
        # ensemble averages and hunts
        "Eq.R", "Eq.R.quadrature", "Limit.sqrt2", "Eq.4.1d", "ABC.trace",
    }

    def test_registry_is_exhaustive(self):
        assert set(suites.REGISTRY) == self.EXPECTED_TAGS

    def test_each_tag_maps_to_one_operation(self):
        for tag, (suite, operation, _) in suites.REGISTRY.items():
            assert suite in suites.SUITE_NAMES
            assert isinstance(operation, str) and "." in operation

    @pytest.fixture(scope="class")
    def runs(self):
        """Per runnable tag, the code objects its runner calls at trials=20
        and the cases it returns."""
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        found = {}

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)

        for tag, (_, _, runner) in suites.REGISTRY.items():
            if runner is None:
                continue
            called = set()
            sys.setprofile(profile)
            try:
                cases = runner(params, _tag_stream(1, tag), tag)
            finally:
                sys.setprofile(None)
            found[tag] = called, cases
        return found

    def test_each_runner_calls_its_operation(self, runs):
        missed = []
        for tag, (_, operation, runner) in suites.REGISTRY.items():
            if runner is None:
                continue
            called, _ = runs[tag]
            if operation_of(tag).__code__ not in called:
                missed.append((tag, operation))
        assert not missed, f"runners that skip their row's operation: {missed}"

    def test_each_runner_emits_its_tag(self, runs):
        emitted = {(tag, case.equation) for tag, (_, cases) in runs.items()
                   for case in cases}
        # the Eq.1a runner emits the law-of-cosines restatement as well
        assert emitted - {(tag, tag) for tag in runs} == {("Eq.1a", "Eq.1aA")}

    @pytest.mark.parametrize("tag", SWEEP_CASE_TAGS)
    def test_a_broken_checker_fails_its_sweep_case(self, tag, monkeypatch):
        runner = injected(monkeypatch, tag, broken)
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        cases = runner(params, _tag_stream(1, tag), tag)
        failed = [(c.status, c.extra.get("violations")) for c in cases
                  if c.status != "pass"]
        assert failed == [("fail", 1)]

    def test_a_covariance_off_its_rank_one_sum_fails_eq_s3(self, monkeypatch):
        covariance = conc.covariance
        monkeypatch.setattr(conc, "covariance",
                            lambda X: covariance(X) * (1 + 1e-9))
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        case, = suites.REGISTRY["Eq.S3"][2](params, _tag_stream(1, "Eq.S3"),
                                            "Eq.S3")
        assert case.status == "fail" and case.lhs > case.extra["tol"]

    def test_a_biased_stacked_covariance_fails_eq_s(self, monkeypatch):
        # only the Monte Carlo half passes stacks: the constructed identity
        # block is 2-d and keeps its exact residual
        covariance = conc.covariance
        monkeypatch.setattr(conc, "covariance", lambda X: covariance(X) + (
            5e-2 * np.eye(X.shape[-1]) if X.ndim > 2 else 0.0))
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        case, = suites._run_covariance_identity(params, _tag_stream(1, "Eq.S"),
                                                "Eq.S")
        assert case.status == "fail" and case.lhs > case.rhs
        assert case.extra["constructed_identity_residual"] <= 1e-12

    def test_a_commuting_pair_off_its_exponential_fails_eq_lt(self,
                                                              monkeypatch):
        product = suites.lie_trotter_product

        def perturbed(A, B, n):
            # the commuting pair is the 3x3 diagonal one
            P = product(A, B, n)
            return P + 1e-9 * np.eye(3) if P.shape == (3, 3) else P

        monkeypatch.setattr(suites, "lie_trotter_product", perturbed)
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        case, = suites._run_lie_trotter(params, _tag_stream(1, "Eq.LT"),
                                        "Eq.LT")
        # the fitted order's gap still passes; the commuting deviation fails
        assert case.status == "fail" and case.margin >= -case.extra["tol"]
        assert case.extra["commuting_deviation"] > 1e-12

    def test_a_right_side_below_the_left_fails_eq_gte(self, monkeypatch):
        def below(check):
            def wrapped(exp, mu, stream):
                report = check(exp, mu, stream)
                return GapReport.from_sides(
                    report.lhs, report.lhs - 10 * report.tol, tol=report.tol)
            return wrapped

        patch_operation(monkeypatch, "Eq.GTE", below)
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        cases = suites._run_mgf_lemma(params, _tag_stream(1, "Eq.GTE"),
                                      "Eq.GTE")
        assert [(c.name, c.status) for c in cases] \
            == [("mgf-lemma-mu+1", "fail"), ("mgf-lemma-mu-1", "fail")]

    def test_a_left_side_raised_by_0_15_fails_eq_rf1(self, monkeypatch):
        # both sides are means over the same draws, so the slack is small:
        # about 0.07 at this seed's 2000 trials
        def raised(check):
            def wrapped(trials, stream):
                report = check(trials, stream)
                return GapReport.from_sides(report.lhs + 0.15, report.rhs,
                                            tol=report.tol)
            return wrapped

        patch_operation(monkeypatch, "Eq.rf1", raised)
        params = suites.SuiteParams(seed=3, trials=20, dims=(2,))
        case, = suites._run_bernstein(params, _tag_stream(3, "Eq.rf1"),
                                      "Eq.rf1")
        assert (case.status, case.trials) == ("fail", 2000)

    def test_a_broken_law_of_cosines_fails_eq_1aa(self, monkeypatch):
        monkeypatch.setattr(ineq, "pauli_law_gap", broken(ineq.pauli_law_gap))
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        cosh, law = suites._run_pauli_reduce(params, _tag_stream(1, "Eq.1a"),
                                             "Eq.1a")
        assert cosh.status == "pass"
        assert (law.name, law.status, law.extra["violations"]) \
            == ("pauli-law-of-cosines", "fail", 1)

    def test_a_matrix_route_off_the_closed_form_fails_eq_1a(self,
                                                           monkeypatch):
        trace_expm = ineq.trace_expm
        monkeypatch.setattr(ineq, "trace_expm",
                            lambda M: trace_expm(M) * (1 + 1e-9))
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        cosh, law = suites._run_pauli_reduce(params, _tag_stream(1, "Eq.1a"),
                                             "Eq.1a")
        # the closed forms still pass; the second route disagrees
        assert (cosh.status, cosh.extra["violations"]) == ("fail", 0)
        assert cosh.extra["max_route_discrepancy"] > 1e-10
        assert law.status == "pass"
        # Eq.R's matrix route is the same check
        est = studies.pauli_ratio_mc(20, _tag_stream(1, "Eq.R"))
        assert est.extras["trialwise_violations"] == 0
        assert est.extras["matrix_route_max_discrepancy"] > 1e-10

    @pytest.mark.parametrize("tag, name, perturb", RESIDUAL_INJECTIONS,
                             ids=[name for _, name, _ in RESIDUAL_INJECTIONS])
    def test_a_residual_at_ten_thresholds_fails_its_case(self, tag, name,
                                                         perturb, monkeypatch):
        patch_operation(monkeypatch, tag,
                        lambda fn: lambda *args: perturb(fn(*args)))
        _, _, runner = suites.REGISTRY[tag]
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        cases = {c.name: c for c in runner(params, _tag_stream(1, tag), tag)}
        case = cases.pop(name)
        assert case.status == "fail"
        assert case.lhs == pytest.approx(10 * case.extra["tol"], rel=0.02)
        assert all(c.status == "pass" for c in cases.values())

    def test_every_gap_case_records_the_tol_it_was_judged_by(self, tmp_path):
        configs = {"verify": BASE_CONFIG,
                   "tail": {"suites": ["concentration"], "trials": 200,
                            "seed": 1},
                   "ratio": {"suites": ["studies"], "dims": [8],
                             "trials": 200, "seed": 1}}
        judged = []
        for command, config in configs.items():
            _, text = run_cli(tmp_path, config, command)
            judged += [c for c in json.loads(text)["cases"]
                       if "tol" in c["extra"]]
        by_name = {c["name"]: c for c in judged}
        assert "tail-union-bound" in by_name
        # a residual identity is the gap residual <= 0 within its threshold
        for name in ("lie-trotter-order", "rank-one-decomposition",
                     "pauli-ratio-quadrature"):
            assert by_name[name]["rhs"] == 0.0
        for case in judged:
            tol = case["extra"]["tol"]
            assert isinstance(tol, float) and math.isfinite(tol) and tol > 0
            if case["status"] == "pass":
                assert case["margin"] >= -tol, case["name"]

    def test_delta2_identity_passes_at_dimension_64(self):
        # the worst residual is rounding of about cond(e^A) ulps, above the
        # bare 1e-10 floor and below the derived bound
        params = suites.SuiteParams(seed=1, trials=60, dims=(64,))
        case, = suites.REGISTRY["Eq.Sn1"][2](params, _tag_stream(1, "Eq.Sn1"),
                                             "Eq.Sn1")
        assert case.status == "pass" and case.lhs > 1e-10

    @pytest.mark.parametrize("tag", VERDICT_INJECTIONS)
    def test_a_broken_tail_or_hunt_fails_every_case(self, tag, monkeypatch):
        runner = injected(monkeypatch, tag, VERDICT_INJECTIONS[tag])
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        cases = runner(params, _tag_stream(1, tag), tag)
        assert cases and all(c.status == "fail" for c in cases)

    @pytest.mark.parametrize("tag", ["Eq.C", "Eq.RU"])
    def test_a_count_beyond_its_band_fails_every_case(self, tag, monkeypatch):
        # each count moves to one past the upper edge of its band; the
        # exact tails and the bounds are untouched
        from_counts = TailReport.from_counts

        def moved(exceed, trials, exact, bound, extras):
            band = from_counts(exceed, trials, exact, bound, extras).band
            return from_counts(math.floor(trials * exact + band) + 1, trials,
                               exact, bound, extras)

        monkeypatch.setattr(TailReport, "from_counts", staticmethod(moved))
        _, _, runner = suites.REGISTRY[tag]
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        cases = runner(params, _tag_stream(1, tag), tag)
        assert cases and all(c.status == "fail" and c.margin > 0
                             for c in cases)

    def test_every_runnable_tag_has_an_injection_test(self):
        for cls, test in OWN_INJECTION_TESTS.values():
            assert callable(getattr(globals()[cls], test, None)), (cls, test)
        covered = {*SWEEP_CASE_TAGS, *VERDICT_INJECTIONS, *OWN_INJECTION_TESTS,
                   *(tag for tag, _, _ in RESIDUAL_INJECTIONS)}
        runnable = {tag for tags in suites.SUITE_TAGS.values() for tag in tags}
        missed = runnable - covered
        assert not missed, f"tags without an injection test: {sorted(missed)}"

    def test_suite_tags_cover_runners(self):
        runnable = {tag for tag, (_, _, runner) in suites.REGISTRY.items()
                    if runner is not None}
        listed = {tag for tags in suites.SUITE_TAGS.values() for tag in tags}
        assert runnable == listed

    def test_report_cases_tagged_from_registry(self, tmp_path):
        _, text = run_cli(tmp_path, BASE_CONFIG)
        for case in json.loads(text)["cases"]:
            assert case["equation"] in suites.REGISTRY

    def test_summary_counts_match_cases(self, tmp_path):
        _, text = run_cli(tmp_path, BASE_CONFIG)
        report = json.loads(text)
        statuses = [c["status"] for c in report["cases"]]
        assert report["summary"]["total"] == len(statuses)
        assert report["summary"]["passed"] == statuses.count("pass")
        assert report["summary"]["failed"] == statuses.count("fail")
        assert report["summary"]["indeterminate"] \
            == statuses.count("indeterminate")


def subprocess_env(**variables) -> dict:
    """This environment with ``src/`` on the path and ``variables`` set."""
    return {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}


#: The scipy modules a probe has loaded.
SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestStartup:
    @staticmethod
    def probe(tmp_path, commands, report: str, pooled: bool = False) -> str:
        """What ``report`` evaluates to in a fresh interpreter (the test
        modules themselves import scipy) after ``import gtlab.cli`` and a
        small config of each ``(subcommand, suite)`` of ``commands``, run on
        one CPU, or ``pooled`` on two pretended cores."""
        code = (
            "import json, os, sys, gtlab.cli\n"
            "tmp = sys.argv[1]\n"
            "cpus = os.sched_getaffinity(0)\n"
            # on one CPU the tags run in this process, whose modules are
            # reported; pooled, they run in two forked workers
            + ("os.sched_getaffinity = lambda pid: {0, 1}\n" if pooled else
               "os.sched_setaffinity(0, {min(cpus)})\n") +
            f"for cmd, suite in {commands!r}:\n"
            "    cfg = f'{tmp}/{cmd}.json'\n"
            "    with open(cfg, 'w') as fh:\n"
            "        json.dump({'suites': [suite], 'trials': 5, 'seed': 1}, fh)\n"
            "    assert gtlab.cli.main([cmd, '--config', cfg, '--out', "
            "f'{tmp}/{cmd}.out']) == 0, cmd\n"
            + ("" if pooled else "os.sched_setaffinity(0, cpus)\n") +
            f"print({report})\n")
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              env=subprocess_env(), capture_output=True,
                              text=True, check=True)
        return done.stdout.strip()

    def test_package_import_loads_no_numpy(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, gtlab; print('numpy' in sys.modules)"],
            env=subprocess_env(), capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_only_tail_loads_decimal(self, tmp_path):
        # exact_tail imports decimal when it runs, so start-up and the
        # other subcommands leave it unloaded
        loaded = "'decimal' in sys.modules"
        assert self.probe(tmp_path, (), loaded) == "False"
        commands = (("verify", "inequalities"), ("ratio", "studies"),
                    ("hunt", "counterexamples"))
        assert self.probe(tmp_path, commands, loaded) == "False"
        assert self.probe(tmp_path, (("tail", "concentration"),),
                          loaded) == "True"

    def test_cli_import_loads_no_scipy(self, tmp_path):
        assert self.probe(tmp_path, (), SCIPY_MODULES) == "[]"

    def test_cli_import_loads_no_process_pool(self, tmp_path):
        # fork_map forks its workers itself, on one CPU and pooled alike
        loaded = ("sorted(m for m in sys.modules if m.split('.')[0] in "
                  "('multiprocessing', 'concurrent'))")
        assert self.probe(tmp_path, (), loaded) == "[]"
        commands = (("verify", "inequalities"), ("tail", "concentration"),
                    ("ratio", "studies"), ("hunt", "counterexamples"))
        assert self.probe(tmp_path, commands, loaded) == "[]"
        assert self.probe(tmp_path, commands, loaded, pooled=True) == "[]"

    def test_verify_ratio_and_hunt_load_no_scipy(self, tmp_path):
        # both quadrature routes run (Eq.4.1c under verify, Eq.R under
        # ratio)
        commands = (("verify", "inequalities"), ("ratio", "studies"),
                    ("hunt", "counterexamples"))
        assert self.probe(tmp_path, commands, SCIPY_MODULES) == "[]"

    def test_no_subcommand_loads_scipy_beyond_special(self, tmp_path):
        # all four subcommands in one interpreter: tail's exact laws run
        # too, and load no scipy module at all, scipy.special included
        commands = (("verify", "inequalities"), ("tail", "concentration"),
                    ("ratio", "studies"), ("hunt", "counterexamples"))
        assert self.probe(tmp_path, commands, SCIPY_MODULES) == "[]"


class TestBlasPin:
    def test_main_pins_blas_and_import_does_not(self, tmp_path):
        # eigvals at n = 128 differs between one and two BLAS threads
        if not hasattr(linalg._bundled_openblas(),
                       "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy carries no bundled OpenBLAS to pin")
        cfg = tmp_path / "ratio.json"
        cfg.write_text(json.dumps({"suites": ["studies"], "dims": [128],
                                   "trials": 200, "seed": 7}))
        code = ("import sys, gtlab.cli\n"
                "threads = gtlab.linalg._bundled_openblas()"
                ".scipy_openblas_get_num_threads64_\n"
                "print(threads())\n"
                "gtlab.cli.main(sys.argv[1:])\n"
                "print(threads())\n")
        reports = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", code, "ratio", "--config", str(cfg),
                 "--out", str(tmp_path / threads)],
                env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, check=True)
            reports.append((tmp_path / threads).read_bytes())
        # the import left the two-thread setting (OpenBLAS runs at most one
        # thread per core), and main pinned it to one
        assert done.stdout.split() \
            == [str(min(2, len(os.sched_getaffinity(0)))), "1"]
        assert reports[0] == reports[1]


class TestWorkerProcesses:
    """A suite's tags run in forked worker processes, one per core."""

    CONFIGS = {
        "verify": BASE_CONFIG,
        "tail": {"suites": ["concentration"], "trials": 200, "seed": 1},
        "ratio": {"suites": ["studies"], "dims": [8], "trials": 200,
                  "seed": 1},
        "hunt": {"suites": ["counterexamples"], "trials": 40, "seed": 1},
    }

    #: Runners that a fresh interpreter puts in place of a tag's.
    RUNNERS = (
        "import os, signal, sys, time, gtlab.cli\n"
        "from gtlab import suites\n"
        "def dies(params, stream, tag):\n"
        "    os._exit(9)\n"
        "def killed(params, stream, tag):\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "def raises(params, stream, tag):\n"
        "    raise ValueError(tag)\n"
        "def raises_late(params, stream, tag):\n"
        "    time.sleep(0.5)\n"
        "    raise ValueError(tag)\n")

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_reports_do_not_depend_on_the_worker_count(self, tmp_path,
                                                       cores, command):
        # the tags, and the Hermitization trials, are gathered in order
        reports = []
        for count in (1, 3):
            cores(count)
            reports.append(run_cli(tmp_path, self.CONFIGS[command], command))
        assert reports[0] == reports[1] and reports[0][0] == 0

    def failing_run(self, tmp_path, workers: int, runners: dict):
        """Exit code and stderr lines of ``gtlab verify`` on
        ``BASE_CONFIG`` in a fresh interpreter that pretends to run on
        ``workers`` cores, with each tag of ``runners`` run by the runner
        of :attr:`RUNNERS` it names; a run that hangs fails after 60 s."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        code = self.RUNNERS + (
            f"os.sched_getaffinity = lambda pid: set(range({workers}))\n"
            f"for tag, runner in {runners!r}.items():\n"
            "    suite, operation, _ = suites.REGISTRY[tag]\n"
            "    suites.REGISTRY[tag] = (suite, operation, globals()[runner])\n"
            "sys.exit(gtlab.cli.main(sys.argv[1:]))\n")
        out = tmp_path / "report"
        done = subprocess.run(
            [sys.executable, "-c", code, "verify", "--config", str(cfg),
             "--out", str(out)],
            env=subprocess_env(), capture_output=True, text=True, timeout=60)
        assert not out.exists()
        return done.returncode, done.stderr.splitlines()

    def test_a_dead_worker_exits_three(self, tmp_path):
        # not exit 1, which says that a case failed; a worker that exits
        # and one that a signal kills
        for runner in ("dies", "killed"):
            code, err = self.failing_run(tmp_path, 2, {"Eq.1b": runner})
            assert code == 3 and len(err) == 1, (runner, err)
            assert err[0].startswith(
                "gtlab: error: suite inequalities: WorkerDied: "), err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_first_tag_that_raises_is_named(self, tmp_path, workers):
        # on two workers Eq.LT, three tags later, raises first
        code, err = self.failing_run(
            tmp_path, workers, {"Eq.1": "raises_late", "Eq.LT": "raises"})
        assert (code, err) == (3, ["gtlab: error: Eq.1: ValueError: Eq.1"])


class FakeLibc:
    """A C library whose ``mallopt`` records each ``(param, value)`` call and
    returns ``answer`` (glibc returns 0 when it refuses a value)."""

    def __init__(self, answer: int = 1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return answer
        self.mallopt = mallopt


def fake_c_library(monkeypatch, library):
    """``ctypes.CDLL(None)`` returns ``library``, or raises it when it is an
    exception; every named library still loads."""
    real = ctypes.CDLL

    def cdll(name, *args, **kwargs):
        if name is not None:
            return real(name, *args, **kwargs)
        if isinstance(library, Exception):
            raise library
        return library
    monkeypatch.setattr(ctypes, "CDLL", cdll)


class TestHeapPolicy:
    TAIL = {"suites": ["concentration"], "trials": 5, "seed": 1}

    def test_main_sets_both_thresholds_from_the_block(self, tmp_path,
                                                       monkeypatch):
        libc = FakeLibc()
        fake_c_library(monkeypatch, libc)
        code, _ = run_cli(tmp_path, self.TAIL, command="tail")
        assert code == 0
        # a block of complex128 entries is 1 MiB: M_MMAP_THRESHOLD (-3) at
        # 4 blocks, M_TRIM_THRESHOLD (-1) at 8
        block = samplers.BLOCK_ENTRIES * 16
        assert libc.calls == [(-3, 4 * block), (-1, 8 * block)]
        assert block == 2 ** 20

    def test_import_sets_nothing(self, tmp_path):
        # the same fake in a fresh interpreter, installed before the import;
        # main on a missing config (exit 2) shows that the fake is seen
        code = ("import ctypes, sys, types\n"
                "calls, real = [], ctypes.CDLL\n"
                "libc = types.SimpleNamespace(\n"
                "    mallopt=lambda param, value: calls.append(param) or 1)\n"
                "ctypes.CDLL = lambda name, *a, **k: "
                "libc if name is None else real(name, *a, **k)\n"
                "import gtlab.cli\n"
                "print(len(calls))\n"
                "assert gtlab.cli.main(['tail', '--config', sys.argv[1]]) == 2\n"
                "print(len(calls))\n")
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "missing.json")],
            env=subprocess_env(), capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["0", "2"]

    @pytest.mark.parametrize("library", [
        OSError("no C library"), types.SimpleNamespace(), FakeLibc(answer=0)],
        ids=["no-library", "no-mallopt", "refused"])
    def test_main_runs_without_the_policy(self, tmp_path, monkeypatch,
                                          library):
        expected = run_cli(tmp_path, self.TAIL, command="tail")
        fake_c_library(monkeypatch, library)
        assert run_cli(tmp_path, self.TAIL, command="tail") == expected
        assert expected[0] == 0


def operation_of(tag: str):
    """The function a registry row's operation names."""
    module, name = suites.REGISTRY[tag][1].split(".")
    return getattr(importlib.import_module(f"gtlab.{module}"), name)


def patch_operation(monkeypatch, tag: str, wrap):
    """Replace the function a registry row's operation names by
    ``wrap(function)``, in its module and where ``suites`` binds it."""
    fn = operation_of(tag)
    wrapped = wrap(fn)
    module, name = suites.REGISTRY[tag][1].split(".")
    monkeypatch.setattr(importlib.import_module(f"gtlab.{module}"), name,
                        wrapped)
    if getattr(suites, name, None) is fn:
        monkeypatch.setattr(suites, name, wrapped)


def injected(monkeypatch, tag: str, wrap):
    """The runner of ``tag`` with its row's operation replaced by
    ``wrap(operation)``: in the row, for a Sweep or a Hunt, which holds its
    operation; where :func:`patch_operation` puts it, for the others."""
    _, _, runner = suites.REGISTRY[tag]
    if type(runner) is suites.Sweep:
        return dataclasses.replace(runner, check=wrap(runner.check))
    if isinstance(runner, suites.Hunt):
        return dataclasses.replace(runner, scan=wrap(runner.scan))
    patch_operation(monkeypatch, tag, wrap)
    return runner


def broken(check):
    """``check`` whose first call reports its first instance with the left
    side 10 tol past the right side; every other instance is left as is."""
    calls = []

    def wrapped(*args, **kwargs):
        report = check(*args, **kwargs)
        calls.append(None)
        if len(calls) > 1:
            return report
        lhs = np.array(report.lhs, dtype=np.float64)
        lhs.flat[0] = np.ravel(report.rhs)[0] + 10 * np.ravel(report.tol)[0]
        return GapReport.from_sides(lhs, report.rhs, tol=report.tol)

    return wrapped


class TestTagStreams:
    """Each tag draws from a stream keyed by its name alone."""

    def test_tag_labels_are_distinct(self):
        paths = {_tag_stream(1, tag).path for tag in suites.REGISTRY}
        assert len(paths) == len(suites.REGISTRY)

    def test_reversed_registry_gives_every_tag_the_same_cases(self,
                                                              monkeypatch):
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))

        def cases():
            # each record names its tag, so equal sorted lists mean that
            # every tag gave the same cases
            return sorted(json.dumps(cli._json(dataclasses.asdict(case)))
                          for suite in suites.SUITE_NAMES
                          for case in suites.run_suite(suite, params))

        expected = cases()
        monkeypatch.setattr(suites, "REGISTRY",
                            dict(reversed(suites.REGISTRY.items())))
        monkeypatch.setattr(suites, "SUITE_TAGS", {
            suite: tags[::-1] for suite, tags in suites.SUITE_TAGS.items()})
        assert cases() == expected


def off_target(est):
    """A ratio estimate moved 10 se from its value."""
    return dataclasses.replace(est, ratio=est.ratio + 10 * est.ratio_se)


def past_the_bound(report: GapReport) -> GapReport:
    """A sign-series report whose left side is 10 se past its bound (its
    tol is 2 se)."""
    return GapReport.from_sides(report.rhs + 5 * report.tol, report.rhs,
                                tol=report.tol)


def shifted(fn, shift, calls=math.inf):
    """``fn`` with ``shift`` applied to the results of its first ``calls``
    calls."""
    made = itertools.count(1)
    return lambda *args: shift(fn(*args)) if next(made) <= calls else fn(*args)


class TestMonteCarloEscalation:
    """The two Monte Carlo cases rerun a miss once, on tenfold trials drawn
    from ``child(1)`` of the stream whose ``child(0)`` the first attempt
    drew from; the rerun decides.  A chance miss is forced by shifting the
    first attempt's result alone."""

    def test_sign_series_chance_miss_escalates_and_passes(self, monkeypatch):
        monkeypatch.setattr(conc, "oliveira_mgf_montecarlo", shifted(
            conc.oliveira_mgf_montecarlo, past_the_bound, calls=1))
        keys = record_stream_keys(monkeypatch)
        params = suites.SuiteParams(seed=1, trials=1000)
        stream = _tag_stream(1, "Eq.OB")
        _, case = suites._run_oliveira(params, stream, "Eq.OB")
        assert case.status == "pass" and case.extra["escalated"]
        assert case.trials == 100000
        assert len(set(keys)) == len(keys), "the escalation reused a stream key"
        assert keys[-2:] == [(1, stream.child(2, j).path) for j in (0, 1)]

    def test_ratio_chance_miss_escalates_and_passes(self, monkeypatch):
        estimate = studies.pauli_ratio_mc
        monkeypatch.setattr(studies, "pauli_ratio_mc",
                            shifted(estimate, off_target, calls=1))
        keys = record_stream_keys(monkeypatch)
        params = suites.SuiteParams(seed=1, trials=10000)
        stream = _tag_stream(1, "Eq.R")
        case, = suites._run_ratio_mc(params, stream, "Eq.R")
        assert case.status == "pass" and case.extra["escalated"]
        assert case.trials == 100000
        assert len(set(keys)) == len(keys), "the escalation reused a stream key"
        assert case.lhs == estimate(100000, stream.child(1)).ratio

    def test_a_pass_keeps_the_first_attempt(self):
        params = suites.SuiteParams(seed=1, trials=10000)
        stream = _tag_stream(1, "Eq.R")
        case, = suites._run_ratio_mc(params, stream, "Eq.R")
        est = studies.pauli_ratio_mc(10000, stream.child(0))
        assert case.status == "pass" and not case.extra["escalated"]
        assert (case.lhs, case.trials) == (est.ratio, 10000)

    def test_ratio_real_violation_still_fails(self, monkeypatch):
        monkeypatch.setattr(studies, "pauli_ratio_mc",
                            shifted(studies.pauli_ratio_mc, off_target))
        keys = record_stream_keys(monkeypatch)
        params = suites.SuiteParams(seed=1, trials=10000)
        case, = suites._run_ratio_mc(params, _tag_stream(1, "Eq.R"), "Eq.R")
        assert case.status == "fail" and case.extra["escalated"]
        assert case.trials == 100000
        assert len(set(keys)) == len(keys), "the escalation reused a stream key"

    def test_ratio_exact_identity_violation_fails_without_rerun(self,
                                                                monkeypatch):
        # a violated exact identity is no chance miss: no rerun is drawn
        monkeypatch.setattr(studies, "pauli_ratio_mc", shifted(
            studies.pauli_ratio_mc, lambda est: dataclasses.replace(
                est, extras={**est.extras, "trialwise_violations": 1})))
        keys = record_stream_keys(monkeypatch)
        params = suites.SuiteParams(seed=1, trials=10000)
        stream = _tag_stream(1, "Eq.R")
        case, = suites._run_ratio_mc(params, stream, "Eq.R")
        assert case.status == "fail" and not case.extra["escalated"]
        assert case.trials == 10000
        assert keys and all(path[:2] == stream.child(0).path
                            for _, path in keys)

    def test_sign_series_real_violation_still_fails(self, monkeypatch):
        monkeypatch.setattr(conc, "oliveira_mgf_montecarlo", shifted(
            conc.oliveira_mgf_montecarlo, past_the_bound))
        keys = record_stream_keys(monkeypatch)
        params = suites.SuiteParams(seed=1, trials=1000)
        _, case = suites._run_oliveira(params, _tag_stream(1, "Eq.OB"),
                                       "Eq.OB")
        assert case.status == "fail" and case.extra["escalated"]
        assert case.trials == 100000
        assert len(set(keys)) == len(keys), "the escalation reused a stream key"


class TestDominationGroups:
    """Eq.RU reads each (N, k) experiment's thresholds from one sample."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_grouped_reports_match_single_threshold_runs(self, seed):
        stream = _tag_stream(seed, "Eq.RU").child(1, 0)
        epsilons = (0.5, 1.0, 2.0)
        grouped = conc.empirical_tail(8, 2, epsilons, 2000, stream)
        for eps, report in zip(epsilons, grouped):
            single, = conc.empirical_tail(8, 2, (eps,), 2000, stream)
            assert report == single

    def test_grid_draws_one_sample_per_experiment(self, monkeypatch):
        keys = record_stream_keys(monkeypatch)
        params = suites.SuiteParams(seed=1001, trials=8000)
        cases = suites.REGISTRY["Eq.RU"][2](params, _tag_stream(1001, "Eq.RU"),
                                            "Eq.RU")
        assert len(cases) == 12
        assert all(case.status == "pass" for case in cases)
        # group g at child g, in blocks of N x k draws
        shapes = ((8, 1), (8, 2), (16, 1), (16, 2))
        assert sorted(path[1:] for _, path in keys) == [
            (g, 0, b) for g, (n, k) in enumerate(shapes)
            for b in range(math.ceil(8000 / samplers.block_instances(n * k)))]


class _DrawRecorder:
    """Stands in for the generator ``rng``: each draw is passed through and
    its entries are appended to ``sizes``."""

    def __init__(self, rng, sizes: list):
        self.rng, self.sizes = rng, sizes

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def recorded(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.sizes.append(np.size(out))
            return out

        return recorded


def _spend_budget(monkeypatch, scan):
    """``scan`` with no tolerance to beat, so it spends its whole budget."""
    monkeypatch.setattr(ineq, "inequality_tol", lambda lhs, rhs: np.inf)
    return scan


#: ``site -> (trials, entries drawn per instance, run(monkeypatch, trials))``
#: at a trial count that needs two or more blocks.
BLOCKED_SITES = {
    "Eq.AB": (30000, 3, lambda mp, trials: suites.REGISTRY["Eq.AB"][2](
        suites.SuiteParams(seed=1, trials=trials), _tag_stream(1, "Eq.AB"),
        "Eq.AB")),
    # a 2x2 Ginibre matrix and a word of 2, 4, 6 or 8 letters per instance,
    # 9 entries on average; the 8-letter group needs two blocks
    "Lemma.2": (40000, 9, lambda mp, trials: suites.REGISTRY["Lemma.2"][2](
        suites.SuiteParams(seed=1, trials=trials, dims=(2,)),
        _tag_stream(1, "Lemma.2"), "Lemma.2")),
    "Eq.1a": (50000, 6, lambda mp, trials: suites._run_pauli_reduce(
        suites.SuiteParams(seed=1, trials=trials), _tag_stream(1, "Eq.1a"),
        "Eq.1a")),
    "Eq.S": (5000, 64, lambda mp, trials: suites._run_covariance_identity(
        suites.SuiteParams(seed=1, trials=trials), _tag_stream(1, "Eq.S"),
        "Eq.S")),
    "Eq.RU-8x1": (10000, 8, lambda mp, trials: conc.empirical_tail(
        8, 1, (0.5,), trials, _tag_stream(1, "Eq.RU"))),
    "Eq.rf-16x2": (5000, 32, lambda mp, trials: conc.empirical_tail(
        16, 2, (0.5,), trials, _tag_stream(1, "Eq.rf"))),
    "Eq.C": (10 ** 6, 20, lambda mp, trials: conc.scalar_chernoff(
        _tag_stream(1, "Eq.C"), trials)),
    "Eq.R": (50000, 6, lambda mp, trials: studies.pauli_ratio_mc(
        trials, _tag_stream(1, "Eq.R"))),
    "triple-hunt": (50000, 9, lambda mp, trials: _spend_budget(
        mp, ineq.triple_gt_scan)(_tag_stream(1, "Eq.4.1d"), trials)),
    "abc-hunt": (5000, 27, lambda mp, trials: _spend_budget(
        mp, ineq.abc_trace_scan)(_tag_stream(1, "ABC.trace"), trials)),
    "sweep-n48": (60, 2 * 48 ** 2, lambda mp, trials: suites._run_gt(
        suites.SuiteParams(seed=1, trials=trials, dims=(48,)),
        _tag_stream(1, "Eq.1"), "Eq.1")),
    "Eq.rf1": (5000, 16 * 2, lambda mp, trials: conc.bernstein_tail_check(
        trials, _tag_stream(1, "Eq.rf1"))),
    "Eq.GTE-mu+1": (20000, 4 * 2, lambda mp, trials: conc.aw_mgf_lemma_check(
        1.0, trials, _tag_stream(1, "Eq.GTE").child(0))),
    "Eq.GTE-mu-1": (20000, 4 * 2, lambda mp, trials: conc.aw_mgf_lemma_check(
        -1.0, trials, _tag_stream(1, "Eq.GTE").child(1))),
    # a 4n x n block per instance, two groups (one per exponent) of two or
    # more blocks each
    "Eq.J-n2": (10000, 4 * 2 * 2, lambda mp, trials: suites.REGISTRY["Eq.J"][2](
        suites.SuiteParams(seed=1, trials=trials, dims=(2,)),
        _tag_stream(1, "Eq.J"), "Eq.J")),
    "Eq.J-n4": (3000, 4 * 4 * 4, lambda mp, trials: suites.REGISTRY["Eq.J"][2](
        suites.SuiteParams(seed=1, trials=trials, dims=(4,)),
        _tag_stream(1, "Eq.J"), "Eq.J")),
}


class TestBlockRule:
    """Every blocked draw follows ``samplers.block_instances``: no array a
    block draws has more than ``BLOCK_ENTRIES`` entries, a complex entry
    counting once, so memory does not grow with the trial count."""

    @pytest.mark.parametrize("site", BLOCKED_SITES)
    def test_no_draw_exceeds_the_block_entries(self, site, monkeypatch):
        sizes, generators = [], []
        generator, standard_complex = RngStream.generator, \
            samplers.standard_complex

        def recording(stream):
            generators.append(stream)
            return _DrawRecorder(generator(stream), sizes)

        def complex_draw(rng, shape):
            out = standard_complex(rng.rng, shape)
            rng.sizes.append(out.size)
            return out

        monkeypatch.setattr(RngStream, "generator", recording)
        for module in (samplers, conc, suites):
            monkeypatch.setattr(module, "standard_complex", complex_draw)
        trials, entries, run = BLOCKED_SITES[site]
        run(monkeypatch, trials)
        assert len(generators) >= 2
        # every instance is drawn once, and no array exceeds a block
        assert sum(sizes) == trials * entries
        assert max(sizes) <= samplers.BLOCK_ENTRIES


class TestMemoryIsBoundedByTheBlock:
    """A runner's peak traced memory at ten times the trials stays within
    1.25x of its peak at ``T``: it reduces block by block and keeps no
    result per instance.  ``T`` spans two or more blocks."""

    #: ``runner -> (T, run(trials))``; Eq.SP's row is capped at 300
    #: instances, so its runner is taken without the cap.
    RUNS = {
        "Sweep-Eq.4.29": (8192, lambda trials: suites.REGISTRY["Eq.4.29"][2](
            suites.SuiteParams(seed=1, trials=trials, dims=(4,)),
            _tag_stream(1, "Eq.4.29"), "Eq.4.29")),
        "Residual-Eq.SP": (32768, lambda trials: dataclasses.replace(
            suites.REGISTRY["Eq.SP"][2], size=None)(
            suites.SuiteParams(seed=1, trials=trials, dims=(2,)),
            _tag_stream(1, "Eq.SP"), "Eq.SP")),
        "Eq.S": (4096, lambda trials: suites._run_covariance_identity(
            suites.SuiteParams(seed=1, trials=trials), _tag_stream(1, "Eq.S"),
            "Eq.S")),
        "Eq.rf1": (4096, lambda trials: conc.bernstein_tail_check(
            trials, _tag_stream(1, "Eq.rf1"))),
        "Eq.GTE": (16384, lambda trials: conc.aw_mgf_lemma_check(
            1.0, trials, _tag_stream(1, "Eq.GTE").child(0))),
        # four 2x2 terms: 16384 sign draws per chunk
        "Eq.OB": (32768, lambda trials: conc.oliveira_mgf_montecarlo(
            gue(RngStream(1).generator(), 2, 4), _tag_stream(1, "Eq.OB"),
            trials)),
    }

    @staticmethod
    def peak(run, trials) -> int:
        tracemalloc.start()
        try:
            run(trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("runner", RUNS)
    def test_peak_does_not_grow_with_the_trials(self, runner):
        trials, run = self.RUNS[runner]
        assert self.peak(run, 10 * trials) <= 1.25 * self.peak(run, trials)


class TestWorstInstance:
    """A sweep's running worst instance is the one ``np.argmin`` picks over
    the concatenated scores of every stack, whatever the split into
    stacks, with ties and NaN scores."""

    MARGINS = (0.0, -0.0, 1.0, -1.0, 2.5, math.nan)
    SCORES = st.lists(st.sampled_from((*MARGINS, math.inf, -math.inf)),
                      min_size=1, max_size=40)

    @staticmethod
    def cuts(data, size):
        """Random positions that cut ``size`` values into non-empty stacks."""
        return sorted(data.draw(st.sets(st.integers(1, size - 1)))) \
            if size > 1 else []

    @given(SCORES, st.data())
    @settings(max_examples=200, deadline=None)
    def test_running_pick_matches_the_concatenation(self, scores, data):
        cuts = self.cuts(data, len(scores))
        worst = suites._Worst()
        for block, index in zip(np.split(np.array(scores), cuts),
                                np.split(np.arange(len(scores)), cuts)):
            worst.add(block, index)
        assert worst.sides == (np.argmin(np.array(scores)),)
        assert worst.instances == len(scores)

    @given(st.lists(st.sampled_from(MARGINS), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_sweep_case_matches_one_report(self, margins, data):
        # rhs = lhs + margin: a NaN margin is a NaN right side
        lhs = np.arange(len(margins), dtype=np.float64)
        rhs = lhs + np.array(margins)
        cuts = self.cuts(data, len(margins))
        whole = suites._worst_case("w", "T", [GapReport.from_sides(lhs, rhs)])
        split = suites._worst_case("w", "T", (
            GapReport.from_sides(a, b)
            for a, b in zip(np.split(lhs, cuts), np.split(rhs, cuts))))
        assert repr(split) == repr(whole)


class TestPauliProductTerms:
    """Eq.1a and Eq.R evaluate the 2x2 product form once per pair: one
    :func:`~gtlab.pauli.product_terms` call per block."""

    @pytest.mark.parametrize("site", ("Eq.1a", "Eq.R"))
    def test_one_call_per_block(self, site, monkeypatch):
        calls = []
        product_terms = pauli.product_terms

        def counted(a, b):
            calls.append(len(a))
            return product_terms(a, b)

        monkeypatch.setattr(pauli, "product_terms", counted)
        trials, _, run = BLOCKED_SITES[site]
        run(monkeypatch, trials)
        size = samplers.block_instances(3)
        assert calls == [min(size, trials - start)
                         for start in range(0, trials, size)]


class TestReachability:
    """Every public function and method of gtlab runs under the CLI, and
    every parameter of one that has a default is both set to another value
    and omitted by some call there; every parameter takes two values, and
    every dataclass field is read.  Code, settings, branches and results
    that no tag or CLI path reaches or reads show up here."""

    CONFIGS = {
        "verify": {"suites": ["inequalities"], "trials": 50, "dims": [2],
                   "seed": 1},
        "tail": {"suites": ["concentration"], "trials": 50, "dims": [2],
                 "seed": 1},
        "ratio": {"suites": ["studies"], "trials": 50, "dims": [2], "seed": 1},
        # no seed: the default master seed is read
        "hunt": {"suites": ["counterexamples"], "trials": 50, "dims": [2]},
    }
    #: A second run of each subcommand, so that the values a runner takes
    #: from the config (a trial count floored at 10000, a dimension floored
    #: at 16) take a second value too.
    SECOND_CONFIGS = {
        "verify": {"suites": ["inequalities"], "trials": 60, "dims": [2, 3],
                   "seed": 2},
        "tail": {"suites": ["concentration"], "trials": 12000, "seed": 2},
        "ratio": {"suites": ["studies"], "trials": 12000, "dims": [20],
                  "seed": 2},
        "hunt": {"suites": ["counterexamples"], "trials": 120000, "seed": 2},
    }
    #: ``cli.run`` writes every field of a case through ``asdict``.
    UNREAD_EXEMPT = {"gtlab.suites.CaseRecord"}

    @staticmethod
    def modules():
        return [importlib.import_module(f"gtlab.{info.name}")
                for info in pkgutil.iter_modules(gtlab.__path__)]

    @classmethod
    def public_functions(cls):
        """Every public function, method and property getter defined in a
        gtlab module, by qualified name."""
        found = {}
        for module in cls.modules():
            for name, obj in vars(module).items():
                if name.startswith("_") \
                        or getattr(obj, "__module__", None) != module.__name__:
                    continue
                members = vars(obj).items() if inspect.isclass(obj) \
                    else ((None, obj),)
                for attr, member in members:
                    if attr is not None and attr.startswith("_"):
                        continue
                    if isinstance(member, property):
                        member = member.fget
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        label = name if attr is None else f"{name}.{attr}"
                        found[f"{module.__name__}.{label}"] = member
        return found

    @classmethod
    def gtlab_dataclasses(cls) -> dict:
        """Every dataclass defined in a gtlab module, by qualified name."""
        return {f"{module.__name__}.{name}": obj
                for module in cls.modules() for name, obj in vars(module).items()
                if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__}

    @classmethod
    def parameters(cls) -> dict:
        """``code -> [(qualified parameter name, parameter)]`` for each
        public function and for the constructor of each parameter record,
        a dataclass that validates its fields in ``__post_init__`` (result
        records are built from computed values, not settings)."""
        functions = dict(cls.public_functions())
        functions.update((name, klass.__init__)
                         for name, klass in cls.gtlab_dataclasses().items()
                         if "__post_init__" in vars(klass))
        return {fn.__code__: [(f"{name}.{p}", p)
                              for p in inspect.signature(fn).parameters]
                for name, fn in functions.items()}

    @classmethod
    def defaulted_parameters(cls) -> dict:
        """``code -> [(qualified parameter name, parameter, default)]`` for
        each public function with defaulted parameters."""
        found = {}
        for name, fn in cls.public_functions().items():
            found[fn.__code__] = [
                (f"{name}.{p.name}", p.name, p.default)
                for p in inspect.signature(fn).parameters.values()
                if p.default is not p.empty]
        return {code: params for code, params in found.items() if params}

    @staticmethod
    def is_default(value, default) -> bool:
        if value is default:
            return True
        try:
            return bool(value == default)
        except (TypeError, ValueError):
            # an array is another value than a scalar default
            return False

    @staticmethod
    def marked(default):
        """A stand-in for ``default`` that equals it but is not it, an
        instance of a subclass of its type, so that ``is`` tells an omitted
        argument from one passed equal to the default.  None and bools have
        no such stand-in and stay."""
        if default is None or isinstance(default, bool):
            return default
        return type("Default", (type(default),), {})(default)

    @classmethod
    def scalar_like(cls, value) -> bool:
        """None, a bool, an int, a float, a str or a tuple of those."""
        if isinstance(value, tuple):
            return all(map(cls.scalar_like, value))
        return value is None or type(value) in (bool, int, float, str)

    #: The methods of a dataclass that ``dataclasses`` generates or calls;
    #: their reads of a field neither use nor report it.
    DATACLASS_DUNDERS = ("__init__", "__post_init__", "__repr__", "__eq__",
                         "__hash__")

    @classmethod
    def field_reader(cls, klass, read: set):
        """A ``__getattribute__`` for ``klass`` that adds the qualified name
        of each field it reads to ``read``, unless the reader is
        ``dataclasses`` (``replace``, ``asdict``) or one of the class's own
        :data:`DATACLASS_DUNDERS`."""
        fields = {f.name for f in dataclasses.fields(klass)}
        # __repr__ is wrapped against recursion; the reads are the wrapped
        # function's
        own = {getattr(fn, "__code__", None) for name in cls.DATACLASS_DUNDERS
               if name in vars(klass)
               for fn in (vars(klass)[name], inspect.unwrap(vars(klass)[name]))}
        base = klass.__getattribute__
        label = f"{klass.__module__}.{klass.__qualname__}"

        def __getattribute__(self, name):
            if name in fields:
                caller = sys._getframe(1).f_code
                if caller not in own \
                        and caller.co_filename != dataclasses.__file__:
                    read.add(f"{label}.{name}")
            return base(self, name)
        return __getattribute__

    @pytest.fixture(scope="class")
    def profiled(self, tmp_path_factory):
        """What the CLI does at two configs per subcommand: the code objects
        it calls, the qualified names of the defaulted parameters it sets
        to another value and of those some call omits, the values each
        parameter takes (``None`` once one is not scalar-like), and the
        dataclass fields it reads.  Each default is replaced by its
        :meth:`marked` stand-in for the run, so an argument passed equal to
        its default counts as neither."""
        tmp_path = tmp_path_factory.mktemp("reachability")
        parameters = self.parameters()
        called, changed, taken, read = set(), set(), set(), set()
        values: dict = {}
        # id of each stand-in -> the default it stands in for
        originals: dict = {}

        def profile(frame, event, arg):
            if event != "call":
                return
            called.add(frame.f_code)
            for label, param, default in defaulted.get(frame.f_code, ()):
                value = frame.f_locals[param]
                if value is default:
                    taken.add(label)
                elif not self.is_default(value, default):
                    changed.add(label)
            for label, param in parameters.get(frame.f_code, ()):
                value = frame.f_locals[param]
                value = originals.get(id(value), value)
                seen = values.setdefault(label, set())
                if seen is not None and self.scalar_like(value):
                    seen.add(value)
                else:
                    values[label] = None

        # on one CPU the tags run in this process, which the hook profiles
        with pytest.MonkeyPatch.context() as monkeypatch, one_cpu():
            for klass in self.gtlab_dataclasses().values():
                monkeypatch.setattr(klass, "__getattribute__",
                                    self.field_reader(klass, read))
            for fn in self.public_functions().values():
                if fn.__defaults__:
                    marked = tuple(map(self.marked, fn.__defaults__))
                    originals.update((id(m), d) for m, d
                                     in zip(marked, fn.__defaults__))
                    monkeypatch.setattr(fn, "__defaults__", marked)
            # read after marking: the defaults are the stand-ins
            defaulted = self.defaulted_parameters()
            sys.setprofile(profile)
            try:
                for command in self.CONFIGS:
                    for config in (self.CONFIGS[command],
                                   self.SECOND_CONFIGS[command]):
                        cfg = tmp_path / "config.json"
                        cfg.write_text(json.dumps(config))
                        saved = tmp_path / f"{command}.json"
                        args = [command, "--config", str(cfg), "--out",
                                str(saved)]
                        if command == "hunt":
                            # the way the gtlab console script calls it
                            monkeypatch.setattr(sys, "argv", ["gtlab", *args])
                            args = None
                        assert cli.main(args) == 0, command
                        for fmt in ("json", "csv"):
                            assert cli.main(["report", "--config", str(saved),
                                             "--format", fmt, "--out",
                                             str(tmp_path / "re")]) == 0
            finally:
                sys.setprofile(None)
        return types.SimpleNamespace(called=called, changed=changed,
                                     taken=taken, values=values, read=read)

    @classmethod
    def assert_reached(cls, reached: set, message: str):
        """Every defaulted parameter is in ``reached``."""
        labels = {label for params in cls.defaulted_parameters().values()
                  for label, _, _ in params}
        missed = sorted(labels - reached)
        assert not missed, f"{message}: {missed}"

    def test_every_public_function_is_called(self, profiled):
        missed = sorted(name for name, fn in self.public_functions().items()
                        if fn.__code__ not in profiled.called)
        assert not missed, f"never called under the CLI: {missed}"

    def test_every_defaulted_parameter_is_set(self, profiled):
        self.assert_reached(profiled.changed, "never set to a non-default "
                            "value under the CLI (make each a constant)")

    def test_every_default_is_taken(self, profiled):
        self.assert_reached(profiled.taken, "never omitted by a call under "
                            "the CLI (make each required)")

    def test_every_parameter_takes_two_values(self, profiled):
        single = sorted(f"{label}={next(iter(seen))!r}"
                        for label, seen in profiled.values.items()
                        if seen is not None and len(seen) == 1)
        assert not single, ("only ever one value under the CLI (make each a "
                            f"constant): {single}")

    def test_every_field_is_read(self, profiled):
        unread = {name: {f"{name}.{f.name}" for f in dataclasses.fields(klass)}
                  - profiled.read
                  for name, klass in self.gtlab_dataclasses().items()}
        missed = sorted(field for name, fields in unread.items()
                        if name not in self.UNREAD_EXEMPT for field in fields)
        assert not missed, f"never read under the CLI (delete each): {missed}"
        stale = sorted(name for name in self.UNREAD_EXEMPT
                       if not unread.get(name))
        assert not stale, f"stale exemptions: {stale}"


class TestCovarianceRunners:
    """Eq.S3 computes its Gram matrices with ``covariance``, one stack per
    block shape of its cycle."""

    @staticmethod
    def recorded_covariance(monkeypatch) -> list:
        """The argument of every ``covariance`` call from now on."""
        blocks = []
        covariance = conc.covariance

        def recording(X):
            blocks.append(X)
            return covariance(X)

        monkeypatch.setattr(conc, "covariance", recording)
        return blocks

    def test_eq_s3_stacks_each_shape_from_one_generator(self, monkeypatch):
        blocks = self.recorded_covariance(monkeypatch)
        keys = record_stream_keys(monkeypatch)
        stream = _tag_stream(5, "Eq.S3")
        params = suites.SuiteParams(seed=5, trials=8000)
        case, = suites.REGISTRY["Eq.S3"][2](params, stream, "Eq.S3")
        shapes = [X.shape[-2:] for X in blocks]
        assert case.status == "pass" and case.trials == 200
        assert len(keys) == len(blocks) == len(set(shapes)) == 20
        assert {path[:-1] for _, path in keys} == {stream.path}
        assert sum(len(X) for X in blocks) == 200
        assert {n for n, _ in shapes} == set(range(4, 24))
        assert {k for _, k in shapes} == {1, 2, 3, 4, 5}

    def test_eq_s3_residuals_match_one_block_at_a_time(self):
        residuals = []
        row = suites.REGISTRY["Eq.S3"][2]

        def recorded(X):
            report = row.check(X)
            residuals.extend(zip(X, report.lhs))
            return report

        params = suites.SuiteParams(seed=5, trials=200)
        case, = dataclasses.replace(row, check=recorded)(
            params, _tag_stream(5, "Eq.S3"), "Eq.S3")
        single = []
        for X, res in residuals:
            rank_one = np.einsum('pi,pj->ij', X.conj(), X) / len(X)
            single.append(np.abs(rank_one - conc.covariance(X)).max())
            assert res == single[-1]
        assert len(single) == case.trials == 200
        assert case.lhs == max(single)


class TestSignSeriesRunners:
    """Eq.OB's enumeration, Eq.DDN and Eq.RUvsOB draw their series in
    stacks of one shape ``(m, d)``, the shapes cycling in diagonal order;
    stack ``b`` draws its terms as one GUE stack from ``child(b)``, then
    its mus.  Each instance gives what the single-series call gives on the
    series its stack holds."""

    MUS = (0.5, 1.0, 2.0)

    @staticmethod
    def shapes(max_len):
        """The cycle of series shapes ``(m, d)``, ``d <= 4``."""
        return [(i % max_len + 1, (i // max_len + i) % 4 + 1)
                for i in range(4 * max_len)]

    @staticmethod
    def sides_of_cases(monkeypatch) -> dict:
        """Every instance's sides behind each sweep case, by case name."""
        sides = {}
        worst_case = suites._worst_case

        def recording(name, tag, reports, *args, **kwargs):
            # a sweep hands its reports over one at a time
            reports = list(reports)
            sides[name] = [(float(lhs), float(rhs)) for r in reports
                           for lhs, rhs in zip(np.ravel(r.lhs),
                                               np.ravel(r.rhs))]
            return worst_case(name, tag, reports, *args, **kwargs)

        monkeypatch.setattr(suites, "_worst_case", recording)
        return sides

    @classmethod
    def series_stacks(cls, stream, count, max_len, mus):
        """``(terms, mus)`` of each stack of ``count`` series, rebuilt from
        the streams: one stack per shape at these counts, stack ``b`` from
        ``stream.child(b)``, its mus drawn after its terms (none when
        ``mus`` is None)."""
        groups = suites._groups(count, (1,), cls.shapes(max_len))
        stacks = []
        for b, ((_, (m, d)), k) in enumerate(groups.items()):
            rng = stream.child(b).generator()
            terms = gue(rng, d, k * m).reshape(k, m, d, d)
            stacks.append((terms, None if mus is None
                           else rng.choice(mus, size=k)))
        return stacks

    def test_enumeration_matches_per_mu_loop(self, monkeypatch):
        sides = self.sides_of_cases(monkeypatch)
        params = suites.SuiteParams(seed=5, trials=400)
        stream = _tag_stream(5, "Eq.OB")
        case, _ = suites._run_oliveira(params, stream, "Eq.OB")
        expected = []
        for terms, _ in self.series_stacks(stream.child(0), 20, 10, None):
            for mu in self.MUS:
                for series in terms:
                    report = conc.oliveira_mgf_check(series, mu)
                    expected.append((report.lhs, report.rhs))
        assert sides["sign-series-enumerate"] == expected
        assert case.status == "pass" and case.trials == len(expected) == 60

    def test_stacked_groups_match_per_series_loop(self, monkeypatch):
        sides = self.sides_of_cases(monkeypatch)
        params = suites.SuiteParams(seed=5, trials=400)
        stream = _tag_stream(5, "Eq.RUvsOB")
        case, = suites.REGISTRY["Eq.RUvsOB"][2](params, stream, "Eq.RUvsOB")
        expected = []
        for terms, mus in self.series_stacks(stream, 400, 6, (0.5, 2.0)):
            for series, mu in zip(terms, mus):
                report = conc.oliveira_vs_aw(series, mu)
                expected.append((report.lhs, report.rhs))
        assert sides["series-vs-direct-bound"] == expected
        assert case.status == "pass" and case.trials == 400

    def test_recursion_profiles_match_their_streams(self):
        params = suites.SuiteParams(seed=5, trials=1000)
        stream = _tag_stream(5, "Eq.DDN")
        case, = suites.REGISTRY["Eq.DDN"][2](params, stream, "Eq.DDN")
        worst = -np.inf
        for terms, mus in self.series_stacks(stream, 10, 8, (0.5, 1.0, 2.0)):
            for series, mu in zip(terms, mus):
                profile = conc.oliveira_recursion_profile(series, mu)
                increases = np.diff(profile) / np.maximum(1.0, profile[:-1])
                worst = max(worst, float(increases.max()))
        assert case.lhs == worst
        assert case.status == "pass" and case.trials == 10

    def test_non_hermitian_term_in_one_series_raises(self, monkeypatch):
        draw = suites.gue
        drawn = []

        def skewed(rng, n, count):
            terms = draw(rng, n, count)
            drawn.append(count)
            if len(drawn) == 7:
                terms[-1, 0, -1] += 1e-3 + 1e-3j
            return terms

        monkeypatch.setattr(suites, "gue", skewed)
        params = suites.SuiteParams(seed=5, trials=200)
        with pytest.raises(ValueError, match="Hermitian"):
            suites.REGISTRY["Eq.RUvsOB"][2](params, _tag_stream(5, "Eq.RUvsOB"),
                                            "Eq.RUvsOB")
        # the skewed term's stack holds more than one series
        m, _ = self.shapes(6)[6]
        assert drawn[6] > m

    #: Per series runner: its tag, the check its stacks reach, the longest
    #: series, and its series counts at trials 8000 and at trials 1.
    RUNNERS = [
        ("Eq.OB", "oliveira_mgf_check", 10, 100, 10),
        ("Eq.DDN", "oliveira_recursion_profile", 8, 20, 5),
        ("Eq.RUvsOB", "oliveira_vs_aw", 6, 1000, 200),
    ]

    @pytest.mark.parametrize("tag, check, max_len, many, few", RUNNERS,
                             ids=[tag for tag, *_ in RUNNERS])
    def test_one_generator_per_shape(self, tag, check, max_len, many, few,
                                     monkeypatch):
        shapes = []
        assert suites.REGISTRY[tag][1] == f"concentration.{check}"

        def recording(checker):
            def recorded(terms, mu):
                m, d = terms.shape[-3], terms.shape[-1]
                shapes.extend([(m, d)] * (terms.size // (m * d * d)))
                return checker(terms, mu)
            return recorded

        runner = injected(monkeypatch, tag, recording)
        keys = record_stream_keys(monkeypatch)
        # Eq.OB's enumerated series are the stacks of child 0
        prefix = _tag_stream(5, tag).path + ((0,) if tag == "Eq.OB" else ())
        for trials, count in ((8000, many), (1, few)):
            shapes.clear()
            keys.clear()
            runner(suites.SuiteParams(seed=5, trials=trials),
                   _tag_stream(5, tag), tag)
            stacks = [path for _, path in keys if path[:-1] == prefix]
            assert len(shapes) == count
            assert len(stacks) == len(set(shapes)) <= 4 * max_len
            lengths, dims = map(set, zip(*shapes))
            assert lengths == set(range(1, min(count, max_len) + 1))
            assert dims == {1, 2, 3, 4}

    def test_mgf_factor_records_a_factor_below_one(self):
        # no mu is 0, whose column would compare exactly 1 with 1
        params = suites.SuiteParams(seed=1001, trials=8000)
        case, = suites.REGISTRY["Eq.DD1"][2](
            params, _tag_stream(1001, "Eq.DD1"), "Eq.DD1")
        assert case.status == "pass" and case.trials == 600
        assert case.lhs < 1.0

    def test_shrunk_right_side_fails_both_cases(self, monkeypatch):
        def shrunk(check):
            # the left side is at least 1, so this is a relative violation
            # of 1e-8 against the 1e-9 tolerance
            def wrapped(terms, mu):
                report = check(terms, mu)
                return GapReport.from_sides(report.lhs,
                                            report.lhs * (1 - 1e-8))
            return wrapped

        params = suites.SuiteParams(seed=5, trials=200)
        enum_case, mc_case = injected(monkeypatch, "Eq.OB", shrunk)(
            params, _tag_stream(5, "Eq.OB"), "Eq.OB")
        direct_case, = injected(monkeypatch, "Eq.RUvsOB", shrunk)(
            params, _tag_stream(5, "Eq.RUvsOB"), "Eq.RUvsOB")
        assert mc_case.status == "pass"
        for case in (enum_case, direct_case):
            assert case.status == "fail"
            assert case.extra["violations"] == case.trials
