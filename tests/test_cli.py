import csv
import dataclasses
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtlab
from gtlab import cli, pauli, studies, suites
from gtlab import concentration as conc
from gtlab.reports import GapReport
from gtlab.samplers import RngStream, gue

SRC = Path(__file__).resolve().parents[1] / "src"


BASE_CONFIG = {"suites": ["inequalities"], "trials": 40, "dims": [2, 3],
               "seed": 1}


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
            "suites": [{"name": "studies", "trials": 7}, "counterexamples"],
            "trials": 5, "seed": 2}))
        assert [r.name for r in config.requests] == ["studies", "counterexamples"]
        assert config.requests[0].params.trials == 7
        assert config.requests[1].params.trials == 5

    def test_family_filter(self):
        config = cli.parse_config(json.dumps({"suites": ["all"], "seed": 0}),
                                  family="studies")
        assert [r.name for r in config.requests] == ["studies"]

    def test_unknown_suite_position_annotated(self):
        with pytest.raises(cli.ConfigError, match=r"suites\[1\].name"):
            cli.parse_config(json.dumps({"suites": ["studies", "bogus"]}))

    def test_malformed_json_has_position(self):
        with pytest.raises(cli.ConfigError, match="line 1"):
            cli.parse_config("{not json")

    def test_bad_types_rejected(self):
        with pytest.raises(cli.ConfigError, match="trials"):
            cli.parse_config(json.dumps({"suites": [], "trials": "many"}))
        with pytest.raises(cli.ConfigError, match="dims"):
            cli.parse_config(json.dumps({"suites": [], "dims": [0]}))
        with pytest.raises(cli.ConfigError, match="unknown"):
            cli.parse_config(json.dumps({"suites": [], "extra": 1}))

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("GTLAB_SEED", "777")
        config = cli.parse_config(json.dumps({"suites": []}))
        assert config.seed == 777

    def test_tolerances_key_exit_two(self, tmp_path):
        # the checks are exact theorems: no config may loosen their slack
        with pytest.raises(cli.ConfigError, match=r"^tolerances: unknown"):
            cli.parse_config(json.dumps({"suites": [],
                                         "tolerances": {"Eq.1": 1e-9}}))
        with pytest.raises(cli.ConfigError,
                           match=r"^suites\[0\]\.tolerances: unknown"):
            cli.parse_config(json.dumps({"suites": [{
                "name": "inequalities", "tolerances": {"Eq.1": 1e-9}}]}))
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

    def test_deterministic_reports_byte_identical(self, tmp_path):
        code1, text1 = run_cli(tmp_path, BASE_CONFIG, out_name="r1.json")
        code2, text2 = run_cli(tmp_path, BASE_CONFIG, out_name="r2.json")
        assert code1 == code2 == 0
        assert text1 == text2

    def test_json_round_trip(self, tmp_path):
        _, text = run_cli(tmp_path, BASE_CONFIG)
        document = cli.document_from_dict(json.loads(text))
        assert emitted_equal(document, text)

    def test_csv_row_count(self, tmp_path):
        _, text = run_cli(tmp_path, BASE_CONFIG, fmt="csv")
        json_code, json_text = run_cli(tmp_path, BASE_CONFIG, fmt="json",
                                       out_name="again.json")
        cases = json.loads(json_text)["cases"]
        rows = [line for line in text.splitlines() if line]
        assert len(rows) == len(cases) + 1
        assert rows[0] == ("name,equation,lhs,rhs,margin,pass,trials,"
                           "status,ci_low,ci_high")

    def test_csv_tells_fail_from_indeterminate(self, tmp_path):
        def case(name, status, ci):
            return suites.CaseRecord(name=name, equation="Eq.RU", lhs=0.3,
                                     rhs=0.2, margin=-0.1, passed=False,
                                     status=status, trials=100, ci=ci)

        document = cli.ReportDocument.from_cases(1, [
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
        # a parametrization residual far above its 1e-12 threshold
        monkeypatch.setattr(pauli, "squared_norm_identity_residual",
                            lambda a: 1.0)
        code, text = run_cli(tmp_path, BASE_CONFIG)
        assert code == 1
        report = json.loads(text)
        assert report["summary"]["failed"] >= 1
        failed = [c for c in report["cases"] if not c["passed"]]
        assert failed and failed[0]["equation"] == "Eq.AB"

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

    def test_config_error_exit_two(self, tmp_path):
        code, _ = run_cli(tmp_path, {"suites": ["bogus"]})
        assert code == 2

    def test_missing_config_exit_two(self, tmp_path):
        code = cli.main(["verify", "--config", str(tmp_path / "absent.json")])
        assert code == 2

    def test_resource_guard_exit_three(self, tmp_path):
        config = {"suites": ["concentration"], "trials": 30, "seed": 1,
                  "series_length": 16}
        code, _ = run_cli(tmp_path, config, command="tail")
        assert code == 3

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

    def test_json_is_strict_and_reemits_byte_for_byte(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code, text = run_cli(tmp_path, BASE_CONFIG)
        assert code == 0
        cases = json.loads(text, parse_constant=reject)["cases"]
        cosh = next(c for c in cases if c["name"] == "pauli-2x2-cosh")
        assert cosh["lhs"] is None and cosh["rhs"] is None
        saved = tmp_path / "saved.json"
        saved.write_text(text)
        assert cli.main(["report", "--config", str(saved), "--out",
                         str(tmp_path / "re.json")]) == 0
        assert (tmp_path / "re.json").read_text() == text
        # a hunt that spends its budget without a witness has no sides
        missed = suites._witness_case("hunt", "ABC.trace", None, 10)
        json.loads(cli.emit(cli.ReportDocument.from_cases(1, [missed])),
                   parse_constant=reject)

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
        # at trials=8000 each domination-grid cell spans two 4096-trial tail
        # blocks
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
                ({"suites": ["inequalities", {"name": "studies"}]}, "hunt")):
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
        assert [r.name for r in config.requests] == ["studies"]


def record_stream_keys(monkeypatch) -> list:
    """Record the key of every generator built from now on."""
    keys = []
    generator = RngStream.generator

    def recording(stream):
        keys.append((stream.master_seed, stream.path))
        return generator(stream)

    monkeypatch.setattr(RngStream, "generator", recording)
    return keys


def emitted_equal(document, text):
    return cli.emit(document, "json") == text


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
                cases = runner(params, tag_stream(tag, 1), tag)
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

    @pytest.mark.parametrize("tag", [
        tag for tag, (_, _, runner) in suites.REGISTRY.items()
        if isinstance(runner, suites.Sweep)
        or tag in ("Eq.1", "Eq.1b", "Eq.4.1c", "Eq.OB", "Eq.DD1", "Eq.RUvsOB")])
    def test_a_broken_checker_fails_its_sweep_case(self, tag, monkeypatch):
        # every case judged by _worst_case: a Sweep row runs the checker it
        # holds, the other runners call their row's operation
        _, operation, runner = suites.REGISTRY[tag]
        if isinstance(runner, suites.Sweep):
            runner = dataclasses.replace(runner, check=broken(runner.check))
        else:
            module, name = operation.split(".")
            monkeypatch.setattr(importlib.import_module(f"gtlab.{module}"),
                                name, broken(operation_of(tag)))
        params = suites.SuiteParams(seed=1, trials=20, dims=(2,))
        cases = runner(params, tag_stream(tag, 1), tag)
        failed = [(c.status, c.extra.get("violations")) for c in cases
                  if c.status != "pass"]
        assert failed == [("fail", 1)]

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


class TestStartup:
    def test_cli_import_does_not_load_scipy_stats(self):
        # a fresh interpreter: the test modules themselves import scipy.stats
        probe = ("import sys, gtlab.cli; print(sorted(m for m in sys.modules "
                 "if m == 'scipy.stats' or m.startswith('scipy.stats.')))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_cli_run_does_not_load_scipy_integrate(self, tmp_path):
        # both quadrature routes run (Eq.4.1c under verify, Eq.R under
        # ratio) without scipy.integrate, which would pull in scipy.optimize
        probe = (
            "import json, sys, gtlab.cli\n"
            "tmp = sys.argv[1]\n"
            "for cmd, suite in (('verify', 'inequalities'), "
            "('ratio', 'studies')):\n"
            "    cfg = f'{tmp}/{cmd}.json'\n"
            "    with open(cfg, 'w') as fh:\n"
            "        json.dump({'suites': [suite], 'trials': 5, 'dims': [2], "
            "'seed': 1}, fh)\n"
            "    assert gtlab.cli.main([cmd, '--config', cfg, '--out', "
            "f'{tmp}/{cmd}.out']) == 0, cmd\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'integrate'], ['scipy', 'optimize'])))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                              env=env, capture_output=True, text=True,
                              check=True)
        assert done.stdout.strip() == "[]"


def operation_of(tag: str):
    """The function a registry row's operation names."""
    module, name = suites.REGISTRY[tag][1].split(".")
    return getattr(importlib.import_module(f"gtlab.{module}"), name)


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


def tag_stream(tag: str, seed: int) -> RngStream:
    """The stream ``run_suite`` hands the runner of ``tag``."""
    return RngStream(seed, (list(suites.REGISTRY).index(tag),))


class TestMonteCarloEscalation:
    """The two Monte Carlo cases rerun a miss once, on tenfold trials drawn
    from a stream the first attempt never uses; the rerun decides."""

    def test_sign_series_chance_miss_escalates_and_passes(self):
        # a 1x1 Gaussian series, where the bound holds with equality: the
        # first 10^4 sign draws land 2.1 se above it
        params = suites.SuiteParams(seed=53, trials=8000)
        _, case = suites._run_oliveira(params, tag_stream("Eq.OB", 53), "Eq.OB")
        assert case.status == "pass" and case.extra["escalated"]
        assert case.trials == 100000

    def test_ratio_chance_miss_escalates_and_passes(self):
        # the first 10^6 pairs land 3.06 se from 4/3
        params = suites.SuiteParams(seed=2, trials=1_000_000, dims=(128,))
        case, = suites._run_ratio_mc(params, tag_stream("Eq.R", 2), "Eq.R")
        assert case.status == "pass" and case.extra["escalated"]
        assert case.trials == 10_000_000

    def test_a_pass_keeps_the_first_attempt(self):
        params = suites.SuiteParams(seed=1, trials=10000)
        case, = suites._run_ratio_mc(params, tag_stream("Eq.R", 1), "Eq.R")
        est = studies.pauli_ratio_mc(10000, tag_stream("Eq.R", 1),
                                     matrix_check=1000)
        assert case.status == "pass" and not case.extra["escalated"]
        assert (case.lhs, case.trials) == (est.ratio, 10000)

    def test_ratio_real_violation_still_fails(self, monkeypatch):
        estimate = studies.pauli_ratio_mc

        def shifted(*args, **kwargs):
            est = estimate(*args, **kwargs)
            return dataclasses.replace(est, ratio=est.ratio + 10 * est.ratio_se)

        monkeypatch.setattr(studies, "pauli_ratio_mc", shifted)
        keys = record_stream_keys(monkeypatch)
        params = suites.SuiteParams(seed=1, trials=10000)
        case, = suites._run_ratio_mc(params, tag_stream("Eq.R", 1), "Eq.R")
        assert case.status == "fail" and case.extra["escalated"]
        assert case.trials == 100000
        assert len(set(keys)) == len(keys), "the escalation reused a stream key"

    def test_sign_series_real_violation_still_fails(self, monkeypatch):
        check = conc.oliveira_mgf_check

        def shifted(series, mode="enumerate", **kwargs):
            report = check(series, mode, **kwargs)
            if mode != "montecarlo":
                return report
            # tol is 2 se: move the left side 10 se past the bound
            return GapReport.from_sides(report.rhs + 5 * report.tol, report.rhs,
                                        tol=report.tol)

        monkeypatch.setattr(conc, "oliveira_mgf_check", shifted)
        keys = record_stream_keys(monkeypatch)
        params = suites.SuiteParams(seed=1, trials=1000)
        _, case = suites._run_oliveira(params, tag_stream("Eq.OB", 1), "Eq.OB")
        assert case.status == "fail" and case.extra["escalated"]
        assert case.trials == 100000
        assert len(set(keys)) == len(keys), "the escalation reused a stream key"


class TestTailEscalation:
    """A domination cell whose interval straddles the bound reruns once,
    on tenfold trials from ``child(1)``; a fail stands.  The bound is
    placed on the intervals the two attempts draw."""

    SEED, TRIALS = 7, 1000

    def run_cell(self, monkeypatch, place):
        """The cell's report, its two single attempts and the stream keys
        it drew from, with the bound at ``place(first, rerun)``."""
        stream = tag_stream("Eq.RU", self.SEED)
        first, rerun = (conc.empirical_tail(
            conc.CovarianceExperiment(n_samples=8, dim=1, epsilon=0.5,
                                      trials=trials), source)
            for trials, source in ((self.TRIALS, stream.child(0)),
                                   (10 * self.TRIALS, stream.child(1))))
        bound = place(first, rerun)
        monkeypatch.setattr(conc, "aw_bound", lambda exp, sigma2: bound)
        keys = record_stream_keys(monkeypatch)
        report = suites.domination_cell(8, 1, 0.5, self.TRIALS, stream)
        assert len(set(keys)) == len(keys), "the escalation reused a stream key"
        return report, first, rerun, keys

    def test_straddle_reruns_on_tenfold_trials_and_passes(self, monkeypatch):
        report, first, rerun, keys = self.run_cell(
            monkeypatch, lambda first, rerun: rerun.ci_high)
        assert first.ci_low < rerun.ci_high < first.ci_high
        assert report.status == "pass" and report.extras["escalated"]
        assert report.trials == 10 * self.TRIALS
        assert (report.empirical_tail, report.ci_low, report.ci_high) == \
            (rerun.empirical_tail, rerun.ci_low, rerun.ci_high)
        assert list(report.extras)[-1] == "escalated"
        assert {path[1] for _, path in keys} == {0, 1}

    def test_second_straddle_is_indeterminate(self, monkeypatch):
        report, first, rerun, _ = self.run_cell(
            monkeypatch, lambda first, rerun: 0.5 * (rerun.ci_low + rerun.ci_high))
        assert first.ci_low < report.bound_value < first.ci_high
        assert report.status == "indeterminate" and not report.passed
        assert report.extras["escalated"]
        assert report.trials == 10 * self.TRIALS

    def test_first_attempt_fail_does_not_rerun(self, monkeypatch):
        report, first, _, keys = self.run_cell(
            monkeypatch, lambda first, rerun: np.nextafter(first.ci_low, 0.0))
        assert report.status == "fail" and not report.extras["escalated"]
        assert report.trials == self.TRIALS
        assert report.empirical_tail == first.empirical_tail
        assert {path[1] for _, path in keys} == {0}


class TestReachability:
    """Every public function and method of gtlab runs under the CLI, and
    every parameter of one that has a default is set to another value
    there, so code and settings that no tag or CLI path reaches show up
    here."""

    CONFIGS = {
        "verify": {"suites": ["inequalities"], "trials": 50, "dims": [2],
                   "seed": 1},
        "tail": {"suites": ["concentration"], "trials": 50, "dims": [2],
                 "seed": 1},
        "ratio": {"suites": ["studies"], "trials": 50, "dims": [2], "seed": 1},
        # no seed: the default master seed is read
        "hunt": {"suites": ["counterexamples"], "trials": 50, "dims": [2]},
    }

    #: Defaulted parameters the CLI never sets, each with why it stays.
    EXEMPT = {
        "gtlab.inequalities.triple_gt_scan.zero_c":
            "the negative control of the triple hunt: pinning C to zero "
            "reduces it to the two-matrix theorem, so a witness found there "
            "is a bug in the hunt (test_inequalities tests it)",
    }

    @staticmethod
    def public_functions():
        """Every public function, method and property getter defined in a
        gtlab module, by qualified name."""
        found = {}
        for info in pkgutil.iter_modules(gtlab.__path__):
            module = importlib.import_module(f"gtlab.{info.name}")
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

    @pytest.fixture(scope="class")
    def profiled(self, tmp_path_factory):
        """The code objects called under the CLI, and the qualified names
        of the defaulted parameters it sets to another value."""
        tmp_path = tmp_path_factory.mktemp("reachability")
        defaulted = self.defaulted_parameters()
        called, changed = set(), set()

        def profile(frame, event, arg):
            if event != "call":
                return
            called.add(frame.f_code)
            for label, param, default in defaulted.get(frame.f_code, ()):
                if not self.is_default(frame.f_locals[param], default):
                    changed.add(label)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.delenv("GTLAB_SEED", raising=False)
            sys.setprofile(profile)
            try:
                for command, config in self.CONFIGS.items():
                    code, text = run_cli(tmp_path, config, command=command)
                    assert code == 0, command
                    saved = tmp_path / f"{command}.json"
                    saved.write_text(text)
                    for fmt in ("json", "csv"):
                        assert cli.main(["report", "--config", str(saved),
                                         "--format", fmt, "--out",
                                         str(tmp_path / "re")]) == 0
            finally:
                sys.setprofile(None)
        return called, changed

    def test_every_public_function_is_called(self, profiled):
        called, _ = profiled
        missed = sorted(name for name, fn in self.public_functions().items()
                        if fn.__code__ not in called)
        assert not missed, f"never called under the CLI: {missed}"

    def test_every_defaulted_parameter_is_set(self, profiled):
        _, changed = profiled
        labels = {label for params in self.defaulted_parameters().values()
                  for label, _, _ in params}
        assert set(self.EXEMPT) <= labels, "an exemption names no parameter"
        unset = sorted(labels - changed - set(self.EXEMPT))
        assert not unset, ("never set to a non-default value under the CLI "
                           f"(make each a constant): {unset}")


class TestSignSeriesRunners:
    """Eq.OB enumerates each series once for all its mus, and Eq.RUvsOB
    checks the series of one (length, dimension) as one stack; both give
    what a loop over single series and single mus gives."""

    @staticmethod
    def sides_of_cases(monkeypatch) -> dict:
        """Every instance's sides behind each sweep case, by case name."""
        sides = {}
        worst_case = suites._worst_case

        def recording(name, tag, reports, *args, **kwargs):
            sides[name] = [(float(lhs), float(rhs)) for r in reports
                           for lhs, rhs in zip(np.atleast_1d(r.lhs),
                                               np.atleast_1d(r.rhs))]
            return worst_case(name, tag, reports, *args, **kwargs)

        monkeypatch.setattr(suites, "_worst_case", recording)
        return sides

    def test_enumeration_matches_per_mu_loop(self, monkeypatch):
        sides = self.sides_of_cases(monkeypatch)
        params = suites.SuiteParams(seed=5, trials=400)
        stream = tag_stream("Eq.OB", 5)
        case, _ = suites._run_oliveira(params, stream, "Eq.OB")
        expected = []
        for i in range(20):
            rng = stream.child(0, i).generator()
            if i == 0:
                m, d = params.series_length, int(rng.integers(1, 5))
            else:
                m = int(rng.integers(1, 11))
                d = int(rng.integers(1, 5))
            terms = [gue(rng, d) for _ in range(m)]
            for mu in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
                report = conc.oliveira_mgf_check(
                    conc.MatrixSeries(terms=terms, mu=mu), mode="enumerate")
                expected.append((report.lhs, report.rhs))
        assert sides["sign-series-enumerate"] == expected
        assert case.status == "pass" and case.trials == len(expected) == 120

    def test_stacked_groups_match_per_series_loop(self, monkeypatch):
        sides = self.sides_of_cases(monkeypatch)
        params = suites.SuiteParams(seed=5, trials=400)
        stream = tag_stream("Eq.RUvsOB", 5)
        case, = suites._run_oliveira_vs_aw(params, stream, "Eq.RUvsOB")
        expected = []
        for i in range(400):
            rng = stream.child(i).generator()
            mu = float(rng.choice((0.5, -0.5, 2.0, -2.0)))
            m = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            terms = [gue(rng, d) for _ in range(m)]
            report = conc.oliveira_vs_aw(conc.MatrixSeries(terms=terms, mu=mu))
            expected.append((report.lhs, report.rhs))
        assert sides["series-vs-direct-bound"] == expected
        assert case.status == "pass" and case.trials == 400

    def test_non_hermitian_term_in_one_series_raises(self, monkeypatch):
        draw = suites._series_terms
        drawn = []

        def skewed(rng, max_len, max_dim):
            terms = draw(rng, max_len, max_dim)
            drawn.append(terms.shape)
            if len(drawn) == 7:
                terms[-1, 0, -1] += 1e-3 + 1e-3j
            return terms

        monkeypatch.setattr(suites, "_series_terms", skewed)
        params = suites.SuiteParams(seed=5, trials=200)
        with pytest.raises(ValueError, match="Hermitian"):
            suites._run_oliveira_vs_aw(params, tag_stream("Eq.RUvsOB", 5),
                                       "Eq.RUvsOB")
        # the skewed series shares its group with others
        assert drawn.count(drawn[6]) > 1

    def test_shrunk_right_side_fails_both_cases(self, monkeypatch):
        enumerate_check, direct_check = conc.oliveira_mgf_check, conc.oliveira_vs_aw

        def shrunk(report):
            # the left side is at least 1, so this is a relative violation
            # of 1e-8 against the 1e-9 tolerance
            return GapReport.from_sides(report.lhs, report.lhs * (1 - 1e-8))

        def broken_enumeration(series, mode="enumerate", **kwargs):
            report = enumerate_check(series, mode, **kwargs)
            return shrunk(report) if mode == "enumerate" else report

        monkeypatch.setattr(conc, "oliveira_mgf_check", broken_enumeration)
        monkeypatch.setattr(conc, "oliveira_vs_aw",
                            lambda series: shrunk(direct_check(series)))
        params = suites.SuiteParams(seed=5, trials=200)
        enum_case, mc_case = suites._run_oliveira(
            params, tag_stream("Eq.OB", 5), "Eq.OB")
        direct_case, = suites._run_oliveira_vs_aw(
            params, tag_stream("Eq.RUvsOB", 5), "Eq.RUvsOB")
        assert mc_case.status == "pass"
        for case in (enum_case, direct_case):
            assert case.status == "fail"
            assert case.extra["violations"] == case.trials

    @pytest.mark.parametrize("length", [15, 16])
    def test_enumeration_guard_fires_above_14(self, length):
        params = suites.SuiteParams(seed=5, trials=200, series_length=length)
        with pytest.raises(conc.ResourceGuardError):
            suites._run_oliveira(params, tag_stream("Eq.OB", 5), "Eq.OB")
