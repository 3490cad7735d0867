"""CLI surface: exit codes, schemas, reproducibility, config round trips."""

import json
import math
import re
import shlex
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from sure_boundary import __version__
from sure_boundary.boundary import GRID_POINTS_DEFAULT, default_w_grid
from sure_boundary.cli import build_parser, entrypoint, main
from sure_boundary.montecarlo import THREADS_ENV_VAR

D56 = ["--p", "5", "--n", "6"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def usage_error(args, capsys):
    """stderr of a run that must stop with exit 64 before writing a report."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    captured = capsys.readouterr()
    assert exc.value.code == 64 and captured.out == ""
    return captured.err


def load_schema(name):
    with resources.files("sure_boundary.schemas").joinpath(name).open() as fh:
        return json.load(fh)


class TestClassifyCommand:
    def test_mle_is_quasi_inadmissible(self, capsys):
        code, out = run_cli(["classify", "--p", "5", "--n", "6", "--phi", "zero"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"]["variant"] == "QuasiInadmissible"

    def test_boundary_case_exits_two(self, capsys):
        code, out = run_cli(
            ["classify", "--p", "5", "--n", "6", "--phi", "boundary:b=1.0"], capsys
        )
        assert code == 2
        assert json.loads(out)["verdict"]["variant"] == "Indeterminate"

    def test_verdict_validates_against_schema(self, capsys):
        schema = load_schema("quasi_class.schema.json")
        for phi in ("zero", "linear:alpha=0.5", "boundary:b=1.0"):
            _, out = run_cli(["classify", "--p", "5", "--n", "6", "--phi", phi], capsys)
            jsonschema.validate(json.loads(out)["verdict"], schema)


class TestDominateAndVerify:
    def test_certificate_validates_against_schema(self, capsys):
        code, out = run_cli(
            ["dominate", "--p", "5", "--n", "6", "--phi", "zero", "--b", "1.5"], capsys
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(
            report["certificate"], load_schema("domination_certificate.schema.json")
        )
        assert report["certificate"]["verdict"] is True

    def test_default_floor_boundary_member_dominates(self, capsys):
        code, out = run_cli(
            ["dominate", "--p", "6", "--n", "17", "--phi", "boundary:b=2.0",
             "--b", "1.5"],
            capsys,
        )
        assert code == 0
        jsonschema.validate(
            json.loads(out)["certificate"],
            load_schema("domination_certificate.schema.json"),
        )

    def test_verify_explicit_spec(self, capsys):
        code, out = run_cli(
            [
                "verify", "--p", "5", "--n", "6", "--phi", "zero", "--b", "1.5",
                "--nu", "0.17708333333333334", "--w-sharp", "4.0",
                "--ramp-width", "4.0", "--w-star", "4.0",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["certificate"]["verdict"] is True

    def test_verify_grid_points_default_is_the_certificate_grid(self, capsys):
        argv = ["verify", *D56, "--phi", "zero", "--b", "1.5", "--nu", "0.5",
                "--w-sharp", "4.0", "--ramp-width", "4.0", "--w-star", "4.0"]
        # the parser leaves --grid-points unset, so that start-up needs no
        # numerical layer; verify fills in boundary's default before the report
        assert build_parser().parse_args(argv).grid_points is None
        code, out = run_cli(argv, capsys)
        report = json.loads(out)
        assert code == 0
        assert [w for w, _ in report["certificate"]["grid"]] == default_w_grid().tolist()
        assert report["config"]["grid_points"] == str(GRID_POINTS_DEFAULT)

    # dominate builds and certifies GB_FALSE on one grid, default_w_grid();
    # GB_FALSE_SPEC ramps up from a slightly smaller w_sharp, and on that
    # grid its Delta dips to about -2.1e-10 above w_sharp
    GB_FALSE = ["--p", "19", "--n", "16", "--phi", "gb:a=-2,b=3.0", "--b", "1.5"]
    GB_FALSE_SPEC = ["--nu", "0.12323943661971831", "--w-sharp", "4663.673023454806",
                     "--ramp-width", "4663.673023454806", "--w-star", "2.277184093483792"]

    @pytest.mark.parametrize("argv", [["verify", *GB_FALSE, *GB_FALSE_SPEC]], ids=["verify"])
    def test_false_certificate_exits_1_and_is_reported(self, capsys, argv):
        code, out = run_cli(argv, capsys)
        assert code == 1
        cert = json.loads(out)["certificate"]
        assert cert["verdict"] is False and cert["min_delta_above_sharp"] < 0.0
        jsonschema.validate(cert, load_schema("domination_certificate.schema.json"))

    def test_dominate_certifies_on_the_grid_it_built_on(self, capsys):
        code, out = run_cli(["dominate", *self.GB_FALSE], capsys)
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["verdict"] is True and cert["min_delta_above_sharp"] >= 0.0
        # verify's default grid is the one the construction searched
        spec = [f"--{name.replace('_', '-')}={value!r}"
                for name, value in cert["spec"].items() if name != "b"]
        code, out = run_cli(["verify", *self.GB_FALSE, *spec], capsys)
        assert code == 0
        assert json.loads(out)["certificate"] == cert


class TestSimulateCommand:
    ARGS = [
        "simulate", "--p", "5", "--n", "6", "--phi", "jsplus:a=0.375",
        "--theta-norm", "1.0", "--sigma", "1.0", "--reps", "20000", "--seed", "42",
    ]

    def test_csv_header_matches_interface(self, capsys):
        code, out = run_cli(self.ARGS + ["--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == "theta_norm,sigma,model,reps,seed,mean_loss,se_loss,sure_mean,se_sure"

    def test_repeat_runs_byte_identical(self, capsys):
        _, first = run_cli(self.ARGS, capsys)
        _, second = run_cli(self.ARGS, capsys)
        assert first == second

    def test_thread_cap_does_not_change_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "1")
        _, single = run_cli(self.ARGS, capsys)
        monkeypatch.setenv(THREADS_ENV_VAR, "4")
        _, pooled = run_cli(self.ARGS, capsys)
        assert single == pooled

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        code, out = run_cli(self.ARGS + ["--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["command"] == "simulate"


# one non-default run per subcommand (both crosscheck identities)
ROUND_TRIPS = {
    "classify": ["classify", *D56, "--phi", "gb:a=-2,b=2.5", "--rel-tol", "1e-9"],
    "dominate": ["dominate", *D56, "--phi", "zero", "--b", "1.5"],
    "verify": ["verify", *D56, "--phi", "zero", "--b", "1.5", "--nu", "0.17708333333333334",
               "--w-sharp", "4.0", "--ramp-width", "4.0", "--w-star", "4.0",
               "--grid-points", "500"],
    "simulate": ["simulate", *D56, "--phi", "jsplus:a=0.375", "--theta-norm", "1.5",
                 "--reps", "2000", "--seed", "4", "--model", "student-t:df=5"],
    "sure-check": ["sure-check", *D56, "--phi", "zero", "--theta-norm", "2.0",
                   "--sigma", "0.5", "--reps", "5000", "--seed", "9"],
    "asymptotics": ["asymptotics", *D56, "--phi", "boundary:b=1.5", "--w-lo", "1e2",
                    "--points", "30"],
    "known-variance": ["known-variance", "--p", "7", "--a", "-2", "--L", "logpow:b=0.5",
                       "--z-max", "1e5", "--r-max", "1e4"],
    "crosscheck-saigo4": ["crosscheck", *D56, "--identity", "saigo4", "--b", "1.5",
                          "--w", "100", "--tol", "1e-7"],
    "crosscheck-psi": ["crosscheck", *D56, "--identity", "psi", "--b", "0.5", "--v", "3"],
}


class TestConfigBlock:
    @pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
    def test_config_block_reproduces_the_run(self, case, capsys):
        flags = ROUND_TRIPS[case]
        _, direct = run_cli(flags, capsys)
        config = json.loads(direct)["config"]
        assert config.pop("command") == flags[0]
        rerun = [flags[0]]
        for key, value in config.items():
            rerun += ["--" + key.replace("_", "-"), value]
        assert run_cli(rerun, capsys)[1] == direct


def contract_rows():
    """(exit, argv) of each row of cli_contract.txt, split as CI's shell loop splits it."""
    rows = []
    for line in Path(__file__).with_name("cli_contract.txt").read_text().splitlines():
        words = line.split()
        if words and not words[0].startswith("#"):
            rows.append((int(words[0]), words[1:]))
    return rows


def readme_commands():
    """argv of each sure-boundary command in README's bash blocks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", readme, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["sure-boundary"]:
                commands.append(words[1:])
    return commands


CONTRACT = contract_rows()
CONTRACT_IDS = [f"{want} {argv[0]} {argv[-2]} {argv[-1]}" for want, argv in CONTRACT]


def prefix_variants(argv):
    """argv with one option replaced by a proper prefix of it that is not
    itself an option string of the subcommand, for every such prefix."""
    subcommands = build_parser()._subparsers._group_actions[0].choices
    options = subcommands[argv[0]]._option_string_actions
    return [
        argv[:i] + [word[:k]] + argv[i + 1:]
        for i, word in enumerate(argv) if word.startswith("--") and word in options
        for k in range(3, len(word)) if word[:k] not in options
    ]


# each exit-0 row whose long options have a prefix to try
PREFIX_CASES = [pytest.param(variants, id=row_id)
                for row_id, (want, argv) in zip(CONTRACT_IDS, CONTRACT)
                if want == 0 and (variants := prefix_variants(argv))]


class TestContractTable:
    """The exit contract of README, one row of tests/cli_contract.txt a run."""

    @pytest.mark.parametrize("want, argv", CONTRACT, ids=CONTRACT_IDS)
    def test_row(self, capsys, want, argv):
        # a numpy RuntimeWarning would reach stderr; here it fails the run, and
        # the error line must not be the warning's
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:  # the parser rejected an argument
                code = exc.code
        captured = capsys.readouterr()
        assert code == want
        if want in (1, 64):
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith("sure-boundary: error: ")
            assert " encountered in " not in captured.err
        else:
            assert captured.out and captured.err == ""

    @pytest.mark.parametrize("variants", PREFIX_CASES)
    def test_prefix_of_an_option_is_rejected(self, capsys, variants):
        for variant in variants:
            assert usage_error(variant, capsys)

    def test_every_readme_example_is_a_row(self):
        commands = readme_commands()
        rows = [argv for _, argv in CONTRACT]
        assert commands and [argv for argv in commands if argv not in rows] == []

    def test_row_ids_are_unique(self):
        # pytest would number a repeated id, so a new row could rename old ones
        assert len(set(CONTRACT_IDS)) == len(CONTRACT_IDS)


class TestEntryPoints:
    """`python -m sure_boundary` and the console script's `cli.entrypoint`."""

    @staticmethod
    def run_module(*args):
        return subprocess.run([sys.executable, "-m", "sure_boundary", *args],
                              capture_output=True, text=True)

    def test_module_prints_version(self):
        proc = self.run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout == f"{__version__}\n"

    def test_module_usage_error_is_64(self):
        assert self.run_module("classify", "--p", "5").returncode == 64

    def test_entrypoint_exits_with_the_code_of_main(self, capsys, monkeypatch):
        argv = ["classify", *D56, "--phi", "boundary:b=1.0"]
        code = main(argv)
        report = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["sure-boundary", *argv])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == code == 2
        assert capsys.readouterr().out == report


class TestExitCodes:
    def test_usage_error_is_64(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sure_boundary.cli", "classify", "--p", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 64

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_malformed_thread_cap_is_64(self, capsys, monkeypatch, raw):
        monkeypatch.setenv(THREADS_ENV_VAR, raw)
        code = main(["simulate", *D56, "--phi", "zero", "--reps", "1000"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err == (f"sure-boundary: error: {THREADS_ENV_VAR} must be an "
                                f"integer >= 1, got {raw!r}\n")

    def test_runtime_error_is_1(self, capsys):
        code, _ = run_cli(
            ["dominate", "--p", "5", "--n", "6", "--phi", "linear:alpha=0.5", "--b", "1.5"], capsys
        )
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["classify", *D56, "--phi", "gb:a=-9,b=1"],
         "gb: requires p/2 + a + 1 > 0, got p=5, a=-9.0"),
        (["classify", "--p", "2", *D56[2:], "--phi", "zero"],
         "require p >= 3 and n >= 3, got p=2, n=6"),
        (["asymptotics", *D56, "--phi", "zero", "--w-lo", "1e4"],
         "w_grid must span at least [1e3, 1e8]"),
        (["simulate", *D56, "--phi", "jsplus:a=-1"], "jsplus: a must be > 0"),
        (["verify", *D56, "--phi", "zero", "--b", "1.5", "--nu", "0.1", "--w-sharp", "4",
          "--ramp-width", "4", "--w-star", "4", "--grid-points", "100"],
         "verification grid must span [0, 1e8] with >= 500 points"),
    ])
    def test_rejected_option_value_is_64(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err == f"sure-boundary: error: {message}\n"

    def test_unknown_phi_parameter_is_64(self, capsys):
        code = main(["classify", *D56, "--phi", "gb:a=-2,B=2.5"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert "unknown parameter 'B'" in captured.err

    def test_non_finite_model_parameter_is_64(self, capsys):
        code = main(["simulate", *D56, "--phi", "zero", "--model", "student-t:df=inf",
                     "--reps", "10"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert "non-finite parameter 'df'" in captured.err and "NaN" not in captured.err

    def test_non_finite_theta_norm_is_64(self, capsys):
        code = main(["simulate", *D56, "--phi", "zero", "--theta-norm", "nan",
                     "--reps", "1000", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        message = "SimConfig: non-finite parameter 'theta_norm' = nan"
        assert captured.err == f"sure-boundary: error: {message}\n"

    def test_non_finite_prior_exponent_is_64(self, capsys):
        code = main(["known-variance", "--p", "5", "--a", "inf"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert "non-finite parameter 'a'" in captured.err
        assert "tanh-sinh" not in captured.err

    def test_non_finite_rel_tol_is_64(self, capsys):
        # at the default tolerance this member is QuasiInadmissible (exit 0)
        code = main(["classify", *D56, "--phi", "gb:a=-2,b=2.0", "--rel-tol=inf"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        message = "rel_tol must lie in (0, 1), got inf"
        assert captured.err == f"sure-boundary: error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["classify", *D56, "--phi", "gb:a=-2,b=1e308"],
        ["known-variance", "--p", "5", "--a", "-2", "--L", "logpow:b=1e308"],
        ["crosscheck", *D56, "--identity", "saigo4", "--b", "1e308", "--w", "10"],
        ["crosscheck", *D56, "--identity", "psi", "--b", "1e308", "--v", "10"],
        ["dominate", *D56, "--phi", "gb:a=-2,b=1e308", "--b", "1.5"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_huge_log_power_is_one_error_line(self, capsys, argv):
        # (log 1/lambda)**b would overflow at the smallest tanh-sinh node
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("sure-boundary: error: log power 1e+308 too large ")

    def test_gb_d_underflow_is_typed_error(self, capsys):
        code = main(["classify", "--p", "60", "--n", "60", "--phi", "gb:a=-2,b=2.0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "D(w) underflowed" in err and "(60, 60, -2.0, 2.0)" in err
        assert "division by zero" not in err

    def test_crosscheck_psi_underflow_is_typed_error(self, capsys):
        code = main(["crosscheck", "--p", "300", "--n", "6", "--identity", "psi",
                     "--b", "1", "--v", "1e8"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "psi_known: J_b(v) underflowed to 0 at v=100000000.0" in captured.err
        assert "(p, b) = (300, 1.0)" in captured.err
        assert "division by zero" not in captured.err

    @pytest.mark.parametrize(
        "p,fault",
        [(41, "a marginal integral underflowed to 0"), (300, "underflowed to 0"),
         (400, "overflowed")],
    )
    def test_known_variance_range_is_typed_error(self, capsys, p, fault):
        code = main(["known-variance", "--p", str(p), "--a", "-2", "--L", "logpow:b=1.0"])
        err = capsys.readouterr().err
        assert code == 1
        assert fault in err and f"(p, a, L) = ({p}, -2.0, logpow:b=1.0)" in err
        assert "at z=" in err

    @pytest.mark.parametrize(
        "argv",
        [
            [cmd, *D56, "--phi", "zero"]
            for cmd in ("classify", "asymptotics", "sure-check")
        ]
        + [
            ["dominate", *D56, "--phi", "zero", "--b", "1.5"],
            ["verify", *D56, "--phi", "zero", "--b", "1.5", "--nu", "0.5",
             "--w-sharp", "4", "--ramp-width", "4", "--w-star", "4"],
            ["known-variance", "--p", "5", "--a", "-2"],
            ["crosscheck", *D56, "--identity", "psi", "--b", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_outside_simulate_is_usage_error(self, capsys, argv):
        # only simulate has --format, so the parser rejects it
        err = usage_error(argv + ["--format", "csv"], capsys)
        assert err.endswith("sure-boundary: error: unrecognized arguments: --format csv\n")

    @pytest.mark.parametrize("identity,unused", [("saigo4", "--v"), ("psi", "--w")],
                             ids=["saigo4", "psi"])
    def test_crosscheck_point_of_other_identity_is_usage_error(self, capsys, identity,
                                                               unused):
        err = usage_error(
            ["crosscheck", *D56, "--identity", identity, "--b", "1", unused, "3"], capsys
        )
        assert f"{unused} does not apply to --identity {identity}" in err

    def test_crosscheck_within_tol_is_0(self, capsys):
        code, out = run_cli(
            ["crosscheck", "--p", "5", "--n", "6", "--identity", "saigo4",
             "--b", "1", "--w", "10"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["within_tol"] is True

    def test_crosscheck_psi_route(self, capsys):
        code, out = run_cli(
            ["crosscheck", "--p", "5", "--n", "6", "--identity", "psi", "--b", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["max_rel_dev"] < 1e-8


class TestKnownVarianceCommand:
    def test_report_fields(self, capsys):
        code, out = run_cli(
            ["known-variance", "--p", "5", "--a", "-2", "--L", "logpow:b=1.0",
             "--z-max", "1e6", "--r-max", "1e4"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "admissible"
        assert report["boundary"] is True
        for key in (
            "prior", "tauberian_ratio_final", "gradient_limit_target",
            "gradient_value_final", "brown_partial_integrals",
        ):
            assert key in report

    def test_brown_checkpoints_stay_within_r_max(self, capsys):
        code, out = run_cli(
            ["known-variance", "--p", "5", "--a", "-2", "--r-max", "5000"], capsys
        )
        assert code == 0
        assert json.loads(out)["brown_partial_integrals"][-1][0] == 1000

    @pytest.mark.parametrize("option,value,message", [
        ("--r-max", "inf", "r_max must be finite, got inf"),
        ("--r-max", "nan", "r_max must be finite, got nan"),
        ("--z-max", "nan", "argument --z-max: must be finite, got nan"),
    ])
    def test_non_finite_grid_option_named(self, option, value, message, capsys):
        code = main(["known-variance", "--p", "5", "--a", "-2", option, value])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err == f"sure-boundary: error: {message}\n"


class TestNonFiniteGridOption:
    """A non-finite or non-positive bound of a geometric grid stops the run
    before any grid is built."""

    @pytest.mark.parametrize("argv", [
        ["asymptotics", *D56, "--phi", "zero", "--w-hi", "inf"],
        ["asymptotics", *D56, "--phi", "gb:a=-2,b=2.0", "--w-hi", "inf"],
        ["asymptotics", *D56, "--phi", "gb:a=-2,b=2.0", "--w-hi", "nan"],
        ["asymptotics", *D56, "--phi", "zero", "--w-lo", "nan"],
        ["known-variance", "--p", "5", "--a", "-2", "--z-max", "inf"],
        ["asymptotics", *D56, "--phi", "zero", "--w-lo", "-inf"],
        ["asymptotics", *D56, "--phi", "zero", "--w-lo", "-3"],
        ["asymptotics", *D56, "--phi", "zero", "--w-lo", "0"],
        ["asymptotics", *D56, "--phi", "zero", "--w-hi", "-1e8"],
        ["known-variance", "--p", "5", "--a", "-2", "--z-max", "-5"],
        ["known-variance", "--p", "5", "--a", "-2", "--z-max", "0"],
    ])
    def test_typed_error_names_option_and_nothing_else(self, argv):
        # a subprocess, so that LAPACK's own messages would be seen too
        proc = subprocess.run(
            [sys.executable, "-m", "sure_boundary.cli", *argv],
            capture_output=True,
            text=True,
        )
        option, value = argv[-2], float(argv[-1])
        must = "finite" if not math.isfinite(value) else "positive"
        message = f"argument {option}: must be {must}, got {value!r}"
        assert proc.returncode == 64 and proc.stdout == ""
        assert proc.stderr == f"sure-boundary: error: {message}\n"


class TestNegativeFloatValue:
    """A value float() reads is a value, also when it starts with "-"."""

    def test_exponent_form_gives_the_same_report(self, capsys):
        argv = ["known-variance", "--p", "5", "--L", "logpow:b=1.0", "--a"]
        code, out = run_cli([*argv, "-2e0"], capsys)
        assert (code, out) == run_cli([*argv, "-2"], capsys)
        assert code == 0 and json.loads(out)["config"]["a"] == "-2.0"

    def test_spaced_and_joined_values_fail_alike(self, capsys):
        argv = ["asymptotics", *D56, "--phi", "zero"]
        runs = []
        for tail in (["--w-lo", "-inf"], ["--w-lo=-inf"]):
            runs.append((main([*argv, *tail]), capsys.readouterr()))
        assert runs[0] == runs[1]
        code, captured = runs[0]
        assert code == 64 and captured.out == ""
        assert captured.err == "sure-boundary: error: argument --w-lo: must be finite, got -inf\n"


class TestAsymptoticsCommand:
    def test_gb_profile(self, capsys):
        code, out = run_cli(
            ["asymptotics", "--p", "5", "--n", "6", "--phi", "gb:a=-2,b=1.0"], capsys
        )
        assert code == 0
        prof = json.loads(out)["tail_profile"]
        assert 0.85 <= prof["b_hat"] <= 1.15

    def test_unbounded_phi_serializes_infinity(self, capsys):
        code, out = run_cli(
            ["asymptotics", "--p", "5", "--n", "6", "--phi", "linear:alpha=0.5"], capsys
        )
        assert code == 0
        assert json.loads(out)["tail_profile"]["phi_limit"] == "inf"

    def test_gb_w_hi_above_table_top_rejected(self, capsys):
        # above its top node a compiled gb member is constant, with phi' = 0,
        # so a fit reaching there would read the table's end as the tail
        from sure_boundary.families import _GB_NODES

        top = math.exp(_GB_NODES[-1])
        argv = ["asymptotics", *D56, "--phi", "gb:a=-2,b=2.0", "--w-hi"]
        assert main([*argv, "1e20"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"sure-boundary: error: argument --w-hi: a gb table ends at w = {top!r}, got 1e+20\n"
        )
        assert run_cli([*argv, repr(top)], capsys)[0] == 0
        assert run_cli(["asymptotics", *D56, "--phi", "zero", "--w-hi", "1e20"], capsys)[0] == 0


STARTUP_SCRIPT = """
import contextlib, io, json, sys

argvs, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])

def loaded():
    return sorted(m for m in sys.modules
                  if any(m == w or m.startswith(w + ".") for w in watched))

from sure_boundary import cli
seen = {"import": loaded()}
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:  # --version, --help and parser rejections exit
            pass
    seen[" ".join(argv)] = loaded()
import sure_boundary.known_variance, sure_boundary.montecarlo, sure_boundary.reports
seen["every layer"] = loaded()
print(json.dumps(seen))
"""


def modules_loaded(argvs, watched):
    """Watched modules (a name or a package) loaded after importing cli, after
    cli.main on each argv in turn, all in one fresh interpreter, and last
    after importing every layer, which loads each of them."""
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, json.dumps(argvs), json.dumps(watched)],
        capture_output=True, text=True, check=True,
    )
    seen = json.loads(proc.stdout)
    # the check itself sees each watched module once a layer imports it
    last = seen.pop("every layer")
    assert all(any(m == w or m.startswith(w + ".") for m in last) for w in watched)
    assert len(seen) == 1 + len(argvs)
    return seen


LAYERS = ["sure_boundary." + layer for layer in
          ("core", "quadrature", "families", "boundary", "known_variance", "montecarlo",
           "reports")]


class TestStartUp:
    """The CLI parses its command line before it loads numpy, and each command
    loads only the layers it runs: scipy only for the Monte Carlo layer."""

    ARGVS = [
        ["classify", *D56, "--phi", "gb:a=-2,b=2.0"],
        ["dominate", *D56, "--phi", "zero", "--b", "1.5"],
        ["verify", *TestDominateAndVerify.GB_FALSE, *TestDominateAndVerify.GB_FALSE_SPEC],
        ["asymptotics", *D56, "--phi", "gb:a=-2,b=1.0"],
        ["crosscheck", *D56, "--identity", "saigo4", "--b", "1.0"],
        ["known-variance", "--p", "5", "--a", "-2", "--L", "logpow:b=1.0"],
        ["crosscheck", *D56, "--identity", "psi", "--b", "1.0"],
    ]

    def test_no_scipy_at_start_up(self):
        seen = modules_loaded(self.ARGVS, ["scipy"])
        assert all(modules == [] for modules in seen.values()), seen

    def test_no_numpy_before_a_command_runs(self):
        argvs = [
            ["--version"],
            ["--help"],
            ["classify", "--help"],
            ["classify", "--p", "5"],  # rejected by the parser
            ["classify", *D56, "--ph", "zero"],  # a prefix, rejected by the parser
        ]
        seen = modules_loaded(argvs, ["numpy", *LAYERS])
        assert all(modules == [] for modules in seen.values()), seen

    def test_each_command_loads_only_its_layers(self):
        argvs = [
            ["known-variance", "--p", "5", "--a", "-2", "--L", "logpow:b=1.0"],
            ["crosscheck", *D56, "--identity", "psi", "--b", "1.0"],
            ["crosscheck", *D56, "--identity", "saigo4", "--b", "1.0"],
        ]
        seen = modules_loaded(argvs, ["sure_boundary.families", "sure_boundary.boundary"])
        assert list(seen.values()) == [[], [], [], ["sure_boundary.families"]], seen

    def test_families_imports_no_scipy(self):
        import ast
        import inspect

        from sure_boundary import families

        tree = ast.parse(inspect.getsource(families))
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert imported and not any(m.partition(".")[0] == "scipy" for m in imported)
