"""Golden report corpus: exact stdout, stderr and exit code of CLI runs.

Each case in CASES runs in-process through ``cli.main`` and is compared
byte for byte with ``tests/golden/<case>.json``.  Regenerate the corpus
(after a deliberate change of report bytes only) with

    PYTHONPATH=src python tests/test_golden.py

The corpus records the Python, numpy and scipy versions it was generated
with; a mismatching case prints both sets of versions.
"""

import collections
import contextlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy

from sure_boundary import cli

GOLDEN = Path(__file__).with_name("golden")
VERSIONS = GOLDEN / "_versions.json"
OUT = "{out}"  # replaced by a temporary file path at run time

D56 = ["--p", "5", "--n", "6"]
SIM = [*D56, "--theta-norm", "1.5", "--reps", "2000", "--seed", "3"]

CASES = {
    "classify-zero": ["classify", *D56, "--phi", "zero"],
    "classify-linear": ["classify", *D56, "--phi", "linear:alpha=0.5"],
    "classify-gb": ["classify", *D56, "--phi", "gb:a=-2,b=2.5", "--margin", "0.1"],
    "classify-boundary": ["classify", *D56, "--phi", "boundary:b=1.0"],
    "classify-jsplus-admissible": ["classify", *D56, "--phi", "jsplus:a=0.375"],
    "classify-jsplus-threshold": ["classify", *D56, "--phi", "jsplus:a=0.3",
                                  "--margin", "0.15"],
    "classify-bad-gb": ["classify", *D56, "--phi", "gb:a=-9,b=1"],
    "classify-d-underflow": ["classify", "--p", "60", "--n", "60", "--phi", "gb:a=-2,b=2.0"],
    "classify-missing-n": ["classify", "--p", "5"],
    "config-missing-file": ["classify", "--config", "missing.cfg"],
    "config-abbreviated": ["classify", *D56, "--phi", "zero", "--conf", "missing.cfg"],
    "dominate-zero": ["dominate", *D56, "--phi", "zero", "--b", "1.5"],
    "dominate-boundary": ["dominate", "--p", "6", "--n", "17", "--phi", "boundary:b=2.0",
                          "--b", "1.5"],
    "dominate-unbounded": ["dominate", *D56, "--phi", "linear:alpha=0.5", "--b", "1.5"],
    "dominate-w-sharp-cap": ["dominate", *D56, "--phi", "zero", "--b", "1.5",
                             "--w-sharp-cap", "1e9"],
    "classify-boundary-w-floor": ["classify", *D56, "--phi", "boundary:b=1.0,w_floor=3"],
    "verify-zero": ["verify", *D56, "--phi", "zero", "--b", "1.5",
                    "--nu", "0.17708333333333334", "--w-sharp", "4.0",
                    "--ramp-width", "4.0", "--w-star", "4.0", "--grid-points", "500"],
    "simulate-json": ["simulate", *SIM, "--phi", "jsplus:a=0.375"],
    "simulate-csv": ["simulate", *SIM, "--phi", "jsplus:a=0.375", "--format", "csv"],
    "simulate-student-t": ["simulate", *SIM, "--phi", "zero", "--model", "student-t:df=5"],
    "simulate-out": ["simulate", *SIM, "--phi", "zero", "--out", OUT],
    "sure-check-gb": ["sure-check", *SIM, "--phi", "gb:a=-2,b=1.0", "--sigma", "0.5"],
    "asymptotics-gb": ["asymptotics", *D56, "--phi", "gb:a=-2,b=1.0"],
    "asymptotics-linear": ["asymptotics", *D56, "--phi", "linear:alpha=0.5", "--points", "30"],
    "asymptotics-short-grid": ["asymptotics", *D56, "--phi", "zero", "--w-lo", "1e4"],
    "known-variance-logpow": ["known-variance", "--p", "5", "--a", "-2", "--L", "logpow:b=1.0",
                              "--z-max", "1e6", "--r-max", "1e4"],
    "known-variance-one": ["known-variance", "--p", "7", "--a", "-1.5"],
    "crosscheck-saigo4": ["crosscheck", *D56, "--identity", "saigo4", "--b", "1", "--w", "10"],
    "crosscheck-psi": ["crosscheck", *D56, "--identity", "psi", "--b", "1.5"],
    "crosscheck-zero-tol": ["crosscheck", *D56, "--identity", "saigo4", "--b", "2",
                            "--tol", "0"],
    "classify-csv": ["classify", *D56, "--phi", "zero", "--format", "csv"],
    "known-variance-csv": ["known-variance", "--p", "5", "--a", "-2", "--format", "csv"],
    "crosscheck-saigo4-v": ["crosscheck", *D56, "--identity", "saigo4", "--b", "1", "--v", "3"],
    "crosscheck-psi-w": ["crosscheck", *D56, "--identity", "psi", "--b", "1", "--w", "3"],
    "known-variance-underflow": ["known-variance", "--p", "300", "--a", "-2",
                                 "--L", "logpow:b=1.0"],
    "known-variance-overflow": ["known-variance", "--p", "400", "--a", "-2",
                                "--L", "logpow:b=1.0"],
    "classify-margin-out-of-range": ["classify", *D56, "--phi", "zero", "--margin", "2"],
    "verify-non-finite-w-sharp": ["verify", *D56, "--phi", "zero", "--b", "1.5",
                                  "--nu", "0.17708333333333334", "--w-sharp", "inf",
                                  "--ramp-width", "4.0", "--w-star", "4.0"],
    "crosscheck-psi-negative-b": ["crosscheck", *D56, "--identity", "psi", "--b", "-1",
                                  "--v", "10"],
}


def versions() -> dict:
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }


def run_case(argv: list) -> dict:
    """Run one CLI invocation in-process and capture everything it shows.

    The terminal width is pinned because argparse wraps its usage text to
    it; warnings are recorded by category and message (not by source line).
    """
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "report")
        args = [out_path if a == OUT else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        saved = os.environ.get("COLUMNS")
        os.environ["COLUMNS"] = "80"
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = cli.main(args)
                except SystemExit as exc:
                    code = exc.code
        finally:
            if saved is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = saved
        result = {
            "argv": list(argv),
            "exit": code,
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        }
        if OUT in argv:
            result["out_file"] = Path(out_path).read_text(encoding="utf-8")
    return result


def _dump(path: Path, obj: dict) -> None:
    path.write_text(
        json.dumps(obj, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_corpus_holds_exactly_the_cases():
    stored = {p.stem for p in GOLDEN.glob("*.json")} - {VERSIONS.stem}
    assert stored == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name):
    golden = _load(GOLDEN / f"{name}.json")
    assert golden["argv"] == CASES[name], "stale corpus: regenerate it"
    got = run_case(CASES[name])
    if got != golden:
        pytest.fail(
            f"{name}: CLI output differs from the golden corpus.\n"
            f"corpus versions:  {_load(VERSIONS)}\n"
            f"running versions: {versions()}\n"
            + "\n".join(
                f"{key}: expected {golden.get(key)!r:.300}\n{' ' * len(key)}  got      "
                f"{got.get(key)!r:.300}"
                for key in sorted(set(golden) | set(got))
                if golden.get(key) != got.get(key)
            )
        )


# the report field each command writes under a bundled schema
SCHEMA_OF = {
    "classify": ("verdict", "quasi_class.schema.json"),
    "dominate": ("certificate", "domination_certificate.schema.json"),
    "verify": ("certificate", "domination_certificate.schema.json"),
}


def test_verdicts_and_certificates_follow_their_schemas():
    schemas = resources.files("sure_boundary.schemas")
    checked = collections.Counter()
    for case, argv in sorted(CASES.items()):
        stdout = _load(GOLDEN / f"{case}.json")["stdout"]
        if argv[0] not in SCHEMA_OF or not stdout:
            continue
        field, name = SCHEMA_OF[argv[0]]
        schema = json.loads(schemas.joinpath(name).read_text(encoding="utf-8"))
        jsonschema.validate(json.loads(stdout)[field], schema)
        checked[field] += 1
    assert checked == {"verdict": 6, "certificate": 3}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    _dump(VERSIONS, versions())
    for case, case_argv in CASES.items():
        _dump(GOLDEN / f"{case}.json", run_case(case_argv))
        print(f"wrote {case}", file=sys.stderr)
