"""The four workloads: seeded inputs, the timed operations, and their checks.

Each workload turns a seed into a fixed list of operations.  An operation is
a ``run`` callable, timed, and a ``check`` callable, untimed, that returns the
problems it found in the output (an empty list when the output is right).
Work is counted in rounds: a round is a fixed make-up of operations whose
inputs vary with the seed, so every run of a workload does the same kinds of
work in the same proportions.

Program modules are imported inside ``prepare``, which is part of set-up;
the reference computations (``oracles``, jsonschema) load only after set-up.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMAS = os.path.join(ROOT, "src", "sure_boundary", "schemas")
HERE = os.path.dirname(os.path.abspath(__file__))

WITNESS_B = 1.5  # dominator witness used by every certificate here


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass
class Plan:
    ops: list
    final_check: Callable[[], list] = lambda: []
    state: dict = field(default_factory=dict)


def stratified(rng: random.Random, lo: float, hi: float, k: int) -> list:
    """k draws, one uniform in each of k equal slices of [lo, hi), shuffled.

    Every run then covers the range evenly, so the run's total cost does
    not hinge on the seed drawing many cheap or many expensive inputs.
    """
    out = [lo + (i + rng.random()) * (hi - lo) / k for i in range(k)]
    rng.shuffle(out)
    return out


def stratified_ints(rng: random.Random, lo: int, hi: int, k: int) -> list:
    """Like stratified, over the integers lo..hi."""
    return [int(x) for x in stratified(rng, lo, hi + 1, k)]


def _schema_validator(name: str):
    import jsonschema

    with open(os.path.join(SCHEMAS, name), encoding="utf-8") as fh:
        return jsonschema.Draft7Validator(json.load(fh))


def _schema_problems(name: str, doc) -> list:
    return [f"{name}: {e.message}" for e in _schema_validator(name).iter_errors(doc)]


def certificate_problems(cert: dict, p: int, n: int, zero_phi: bool) -> list:
    """Checks every certificate must pass, from its parsed JSON form.

    The schema, a true verdict, a non-trivial Delta, Delta exactly 0 up to
    w_sharp and >= 0 above it; for phi = 0 also Delta recomputed from the
    SURE formula at every grid point.
    """
    import oracles

    problems = _schema_problems("domination_certificate.schema.json", cert)
    spec = cert["spec"]
    grid = cert["grid"]
    w_sharp = spec["w_sharp"]
    if cert["verdict"] is not True:
        problems.append("certificate verdict is not true")
    if all(d == 0.0 for _, d in grid):
        problems.append("certificate is trivial (Delta = 0 on the whole grid)")
    below = [d for w, d in grid if w <= w_sharp]
    above = [d for w, d in grid if w > w_sharp]
    if any(d != 0.0 for d in below):
        problems.append("Delta is not exactly 0 below w_sharp")
    if not above or min(above) < 0.0:
        problems.append(f"min Delta above w_sharp is {min(above) if above else None}")
    if zero_phi:
        scale = max(abs(d) for _, d in grid) or 1.0
        for w, d in grid:
            ref = oracles.zero_delta(w, spec["nu"], w_sharp, spec["ramp_width"], p, n)
            if abs(d - ref) > 1e-9 * abs(ref) + 1e-13 * scale:
                problems.append(f"zero: Delta({w!r}) = {d!r}, formula gives {ref!r}")
                break
    return problems


# ---------------------------------------------------------------------------
# certify_sweep: one cell of the shrinkage catalog per operation
# ---------------------------------------------------------------------------

GB_LOG_LO, GB_STEP = math.log(1e-9), 0.1  # the gb spline's table nodes
GB_CHECK_NODES = (int((math.log(1e-3) - GB_LOG_LO) / GB_STEP),
                  int((math.log(1e10) - GB_LOG_LO) / GB_STEP))


def _certify_members(cell: dict, c_pn: float) -> list:
    """(spec text, expected verdict, dominate?, gb (a, b) or None)."""
    qa, qi = "QuasiAdmissible", "QuasiInadmissible"
    return [
        ("zero", qi, True, None),
        (f"jsplus:a={c_pn!r}", qa, False, None),
        ("linear:alpha=0.3", qa, False, None),
        ("boundary:b=0.5", qa, False, None),
        # classified only: verify_domination rejects this member at many
        # (p, n) because phi(0) comes out ~1e-17 instead of 0
        ("boundary:b=2.0", qi, False, None),
        (f"gb:a=-2,b={cell['b_adm']!r}", qa, False, (-2.0, cell["b_adm"])),
        (f"gb:a=-2,b={cell['b_inad']!r}", qi, True, (-2.0, cell["b_inad"])),
        (f"gb:a=-1,b={cell['b_one']!r}", qa, False, (-1.0, cell["b_one"])),
    ]


def prepare_certify(seed: int, rounds: int, smoke: bool) -> Plan:
    import numpy as np

    from sure_boundary import boundary, core, families, reports

    rng = random.Random(f"certify_sweep:{seed}")
    tail_grid = np.geomspace(1e3, 1e8, 48)

    def run_cell(cell: dict) -> dict:
        dims = core.ProblemDims(cell["p"], cell["n"])
        c_pn = core.constants(dims).c_pn
        out = {}
        for text, _expected, dominate, gb in _certify_members(cell, c_pn):
            phi = families.make_shrinkage(families.parse_phi_spec(text), dims)
            boundary.check_assumptions(phi)
            verdict = boundary.classify(phi, dims)
            cert = None
            if dominate:
                spec = boundary.construct_dominator(phi, dims, WITNESS_B)
                cert = reports.canonical_json(boundary.verify_domination(phi, spec, dims))
            tail = families.tail_profile(phi, dims, tail_grid) if gb else None
            out[text] = (phi, verdict.variant, cert, tail)
        return out

    def check_cell(cell: dict, out: dict) -> list:
        import oracles

        p, n = cell["p"], cell["n"]
        c_pn = (p - 2) / (n + 2)
        problems = []
        for text, expected, dominate, gb in _certify_members(cell, c_pn):
            phi, variant, cert, tail = out[text]
            if variant != expected:
                problems.append(f"{text}: verdict {variant}, expected {expected}")
            if dominate:
                problems += [
                    f"{text}: {msg}"
                    for msg in certificate_problems(json.loads(cert), p, n, text == "zero")
                ]
            if gb is None:
                continue
            a, b = gb
            for node in cell["nodes"]:
                w = math.exp(GB_LOG_LO + GB_STEP * (node + 0.5))
                ref = oracles.gb_phi(a, b, w, p, n)
                got = phi.eval(w)
                if not abs(got - ref) <= 1e-6 * abs(ref):
                    problems.append(f"{text}: phi({w!r}) = {got!r}, quadrature gives {ref!r}")
            if a == -2.0 and (tail.b_hat is None or (tail.b_hat > 1.0) != (b > 1.0)):
                problems.append(f"{text}: fitted tail coefficient {tail.b_hat} on the wrong side of 1")
        return problems

    # 4 cells per round; p, n and the gb parameters are stratified over the run
    cells = 4 * rounds
    draws = zip(stratified_ints(rng, 3, 20, cells), stratified_ints(rng, 3, 20, cells),
                stratified(rng, 0.2, 0.9, cells), stratified(rng, 2.1, 3.0, cells),
                stratified(rng, 0.0, 2.0, cells))
    ops = []
    for p, n, b_adm, b_inad, b_one in draws:
        cell = {
            "p": p, "n": n, "b_adm": b_adm, "b_inad": b_inad, "b_one": b_one,
            "nodes": [rng.randint(*GB_CHECK_NODES) for _ in range(2)],
        }
        ops.append(Op(
            f"certify p={p} n={n}",
            lambda c=cell: run_cell(c),
            lambda out, c=cell: check_cell(c, out),
        ))
    return Plan(ops)


# ---------------------------------------------------------------------------
# mc_risk: one Monte Carlo cell per operation
# ---------------------------------------------------------------------------

MC_REPS = 10**6
MC_THREADS = 2
# fixed because the cost of gammaincinv(shape, u) depends on the shape
# (n/2 for S, df/2 for the mixing variable) by up to 25 %
MC_N = 6
MC_DF = 10.0
# one round: (p, member, model, kind); "sure" cells run the Normal-model
# SURE z-test, "risk" cells estimate_risk, "dom" cells a paired
# domination_mc run of zero against its constructed dominator
MC_ROUND = [
    (5, "zero", "normal", "sure"),
    (5, "linear", "student-t", "risk"),
    (5, "jsplus", "normal", "sure"),
    (5, "gb", "student-t", "risk"),
    (5, "zero", "normal", "dom"),
    (20, "zero", "student-t", "risk"),
    (20, "linear", "normal", "sure"),
    (20, "jsplus", "student-t", "risk"),
    (20, "gb", "normal", "sure"),
    (20, "zero", "student-t", "dom"),
]


def prepare_mc(seed: int, rounds: int, smoke: bool) -> Plan:
    from sure_boundary import boundary, core, families, montecarlo

    rng = random.Random(f"mc_risk:{seed}")
    reps = MC_REPS // 5 if smoke else MC_REPS
    fixed = {}
    for p in (5, 20):
        dims = core.ProblemDims(p, MC_N)
        c_pn = core.constants(dims).c_pn
        zero = families.make_shrinkage(families.Zero(), dims)
        fixed[p, "zero"] = zero
        fixed[p, "jsplus"] = families.make_shrinkage(families.PositivePartJS(a=c_pn), dims)
        fixed[p, "gb"] = families.make_shrinkage(families.GBUnknown(a=-2.0, b=1.0), dims)
        fixed[p, "dominator"] = boundary.construct_dominator(zero, dims, WITNESS_B)

    def run_cell(cell: dict):
        if cell["kind"] == "sure":
            return montecarlo.sure_unbiasedness_test(cell["phi"], cell["config"], threads=MC_THREADS)
        if cell["kind"] == "risk":
            return montecarlo.estimate_risk(cell["phi"], cell["config"], threads=MC_THREADS)
        spec = fixed[cell["config"].dims.p, "dominator"]
        return montecarlo.domination_mc(cell["phi"], spec, [cell["config"]], threads=MC_THREADS)[0]

    def check_cell(cell: dict, res) -> list:
        import oracles

        config = cell["config"]
        p = config.dims.p
        df = cell["df"]
        mix_mean = df / (df - 2.0) if df else 1.0  # E[v] of the scale mixture
        problems = []
        if res.reps != config.reps:
            problems.append(f"reps {res.reps} != {config.reps}")
        if cell["kind"] == "dom":
            if not res.mean_diff >= -3.0 * res.se_diff:
                problems.append(f"dominator loses: mean_diff {res.mean_diff} se {res.se_diff}")
            return problems
        if cell["kind"] == "sure" and res.flagged:
            problems.append(f"SURE z-test flagged: z = {res.z}")
        if cell["alpha"] is not None:
            ref = oracles.linear_risk(cell["alpha"], p, config.theta_norm, config.sigma, mix_mean)
            if abs(res.mean_loss - ref) > 4.0 * res.se_loss:
                problems.append(f"risk {res.mean_loss} +/- {res.se_loss}, closed form {ref}")
        elif not res.mean_loss <= p * mix_mean + 4.0 * res.se_loss:
            # 0 <= phi <= 2 c_pn and nondecreasing: never worse than X
            problems.append(f"risk {res.mean_loss} exceeds p E[v] = {p * mix_mean}")
        return problems

    ops = []
    for _ in range(rounds):
        for p, member, model, kind in MC_ROUND:
            dims = core.ProblemDims(p, MC_N)
            df = MC_DF if model == "student-t" else None
            # zero is linear with alpha = 1; both have a closed-form risk
            alpha = {"zero": 1.0, "linear": rng.uniform(0.2, 0.8)}.get(member)
            if member == "linear":
                phi = families.make_shrinkage(families.Linear(alpha=alpha), dims)
            else:
                phi = fixed[p, member]
            config = montecarlo.SimConfig(
                dims=dims,
                theta_norm=rng.uniform(0.0, 3.0),
                sigma=rng.uniform(0.5, 2.0),
                reps=reps,
                seed=rng.getrandbits(63),
                model=montecarlo.StudentT(df=df) if df else montecarlo.Normal(),
            )
            cell = {"kind": kind, "phi": phi, "config": config, "df": df,
                    "alpha": alpha if kind != "dom" else None}
            ops.append(Op(
                f"mc p={p} {member} {model} {kind}",
                lambda c=cell: run_cell(c),
                lambda res, c=cell: check_cell(c, res),
            ))

    # 2.5 of the Monte Carlo layer's 131072-rep chunks, so threads have work
    small = montecarlo.SimConfig(
        dims=core.ProblemDims(5, MC_N), theta_norm=1.0, sigma=1.0,
        reps=327_680, seed=rng.getrandbits(63),
    )

    def threads_agree() -> list:
        one = montecarlo.estimate_risk(fixed[5, "gb"], small, threads=1)
        two = montecarlo.estimate_risk(fixed[5, "gb"], small, threads=2)
        return [] if one == two else [f"threads=1 gives {one}, threads=2 gives {two}"]

    return Plan(ops, threads_agree)


# ---------------------------------------------------------------------------
# exact_routes: the quadrature routes behind one seeded prior per operation
# ---------------------------------------------------------------------------

# the acceptance suite's prior cells off the b = 1 boundary, evaluated at its p
BROWN_CELLS = [(a, b) for a in (-3.0, -2.5, -2.0, -1.5, -1.0) for b in (0.0, 0.5, 1.5)]
BROWN_P = 5
W_POINTS = 64
V_POINTS = 32
Z_POINTS = 12


def prepare_exact(seed: int, rounds: int, smoke: bool) -> Plan:
    import numpy as np

    from sure_boundary import core, families
    from sure_boundary import known_variance as kv

    rng = random.Random(f"exact_routes:{seed}")
    w_grid = np.geomspace(1.0, 1e8, W_POINTS)
    v_grid = np.geomspace(0.5, 1e4, V_POINTS)
    z_grid = np.geomspace(0.5, 1e3, Z_POINTS)

    def prior(a: float, b: float):
        return kv.PriorSpec(a=a, L=kv.LogPow(b) if b > 0.0 else kv.One())

    def run_cell(cell: dict) -> dict:
        p, b = cell["p"], cell["b"]
        dims = core.ProblemDims(p, cell["n"])
        one, logpow = prior(-2.0, 0.0), prior(-2.0, b)
        return {
            "gb": [families.phi_gb_unknown(-2.0, b, w, dims) for w in w_grid],
            "saigo4": [families.phi_gb_identity_saigo4(b, w, dims) for w in w_grid],
            "deriv": [families.phi_gb_unknown_deriv(-2.0, b, w, dims) for w in w_grid],
            "psi": [kv.psi_known(b, v, p) for v in v_grid],
            "psi_identity": [kv.psi_known_via_identity(b, v, p) for v in v_grid],
            "m_one": [kv.marginal_m(z, one, p) for z in z_grid],
            "m_logpow": [kv.marginal_m(z, logpow, p) for z in z_grid],
            "tauberian": kv.tauberian_check(logpow, p),
            "gradient": kv.gradient_bound_check(logpow, p),
            "psi_tail": kv.psi_tail_fit(b, p),
            "brown": kv.brown_integral_numeric(prior(*cell["brown"]), BROWN_P),
        }

    def check_cell(cell: dict, out: dict) -> list:
        import oracles

        p, n, b = cell["p"], cell["n"], cell["b"]
        problems = []
        for left, right, grid in (("gb", "saigo4", w_grid), ("psi", "psi_identity", v_grid)):
            for x, r1, r2 in zip(grid, out[left], out[right]):
                if not abs(r1 - r2) <= 1e-8 * (1.0 + abs(r1)):
                    problems.append(f"{left} {r1!r} != {right} {r2!r} at {x!r}")
        for i in cell["deriv_at"]:
            w, h = float(w_grid[i]), 1e-4
            dims = core.ProblemDims(p, n)
            fd = (families.phi_gb_unknown(-2.0, b, w * (1 + h), dims)
                  - families.phi_gb_unknown(-2.0, b, w * (1 - h), dims)) / (2 * w * h)
            if not abs(out["deriv"][i] - fd) <= 1e-5 * abs(fd):
                problems.append(f"phi'({w!r}) = {out['deriv'][i]!r}, difference quotient {fd!r}")
        for z, m in zip(z_grid, out["m_one"]):
            ref = oracles.marginal_one(float(z), -2.0, p)
            if not abs(m - ref) <= 1e-8 * ref:
                problems.append(f"m_One({z!r}) = {m!r}, incomplete gamma gives {ref!r}")
        for i in cell["spots"]:
            z = float(z_grid[i])
            ref = oracles.marginal_logpow(z, -2.0, b, p)
            if not abs(out["m_logpow"][i] - ref) <= 1e-8 * ref:
                problems.append(f"m_LogPow({z!r}) = {out['m_logpow'][i]!r}, quadrature gives {ref!r}")
        a_cell, b_cell = cell["brown"]
        if out["brown"].diverges != oracles.brown_admissible(a_cell, b_cell):
            problems.append(f"Brown integral at a={a_cell} b={b_cell}: diverges={out['brown'].diverges}")
        if out["gradient"].target != p - 2.0 or out["psi_tail"].target != 2.0 * b:
            problems.append("gradient or psi-tail target differs from p + 2a + 2 / 2b")
        values = (list(out["tauberian"].ratios) + list(out["gradient"].values)
                  + list(out["psi_tail"].scaled_gaps) + out["deriv"])
        if not all(math.isfinite(v) for v in values):
            problems.append("non-finite Tauberian, gradient, psi-tail or derivative value")
        return problems

    # one round holds each Brown prior cell once; p, n and b are stratified
    # over the run
    browns = []
    for _ in range(rounds):
        browns += rng.sample(BROWN_CELLS, len(BROWN_CELLS))
    count = len(browns)
    draws = zip(browns, stratified_ints(rng, 3, 8, count), stratified_ints(rng, 3, 8, count),
                stratified(rng, 0.25, 2.5, count))
    ops = []
    for brown, p, n, b in draws:
        cell = {
            "p": p, "n": n, "b": b, "brown": brown,
            "deriv_at": [rng.randrange(5, W_POINTS - 5)],
            "spots": rng.sample(range(Z_POINTS), 3),
        }
        ops.append(Op(
            f"exact p={p} n={n} b={b:.3f}",
            lambda c=cell: run_cell(c),
            lambda out, c=cell: check_cell(c, out),
        ))
    return Plan(ops)


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m sure_boundary.cli ...` per operation
# ---------------------------------------------------------------------------

CLI_TIMEOUT = 120


def cli_env(threads: int | None = None, extra: dict | None = None) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if threads is not None:
        env["SURE_BOUNDARY_THREADS"] = str(threads)
    env.update(extra or {})
    return env


def prepare_cli(seed: int, rounds: int, smoke: bool, traced: bool = False, out_dir: str = "") -> Plan:
    rng = random.Random(f"cli_cold:{seed}")
    p, n = 5, 6  # the README's dimensions; memory and cost grow with p
    dims = ["--p", str(p), "--n", str(n)]
    c_pn = (p - 2) / (n + 2)
    b_gb = rng.uniform(2.2, 3.0)
    theta = rng.uniform(0.0, 3.0)
    b_cross, w_cross, v_cross = rng.uniform(0.5, 2.0), 10 ** rng.uniform(0, 6), 10 ** rng.uniform(0, 2)
    state: dict = {"stdout": {}, "spans": []}

    def report(proc) -> dict:
        return json.loads(proc.stdout)

    def classify_check(expected: str):
        def check(proc) -> list:
            doc = report(proc)["verdict"]
            problems = _schema_problems("quasi_class.schema.json", doc)
            if doc["variant"] != expected:
                problems.append(f"verdict {doc['variant']}, expected {expected}")
            return problems
        return check

    def dominate_check(proc) -> list:
        cert = report(proc)["certificate"]
        state["certificate"] = cert
        return certificate_problems(cert, p, n, zero_phi=True)

    def verify_args() -> list:
        spec = state["certificate"]["spec"]
        return ["verify", *dims, "--phi", "zero", "--b", repr(spec["b"]), "--nu", repr(spec["nu"]),
                "--w-sharp", repr(spec["w_sharp"]), "--ramp-width", repr(spec["ramp_width"]),
                "--w-star", repr(spec["w_star"])]

    def verify_check(proc) -> list:
        cert = report(proc)["certificate"]
        problems = _schema_problems("domination_certificate.schema.json", cert)
        if cert != state["certificate"]:
            problems.append("verify certificate differs from the dominate certificate")
        return problems

    sim_header = "theta_norm,sigma,model,reps,seed,mean_loss,se_loss,sure_mean,se_sure"

    def simulate_check(proc) -> list:
        lines = proc.stdout.decode().splitlines()
        if lines[0] != sim_header or len(lines) != 2:
            return [f"unexpected CSV layout {lines[:1]}"]
        row = next(csv.DictReader(io.StringIO(proc.stdout.decode())))
        problems = []
        if int(row["reps"]) != 100000:
            problems.append(f"reps {row['reps']}")
        if not float(row["mean_loss"]) <= p + 4.0 * float(row["se_loss"]):
            problems.append(f"positive-part James-Stein risk {row['mean_loss']} exceeds p = {p}")
        return problems

    def sure_check(proc) -> list:
        check = report(proc)["check"]
        return [f"SURE check flagged: z = {check['z']}"] if check["flagged"] else []

    def asymptotics_check(proc) -> list:
        b_hat = report(proc)["tail_profile"]["b_hat"]
        return [] if b_hat is not None and b_hat > 1.0 else [f"gb:a=-2,b=2.0 fitted b_hat {b_hat}"]

    def known_variance_check(proc) -> list:
        import oracles

        doc = report(proc)
        admissible = oracles.brown_admissible(-2.0, 1.0)
        if (doc["verdict"] == "admissible") != admissible or doc["boundary"] is not True:
            return [f"verdict {doc['verdict']} boundary {doc['boundary']}"]
        return []

    def crosscheck_check(proc) -> list:
        doc = report(proc)
        return [] if doc["within_tol"] is True else [f"max_rel_dev {doc['max_rel_dev']}"]

    commands = [
        ("classify-zero", lambda: ["classify", *dims, "--phi", "zero"], 0,
         classify_check("QuasiInadmissible")),
        ("classify-boundary", lambda: ["classify", *dims, "--phi", "boundary:b=1.0"], 2,
         classify_check("Indeterminate")),
        ("classify-gb", lambda: ["classify", *dims, "--phi", f"gb:a=-2,b={b_gb!r}"], 0,
         classify_check("QuasiInadmissible")),
        ("dominate", lambda: ["dominate", *dims, "--phi", "zero", "--b", "1.5"], 0, dominate_check),
        ("verify", verify_args, 0, verify_check),
        ("simulate", lambda: ["simulate", *dims, "--phi", f"jsplus:a={c_pn!r}",
                              "--theta-norm", repr(theta), "--sigma", "1", "--reps", "100000",
                              "--seed", str(seed), "--format", "csv"], 0, simulate_check),
        ("sure-check", lambda: ["sure-check", *dims, "--phi", "gb:a=-2,b=1.0", "--reps", "100000",
                                "--seed", str(seed + 1)], 0, sure_check),
        ("asymptotics", lambda: ["asymptotics", *dims, "--phi", "gb:a=-2,b=2.0"], 0,
         asymptotics_check),
        ("known-variance", lambda: ["known-variance", "--p", str(p), "--a", "-2",
                                    "--L", "logpow:b=1.0"], 0, known_variance_check),
        ("crosscheck-saigo4", lambda: ["crosscheck", *dims, "--identity", "saigo4",
                                       "--b", repr(b_cross), "--w", repr(w_cross)], 0,
         crosscheck_check),
        ("crosscheck-psi", lambda: ["crosscheck", *dims, "--identity", "psi",
                                    "--b", repr(b_cross), "--v", repr(v_cross)], 0,
         crosscheck_check),
    ]

    def run_command(index: int, argv: Callable[[], list], threads: int):
        extra = {}
        if traced:
            span_file = os.path.join(out_dir, f"cli_spans_{index}.json")
            extra["PERFBENCH_SPANS"] = span_file
            state["spans"].append(span_file)
            head = [sys.executable, os.path.join(HERE, "tracecli.py")]
        else:
            head = [sys.executable, "-m", "sure_boundary.cli"]
        return subprocess.run(head + argv(), env=cli_env(threads, extra), capture_output=True,
                              timeout=CLI_TIMEOUT, cwd=ROOT)

    def make_check(label: str, expected_exit: int, check, threads: int):
        def checked(proc) -> list:
            state["stdout"][label, threads] = proc.stdout
            if proc.returncode != expected_exit:
                return [f"{label}: exit {proc.returncode}, expected {expected_exit}: "
                        f"{proc.stderr.decode()[-300:]}"]
            return [f"{label}: {msg}" for msg in check(proc)]
        return checked

    # 11 commands per round and the thread cap alternating per operation,
    # so two rounds run every command under both caps
    ops = []
    for r in range(rounds):
        for i, (label, argv, expected_exit, check) in enumerate(commands):
            index = r * len(commands) + i
            threads = 1 + index % 2
            ops.append(Op(
                f"cli {label} threads={threads}",
                lambda k=index, a=argv, t=threads: run_command(k, a, t),
                make_check(label, expected_exit, check, threads),
            ))

    def caps_agree() -> list:
        problems = []
        for label, *_ in commands:
            one, two = state["stdout"].get((label, 1)), state["stdout"].get((label, 2))
            if one is None or two is None:
                problems.append(f"{label}: not run under both thread caps")
            elif one != two:
                problems.append(f"{label}: stdout differs between thread caps 1 and 2")
        return problems

    return Plan(ops, caps_agree, state)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[..., Plan]
    round_s: float  # nominal duration of one round on the reference machine
    min_rounds: int = 1
    in_process: bool = True


WORKLOADS = {
    "certify_sweep": Workload("certify_sweep", prepare_certify, round_s=3.4),
    "mc_risk": Workload("mc_risk", prepare_mc, round_s=19.0),
    "exact_routes": Workload("exact_routes", prepare_exact, round_s=3.4),
    "cli_cold": Workload("cli_cold", prepare_cli, round_s=12.0, min_rounds=2, in_process=False),
}


def rounds_for(workload: Workload, seconds: float, smoke: bool) -> int:
    """Rounds in a run: the fixed work that lasts about `seconds` on the
    reference machine (a whole number, at least min_rounds, even for cli_cold
    so that every command runs under both thread caps)."""
    if smoke:
        return workload.min_rounds
    rounds = max(workload.min_rounds, round(seconds / workload.round_s))
    return rounds + rounds % workload.min_rounds
