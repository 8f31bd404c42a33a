"""Command-line front end.

Each pipeline subcommand runs a slice of the pipeline's one stage table
(occupal.pipeline.STAGES) and writes only its own artifacts.  Each one is
stateless: it re-derives everything upstream of it from the config file
and the master seed (stages are seeded individually, so the re-derivation
is byte-identical to a full run).  A failing subcommand names the failing
stage and removes only the files it wrote itself.

Exit codes: 0 success, 1 validation failure (bad config, bad input files,
invalid generated objects), 2 internal error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys

import numpy as np

from .baseline import exact_al_solve, subgradient_solve
from .extraction import evaluate_theta
from .features import (
    brute_force_sup_gap,
    build_feature_matrix,
    feature_expectation,
    l1_feature_gap,
    sampling_constants,
    state_action_indicator_basis,
)
from .mdp import make_random_mdp, occupancy_of_policy, uniform_policy
from .pipeline import (
    ExperimentConfig,
    PipelineError,
    resolve_sgd,
    run_experiment,
    run_stages,
)
from .sgd import (
    exact_subgradient,
    project_l2_ball,
    stochastic_subgradient,
    subgradient_estimate,
    surrogate_loss,
)

__all__ = ["main"]

# The stages each staged subcommand runs, and the artifacts it writes.
_SLICES = {
    "generate": (("environment",), ("mdp.json",)),
    "expert": (
        ("environment", "expert-policy", "basis", "expert-trajectories"),
        ("expert_policy.json", "trajectories.txt", "expert_fe.json"),
    ),
    "train": (
        ("environment", "expert-policy", "basis", "features",
         "expert-trajectories", "sgd", "policy-extraction"),
        ("trace.csv", "theta.json", "policy.json"),
    ),
    "baseline": (
        ("environment", "expert-policy", "basis", "baseline"),
        ("baseline.json",),
    ),
}
_EVALUATE_STAGES = ("environment", "expert-policy", "basis", "features")


def _load_config(args):
    with open(args.config) as fh:
        blob = json.load(fh)
    scheme = getattr(args, "scheme", None)
    if scheme is not None:
        blob = dict(blob)
        blob["scheme"] = scheme
    return ExperimentConfig.from_json(
        blob,
        out_dir=getattr(args, "out", None),
        master_seed=getattr(args, "seed", None),
    )


def _cmd_slice(args):
    config = _load_config(args)
    stages, artifacts = _SLICES[args.command]
    run_stages(config, stages, artifacts)
    print(f"wrote {', '.join(artifacts)} to {config.out_dir}")
    return 0


def _load_theta(path, d):
    """The parameter vector of a theta.json file, which comes from outside."""
    with open(path) as fh:
        blob = json.load(fh)
    try:
        theta = np.asarray(blob["theta"], dtype=float)
    except (KeyError, TypeError, ValueError):
        theta = None
    if theta is None or theta.shape != (d,) or not np.isfinite(theta).all():
        raise ValueError(f"{path}: 'theta' must be a list of d = {d} finite numbers")
    return theta


def _cmd_evaluate(args):
    config = _load_config(args)
    state = run_stages(config, _EVALUATE_STAGES, ())
    mdp, basis, phi = state["mdp"], state["basis"], state["phi"]
    theta = _load_theta(args.theta, phi.d)
    sgd_config, _, _ = resolve_sgd(
        config.sgd, state["seeds"]["sgd"], phi, basis, mdp, config.scheme
    )
    true_fe = feature_expectation(occupancy_of_policy(mdp, state["expert_policy"]), basis)
    mu, gap = evaluate_theta(theta, phi, basis, mdp, true_fe)
    breakdown = surrogate_loss(theta, phi, basis, mdp, true_fe, sgd_config.lam)
    print(
        json.dumps(
            {
                "feature_gap_vs_expert": gap,
                "occupancy_mass": float(mu.total()),
                "loss_total": breakdown.total,
                "loss_objective": breakdown.objective,
                "v1": breakdown.v1,
                "v2": breakdown.v2,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_run(args):
    config = _load_config(args)
    n = args.parallel_seeds
    if n is None or n <= 1:
        paths = run_experiment(config)
        print(f"wrote {len(paths)} artifacts to {config.out_dir}")
        return 0
    configs = []
    for i in range(n):
        seed = config.master_seed + i
        configs.append(
            ExperimentConfig(
                environment=config.environment,
                basis=config.basis,
                features=config.features,
                expert=config.expert,
                sgd=config.sgd,
                out_dir=os.path.join(config.out_dir, f"seed-{seed}"),
                master_seed=seed,
                scheme=config.scheme,
            )
        )
    workers = min(n, os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for cfg, result in zip(configs, pool.map(run_experiment, configs)):
            print(f"wrote {len(result)} artifacts to {cfg.out_dir}")
    return 0


def _check_occupancy_mass(rng):
    worst = 0.0
    for _ in range(20):
        mdp = make_random_mdp(6, 3, 0.8, seed=int(rng.integers(2**31)))
        mu = occupancy_of_policy(mdp, uniform_policy(mdp))
        worst = max(worst, abs(mu.total() - 5.0))
    return worst <= 1e-9, f"max mass error {worst:.2e}"


def _check_series_tail(rng):
    from fractions import Fraction

    from .rational import (
        random_rational_mdp,
        random_rational_policy,
        series_tail_gaps,
    )

    bound = Fraction(2) * Fraction(1, 2) ** 20
    for _ in range(10):
        rmdp = random_rational_mdp(rng, 4, 2)
        policy = random_rational_policy(rng, rmdp)
        gap = series_tail_gaps(rmdp, policy, [20])[20]
        if gap > bound:
            return False, f"tail gap {float(gap):.3e} exceeds {float(bound):.3e}"
    return True, "10 instances within the exact tail bound"


def _check_sup_gap(rng):
    for _ in range(50):
        n, nc = 8, int(rng.integers(1, 7))
        psi = rng.uniform(0.0, 1.0, size=(n, nc))
        basis_fe_a = psi.T @ rng.uniform(0.0, 1.0, n)
        basis_fe_b = psi.T @ rng.uniform(0.0, 1.0, n)
        direct = l1_feature_gap(basis_fe_a, basis_fe_b)
        brute = brute_force_sup_gap(basis_fe_a, basis_fe_b)
        if abs(direct - brute) > 1e-12:
            return False, f"gap mismatch {abs(direct - brute):.2e}"
    return True, "50 triples agree to 1e-12"


def _check_extraction_bound(rng):
    from .extraction import extraction_report

    worst = float("inf")
    for _ in range(10):
        mdp = make_random_mdp(5, 3, 0.7, seed=int(rng.integers(2**31)))
        for _ in range(50):
            u = rng.normal(0.0, 1.0, mdp.n_pairs)
            rep = extraction_report(u, mdp)
            worst = min(worst, rep.violation_bound - rep.l1_distance)
    return worst >= -1e-8, f"min slack {worst:.2e}"


def _check_unbiased(rng):
    mdp = make_random_mdp(3, 2, 0.6, seed=7)
    basis = state_action_indicator_basis(mdp)
    phi = build_feature_matrix(mdp, 3, seed=11)
    constants = sampling_constants(phi, mdp, basis, lam=2.0)
    target = feature_expectation(occupancy_of_policy(mdp, uniform_policy(mdp)), basis)
    for _ in range(5):
        theta = rng.normal(0.0, 1.0, 3)
        mean = np.zeros(3)
        for xa in range(mdp.n_pairs):
            for y in range(mdp.n_states):
                g = subgradient_estimate(
                    theta, phi, basis, mdp, target, 2.0, constants, xa, y
                )
                mean += constants.q1[xa] * constants.q2[y] * g
        exact = exact_subgradient(theta, phi, basis, mdp, target, 2.0)
        if np.abs(mean - exact).max() > 1e-10:
            return False, f"bias {np.abs(mean - exact).max():.2e}"
    return True, "5 exhaustive expectations match"


def _check_gradient_bound(rng):
    mdp = make_random_mdp(4, 2, 0.7, seed=3)
    basis = state_action_indicator_basis(mdp)
    phi = build_feature_matrix(mdp, 4, seed=5)
    constants = sampling_constants(phi, mdp, basis, lam=2.0)
    target = feature_expectation(occupancy_of_policy(mdp, uniform_policy(mdp)), basis)
    worst = 0.0
    for _ in range(2000):
        theta = project_l2_ball(rng.normal(0.0, 2.0, 4), 2.0)
        g = stochastic_subgradient(theta, phi, basis, mdp, target, 2.0, constants, rng)
        worst = max(worst, float(np.sqrt(g @ g)) - constants.k)
    return worst <= 1e-9, f"max excess over the norm bound {worst:.2e}"


def _check_projection(rng):
    for _ in range(100):
        theta = rng.normal(0.0, 3.0, 6)
        proj = project_l2_ball(theta, 1.5)
        if float(np.sqrt(proj @ proj)) > 1.5 + 1e-12:
            return False, "projection left the ball"
        if not np.allclose(project_l2_ball(proj, 1.5), proj):
            return False, "projection not idempotent"
    return True, "100 projections inside the ball and idempotent"


def _check_baseline_agreement(rng):
    mdp = make_random_mdp(4, 2, 0.6, seed=13)
    basis = state_action_indicator_basis(mdp)
    target = feature_expectation(occupancy_of_policy(mdp, uniform_policy(mdp)), basis)
    lp = exact_al_solve(mdp, basis, target)
    sub = subgradient_solve(mdp, basis, target)
    gap = abs(lp.objective - sub.objective)
    return gap <= 1e-4 and sub.certified, (
        f"|simplex - subgradient| = {gap:.2e}, certified: {sub.certified}"
    )


_VERIFY_CHECKS = (
    ("occupancy-mass", _check_occupancy_mass),
    ("series-tail", _check_series_tail),
    ("sup-gap-equality", _check_sup_gap),
    ("extraction-bound", _check_extraction_bound),
    ("estimate-unbiased", _check_unbiased),
    ("gradient-norm-bound", _check_gradient_bound),
    ("ball-projection", _check_projection),
    ("baseline-agreement", _check_baseline_agreement),
)


def _cmd_verify(args):
    del args
    rng = np.random.default_rng(20240)
    failures = 0
    for name, check in _VERIFY_CHECKS:
        ok, detail = check(rng)
        print(f"{'ok  ' if ok else 'FAIL'} - {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(_VERIFY_CHECKS) - failures}/{len(_VERIFY_CHECKS)} property suites passed")
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="occupal",
        description="Occupancy-measure apprenticeship learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, needs_config=True):
        cmd = sub.add_parser(name, help=helptext)
        if needs_config:
            cmd.add_argument("--config", required=True, help="experiment config JSON")
            cmd.add_argument("--out", default=None, help="output directory override")
            cmd.add_argument("--seed", type=int, default=None, help="master seed override")
            cmd.add_argument(
                "--scheme",
                choices=("uniform", "norm"),
                default=None,
                help="sampling scheme override for q1/q2",
            )
        return cmd

    add("generate", "build the environment and write mdp.json")
    add("expert", "compute the expert policy and its sampled feature expectation")
    add("train", "run averaged projected stochastic subgradient descent")
    evaluate = add("evaluate", "report the feature gap of a trained parameter file")
    evaluate.add_argument("--theta", required=True, help="theta.json to evaluate")
    add("baseline", "solve the program exactly and write baseline.json")
    run = add("run", "run the full pipeline (all nine artifacts)")
    run.add_argument(
        "--parallel-seeds",
        type=int,
        default=None,
        help="run N pipelines with master seeds seed..seed+N-1 in subdirectories, "
        "on at most one worker process per CPU",
    )
    add("verify", "run the fast property suites", needs_config=False)
    return parser


_COMMANDS = {
    "generate": _cmd_slice,
    "expert": _cmd_slice,
    "train": _cmd_slice,
    "evaluate": _cmd_evaluate,
    "baseline": _cmd_slice,
    "run": _cmd_run,
    "verify": _cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__
        return 1 if isinstance(cause, (ValueError, FileNotFoundError)) else 2
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
