"""Command-line front end.

Each pipeline subcommand runs a slice of the pipeline's one stage table
(occupal.pipeline.STAGES) and writes only its own artifacts.  Each one is
stateless: it re-derives everything upstream of it from the config file
and the master seed (stages are seeded individually, so the re-derivation
is byte-identical to a full run).  A failing subcommand names the failing
stage and removes only the files it wrote itself.

`verify` runs each checked guarantee of occupal.properties once at small
loop counts and judges what it measures against a tolerance; the
acceptance suite runs the same functions at full scale.

Exit codes: 0 success, 1 validation failure (bad config, bad input files,
invalid generated objects, arrays too large to allocate) or a failed verify
check, 2 internal error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import properties
from .extraction import evaluate_theta
from .features import feature_expectation
from .mdp import occupancy_of_policy
from .pipeline import (
    ExperimentConfig,
    PipelineError,
    resolve_sgd,
    run_experiment,
    run_stages,
)
from .sgd import surrogate_loss

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


def _read_json(path, what):
    """The JSON value in file `path`.  A file that cannot be read or parsed
    (missing, a directory, not JSON) raises ValueError naming the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable {what} file ({exc})") from exc


def _load_config(args):
    return ExperimentConfig.from_json(
        _read_json(args.config, "config"),
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
    blob = _read_json(path, "theta")
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
    sgd_config, _, _ = resolve_sgd(config.sgd, state["seeds"]["sgd"], phi, basis, mdp)
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
    n = args.parallel_seeds
    if n is not None and n < 1:
        raise ValueError(f"--parallel-seeds must be at least 1, got {n}")
    config = _load_config(args)
    if n is None or n == 1:
        paths = run_experiment(config)
        print(f"wrote {len(paths)} artifacts to {config.out_dir}")
        return 0
    configs = [
        dataclasses.replace(
            config,
            out_dir=os.path.join(config.out_dir, f"seed-{seed}"),
            master_seed=seed,
        )
        for seed in range(config.master_seed, config.master_seed + n)
    ]
    workers = min(n, os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for cfg, result in zip(configs, pool.map(run_experiment, configs)):
            print(f"wrote {len(result)} artifacts to {cfg.out_dir}")
    return 0


# Each verify check runs one property at small loop counts and judges what
# it measured against the check's tolerance.  The acceptance suite runs the
# same properties at full scale.
_VERIFY_CHECKS = (
    ("occupancy-mass", properties.occupancy_mass_error, (20,),
     lambda error: (error <= 1e-9, f"max mass error {error:.2e}")),
    ("series-tail", properties.series_tail_gap, (10, 60),
     lambda gap: (gap <= Fraction(2) * Fraction(1, 2) ** 60,
                  f"max exact gap {float(gap):.3e} at H = 60")),
    ("sup-gap-equality", properties.l1_gap_enumeration_error, (100,),
     lambda error: (error <= 1e-12, f"max |direct - enumerated| = {error:.2e}")),
    ("extraction-bound", properties.extraction_slack, (2, 100),
     lambda slack: (slack >= -1e-8, f"min bound slack {slack:.2e}")),
    ("estimate-unbiased", properties.estimator_bias, (2,),
     lambda bias, _: (bias <= 1e-10, f"max bias {bias:.2e}")),
    ("gradient-norm-bound", properties.gradient_norms, (4, 250),
     lambda norm, k: (norm <= k * (1.0 + 1e-12), f"max ||g|| = {norm:.4f}, K = {k:.4f}")),
    ("ball-projection", properties.ball_projection_errors, (100,),
     lambda excess, drift: (excess <= 1e-12 and drift <= 1e-12,
                            f"max excess {excess:.2e}, max change on reprojection "
                            f"{drift:.2e}")),
    ("baseline-agreement", properties.solver_agreement, (6,),
     lambda gap, certified: (gap <= 1e-4 and certified,
                             f"|simplex - column generation| = {gap:.2e}, "
                             f"certified: {certified}")),
)


def _cmd_verify(args):
    del args
    rng = np.random.default_rng(20240)
    failures = 0
    for name, measure, counts, judge in _VERIFY_CHECKS:
        figures = measure(rng, *counts)
        ok, detail = judge(*figures) if isinstance(figures, tuple) else judge(figures)
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
        return 1 if exc.invalid_input else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
