"""End-to-end experiment orchestration.

A single JSON-friendly config describes the environment, the cost basis,
the candidate features, the expert data budget, and the training
hyperparameters.  STAGES lists the pipeline once, in order: environment,
expert policy, basis, features, expert trajectories, sgd, policy
extraction, baseline and regret report, each with the artifacts it
writes.  run_stages runs a slice of that table and writes a chosen subset
of its artifacts; run_experiment runs all of it and writes all nine.  Each
stage that draws randomness takes its own seed from the master seed, so a
slice rebuilds its upstream stages exactly as a full run does.  Every file
records the seeds that produced it and nothing time-dependent, so reruns
with the same config are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .baseline import (
    BoundInputs,
    exact_al_solve,
    exact_solution_to_json,
    regret_report,
    regret_report_to_json,
)
from .expert import (
    default_horizon,
    empirical_feature_expectation,
    estimator_to_json,
    sample_trajectories,
    save_trajectories,
)
from .extraction import evaluate_theta, extraction_report
from .features import (
    build_feature_matrix,
    feature_expectation,
    load_basis,
    load_features,
    region_indicator_basis,
    sampling_constants,
    state_action_indicator_basis,
    validate_basis,
)
from .mdp import (
    chain_cost,
    make_chain,
    make_gridworld,
    make_random_mdp,
    mdp_to_json,
    occupancy_of_policy,
    policy_to_json,
    validate_mdp,
    value_iteration,
)
from .sgd import SgdConfig, certified_schedule, run_sgd_al

__all__ = [
    "ExperimentConfig",
    "PipelineError",
    "ARTIFACT_NAMES",
    "STAGES",
    "stage_seed",
    "resolve_sgd",
    "run_stages",
    "run_experiment",
]

_MASK64 = (1 << 64) - 1


class PipelineError(RuntimeError):
    """Raised when a stage fails; .stage names the failing stage."""

    def __init__(self, stage, message):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage


def _splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stage_seed(master_seed, stage):
    """Derive a stage's seed: splitmix64 of the master xor the stage tag.

    The tag is the first eight bytes of sha256(stage name), so stages can
    be rerun independently and adding a stage never shifts the others.
    """
    tag = int.from_bytes(hashlib.sha256(stage.encode()).digest()[:8], "big")
    return _splitmix64((int(master_seed) ^ tag) & _MASK64)


# Section fields that must hold an integer when present ("horizon" may be null).
_INTEGER_FIELDS = (
    ("environment", ("width", "height", "n_states", "n_actions")),
    ("basis", ("n_blocks",)),
    ("features", ("d",)),
    ("expert", ("m", "horizon")),
    ("sgd", ("iterations", "batch_size")),
)


def _is_integer(value):
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one full run.

    environment: {"kind": "gridworld", width, height, discount, slip_prob}
                 | {"kind": "random", n_states, n_actions, discount}
                 | {"kind": "chain", discount}
    basis:       {"kind": "state-action-indicator"}
                 | {"kind": "region-indicator", n_blocks}
                 | {"kind": "file", path}
    features:    {"d": int, "beta": float} | {"kind": "file", path}
    expert:      {"vi_tolerance": float, "m": int, "horizon": int | None}
    sgd:         {"rho", "lam", "eta", "iterations", "batch_size"?}
                 | {"epsilon", "delta", "rho"} (hyperparameters are then
                 derived from the accuracy pair)

    The count fields above and master_seed must be Python or numpy integers
    (not bools), and a file spec's path a string; anything else raises
    ValueError.
    """

    environment: dict
    basis: dict
    features: dict
    expert: dict
    sgd: dict
    out_dir: str
    master_seed: int
    scheme: str = "norm"

    @staticmethod
    def from_json(blob, out_dir=None, master_seed=None):
        if not isinstance(blob, dict):
            raise ValueError(f"config must be a JSON object, got {blob!r}")
        blob = dict(blob)
        if out_dir is not None:
            blob["out_dir"] = out_dir
        if master_seed is not None:
            blob["master_seed"] = master_seed
        missing = [
            key
            for key in ("environment", "basis", "features", "expert", "sgd",
                        "out_dir", "master_seed")
            if key not in blob
        ]
        if missing:
            raise ValueError(f"config missing fields: {missing}")
        for key in ("environment", "basis", "features", "expert", "sgd"):
            if not isinstance(blob[key], dict):
                raise ValueError(
                    f"config field {key!r} must be a JSON object, got {blob[key]!r}"
                )
        return ExperimentConfig(
            environment=dict(blob["environment"]),
            basis=dict(blob["basis"]),
            features=dict(blob["features"]),
            expert=dict(blob["expert"]),
            sgd=dict(blob["sgd"]),
            out_dir=str(blob["out_dir"]),
            master_seed=blob["master_seed"],
            scheme=str(blob.get("scheme", "norm")),
        )

    def __post_init__(self):
        if self.scheme not in ("norm", "uniform"):
            raise ValueError(f"unknown sampling scheme {self.scheme!r}")
        if not _is_integer(self.master_seed):
            raise ValueError(
                f"config field 'master_seed' must be an integer, got {self.master_seed!r}"
            )
        object.__setattr__(self, "master_seed", int(self.master_seed))
        for name, keys in _INTEGER_FIELDS:
            spec = getattr(self, name)
            for key in keys:
                value = spec.get(key)
                if key == "horizon" and value is None:
                    continue
                if key in spec and not _is_integer(value):
                    raise ValueError(
                        f"{name} field {key!r} must be an integer, got {value!r}"
                    )
        for name in ("basis", "features"):
            spec = getattr(self, name)
            if spec.get("kind") == "file":
                path = spec.get("path", "")
                if not isinstance(path, str):
                    raise ValueError(f"{name} field 'path' must be a string, got {path!r}")
                if not os.path.exists(path):
                    raise ValueError(f"{name} file not found: {path}")


def _require(spec, what, *keys):
    missing = [key for key in keys if key not in spec]
    if missing:
        raise ValueError(f"{what} spec missing fields: {missing}")


def _build_environment(spec, seed):
    kind = spec.get("kind")
    if kind == "gridworld":
        _require(spec, "environment", "width", "height", "discount")
        mdp, cost = make_gridworld(
            int(spec["width"]),
            int(spec["height"]),
            float(spec["discount"]),
            float(spec.get("slip_prob", 0.1)),
        )
    elif kind == "random":
        _require(spec, "environment", "n_states", "n_actions", "discount")
        mdp = make_random_mdp(
            int(spec["n_states"]),
            int(spec["n_actions"]),
            float(spec["discount"]),
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.0, 1.0, size=(mdp.n_states, mdp.n_actions)).ravel()
    elif kind == "chain":
        mdp = make_chain(float(spec.get("discount", 0.5)))
        cost = chain_cost()
    else:
        raise ValueError(f"unknown environment kind {kind!r}")
    problems = validate_mdp(mdp)
    if problems:
        raise ValueError(f"generated environment invalid: {problems}")
    return mdp, cost


def _build_basis(spec, mdp):
    kind = spec.get("kind")
    if kind == "state-action-indicator":
        basis = state_action_indicator_basis(mdp)
    elif kind == "region-indicator":
        _require(spec, "basis", "n_blocks")
        basis = region_indicator_basis(mdp, int(spec["n_blocks"]))
    elif kind == "file":
        _require(spec, "basis", "path")
        path = spec["path"]
        try:
            basis = load_basis(path)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: unreadable basis file ({exc})") from exc
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    problems = validate_basis(basis, mdp)
    if problems:
        raise ValueError(f"basis invalid: {problems}")
    return basis


def _build_features(spec, mdp, seed):
    if spec.get("kind") == "file":
        _require(spec, "features", "path")
        path = spec["path"]
        try:
            features = load_features(path)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: unreadable feature file ({exc})") from exc
        phi = features.phi
        if (phi.ndim != 2 or phi.shape[0] != mdp.n_pairs or phi.shape[1] < 1
                or not np.isfinite(phi).all()):
            raise ValueError(
                f"{path}: features must be a finite {mdp.n_pairs} x d matrix "
                f"with d >= 1, got shape {phi.shape}"
            )
        return features
    _require(spec, "features", "d")
    return build_feature_matrix(
        mdp, int(spec["d"]), seed=seed, beta=float(spec.get("beta", 1.0e-3))
    )


def resolve_sgd(spec, seed, phi, basis, mdp, scheme):
    """Explicit hyperparameters, or derive them from (epsilon, delta, rho).

    Returns (config, constants, sample size): the sample size is the
    schedule's required number of expert trajectories, None for explicit
    hyperparameters.
    """
    if "epsilon" in spec and "eta" not in spec:
        _require(spec, "sgd", "epsilon", "delta", "rho")
        epsilon = float(spec["epsilon"])
        delta = float(spec["delta"])
        rho = float(spec["rho"])
        lam = 1.0 / epsilon
        constants = sampling_constants(phi, mdp, basis, lam, scheme=scheme)
        schedule = certified_schedule(
            epsilon, delta, rho, phi.d, basis.n_costs, mdp.discount, constants.k
        )
        config = SgdConfig(
            rho=rho,
            lam=schedule.lam,
            eta=schedule.eta,
            iterations=schedule.iterations,
            seed=seed,
            epsilon=epsilon,
            delta=delta,
        )
        return config, constants, schedule.sample_size
    _require(spec, "sgd", "rho", "lam", "eta", "iterations")
    config = SgdConfig(
        rho=float(spec["rho"]),
        lam=float(spec["lam"]),
        eta=float(spec["eta"]),
        iterations=int(spec["iterations"]),
        seed=seed,
        batch_size=int(spec.get("batch_size", 1)),
    )
    constants = sampling_constants(phi, mdp, basis, config.lam, scheme=scheme)
    return config, constants, None


def _dump_json(path, blob):
    with open(path, "w") as fh:
        json.dump(blob, fh, sort_keys=True, indent=1)
        fh.write("\n")


# Rows formatted per block: Python objects for all 50k rows of a run at
# once would hold about 8 MB.
_CSV_BLOCK_ROWS = 1 << 10


def _write_trace_csv(path, trace, master_seed, seed):
    columns = (trace.iteration, trace.loss_total, trace.loss_objective, trace.v1, trace.v2)
    norms = np.asarray(trace.grad_norm, dtype=float)
    norm_bits = norms.view(np.int64)
    with open(path, "w") as fh:
        fh.write(f"# master_seed={master_seed} stage_seed={seed}\n")
        fh.write("iteration,loss_total,loss_objective,v1,v2,grad_norm\n")
        for lo in range(0, norm_bits.size, _CSV_BLOCK_ROWS):
            rows = slice(lo, lo + _CSV_BLOCK_ROWS)
            # A run's gradient norms take few distinct values: format each
            # bit pattern once (keying by bits keeps 0.0 and -0.0 apart).
            bits = norm_bits[rows].tolist()
            distinct = dict(zip(bits, norms[rows].tolist()))
            texts = {b: repr(x) for b, x in distinct.items()}
            fh.writelines(
                f"{i},{total!r},{objective!r},{v1!r},{v2!r},{texts[b]}\n"
                for i, total, objective, v1, v2, b in zip(
                    *(column[rows].tolist() for column in columns), bits
                )
            )


def _write(state, name, writer, *args):
    """writer(path, *args) for artifact `name`, if this run writes it."""
    path = state["paths"].get(name)
    if path is not None:
        # Recorded first, so a file the writer leaves half done is removed too.
        state["written"].append(path)
        writer(path, *args)


# Stage functions read and extend the shared state dict.  They reach every
# helper through this module's globals, so a name patched here (by a test
# or a tracer) is the one each run calls.

def _environment(state):
    config, seed = state["config"], state["seeds"]["environment"]
    state["mdp"], state["cost"] = _build_environment(config.environment, seed)
    blob = mdp_to_json(state["mdp"])
    blob.update(master_seed=config.master_seed, stage_seed=seed)
    _write(state, "mdp.json", _dump_json, blob)


def _expert_policy(state):
    config = state["config"]
    state["expert_policy"], _ = value_iteration(
        state["mdp"],
        state["cost"],
        tolerance=float(config.expert.get("vi_tolerance", 1e-10)),
    )
    blob = policy_to_json(state["expert_policy"])
    blob.update(master_seed=config.master_seed, stage_seed=None)
    _write(state, "expert_policy.json", _dump_json, blob)


def _basis(state):
    state["basis"] = _build_basis(state["config"].basis, state["mdp"])


def _features(state):
    state["phi"] = _build_features(
        state["config"].features, state["mdp"], state["seeds"]["features"]
    )


def _expert_trajectories(state):
    config, seed = state["config"], state["seeds"]["expert-trajectories"]
    mdp = state["mdp"]
    _require(config.expert, "expert", "m")
    horizon = config.expert.get("horizon")
    if horizon is None:
        horizon = default_horizon(mdp.discount)
    state["m"] = m = int(config.expert["m"])
    trajectories = sample_trajectories(
        mdp, state["expert_policy"], m, int(horizon), seed
    )
    _write(
        state,
        "trajectories.txt",
        save_trajectories,
        trajectories,
        f"master_seed={config.master_seed} stage_seed={seed}",
    )
    state["estimate"] = estimate = empirical_feature_expectation(
        trajectories, state["basis"], mdp.discount, mdp.n_actions
    )
    blob = estimator_to_json(estimate)
    blob.update(master_seed=config.master_seed, stage_seed=seed)
    _write(state, "expert_fe.json", _dump_json, blob)


def _sgd(state):
    config, seed = state["config"], state["seeds"]["sgd"]
    phi, basis, mdp = state["phi"], state["basis"], state["mdp"]
    sgd_config, constants, state["sample_size"] = resolve_sgd(
        config.sgd, seed, phi, basis, mdp, config.scheme
    )
    state["sgd_config"] = sgd_config
    trace, state["trained_policy"] = run_sgd_al(
        sgd_config, phi, basis, mdp, state["estimate"], constants
    )
    state["trace"] = trace
    _write(state, "trace.csv", _write_trace_csv, trace, config.master_seed, seed)
    blob = {
        "theta": trace.theta_avg.tolist(),
        "sgd": {
            "rho": sgd_config.rho,
            "lam": sgd_config.lam,
            "eta": sgd_config.eta,
            "iterations": sgd_config.iterations,
            "batch_size": sgd_config.batch_size,
            "epsilon": sgd_config.epsilon,
            "delta": sgd_config.delta,
        },
        "scheme": config.scheme,
        "master_seed": config.master_seed,
        "stage_seed": seed,
    }
    _write(state, "theta.json", _dump_json, blob)


def _policy_extraction(state):
    config = state["config"]
    candidate = np.asarray(state["phi"].phi) @ state["trace"].theta_avg
    report = extraction_report(candidate, state["mdp"])
    blob = policy_to_json(state["trained_policy"])
    blob.update(
        l1_distance_bound=report.violation_bound,
        uniform_fallback_states=list(report.uniform_fallback_states),
        master_seed=config.master_seed,
        stage_seed=state["seeds"]["sgd"],
    )
    _write(state, "policy.json", _dump_json, blob)


def _baseline(state):
    mdp, basis = state["mdp"], state["basis"]
    expert_mu = occupancy_of_policy(mdp, state["expert_policy"])
    state["true_fe"] = true_fe = feature_expectation(expert_mu, basis)
    state["exact"] = exact = exact_al_solve(mdp, basis, true_fe)
    blob = exact_solution_to_json(exact)
    blob.update(master_seed=state["config"].master_seed, stage_seed=None)
    _write(state, "baseline.json", _dump_json, blob)


def _regret_report(state):
    phi, basis, mdp = state["phi"], state["basis"], state["mdp"]
    sgd_config = state["sgd_config"]
    trained = evaluate_theta(state["trace"].theta_avg, phi, basis, mdp, state["true_fe"])
    epsilon = sgd_config.epsilon
    if epsilon is None:
        epsilon = 1.0 / sgd_config.lam if sgd_config.lam > 0 else float("inf")
    inputs = BoundInputs(
        epsilon=epsilon,
        lam=sgd_config.lam,
        rho=sgd_config.rho,
        d=phi.d,
        n_costs=basis.n_costs,
        gamma=mdp.discount,
        psi_inf_norm=float(np.abs(basis.psi).max()),
        phi_one_norm=float(np.abs(np.asarray(phi.phi)).sum(axis=0).max()),
    )
    blob = regret_report_to_json(regret_report(trained, state["exact"], inputs))
    blob.update(master_seed=state["config"].master_seed, stage_seed=None)
    sample_size = state["sample_size"]
    if sample_size is not None:
        # The (epsilon, delta) guarantee assumes at least this many rollouts.
        blob.update(
            sample_size_required=sample_size, sample_size_met=state["m"] >= sample_size
        )
    _write(state, "regret_report.json", _dump_json, blob)


# The pipeline, in order: (stage name, stage function, artifacts it writes).
STAGES = (
    ("environment", _environment, ("mdp.json",)),
    ("expert-policy", _expert_policy, ("expert_policy.json",)),
    ("basis", _basis, ()),
    ("features", _features, ()),
    ("expert-trajectories", _expert_trajectories, ("trajectories.txt", "expert_fe.json")),
    ("sgd", _sgd, ("trace.csv", "theta.json")),
    ("policy-extraction", _policy_extraction, ("policy.json",)),
    ("baseline", _baseline, ("baseline.json",)),
    ("regret-report", _regret_report, ("regret_report.json",)),
)

ARTIFACT_NAMES = tuple(artifact for _, _, artifacts in STAGES for artifact in artifacts)


def run_stages(config, stages, write):
    """Run the named stages, in the order given, and write the artifacts in `write`.

    Every artifact in `write` must belong to one of the stages run.
    Returns the shared state: the config, the stage seeds, what each stage
    built, and "paths", {artifact name: path} for the artifacts written.
    On any failure the files this call wrote are removed and a
    PipelineError naming the stage is raised.
    """
    functions = {name: function for name, function, _ in STAGES}
    produced = {a for name, _, artifacts in STAGES if name in stages for a in artifacts}
    if not produced.issuperset(write):
        raise ValueError(f"stages {list(stages)} do not write all of {list(write)}")
    out = config.out_dir
    if write:
        os.makedirs(out, exist_ok=True)
    state = {
        "config": config,
        "seeds": {
            name: stage_seed(config.master_seed, name)
            for name in ("environment", "features", "expert-trajectories", "sgd")
        },
        "paths": {name: os.path.join(out, name) for name in write},
        "written": [],
    }
    stage = None
    try:
        for stage in stages:
            functions[stage](state)
    except Exception as exc:
        for path in state["written"]:
            if os.path.exists(path):
                os.remove(path)
        if isinstance(exc, PipelineError):
            raise
        raise PipelineError(stage, str(exc)) from exc
    return state


def run_experiment(config):
    """Run every stage and write the nine artifact files.

    Returns {artifact name: path}.  On any failure the partially written
    artifacts are removed and a PipelineError naming the stage is raised.
    """
    return run_stages(config, [name for name, _, _ in STAGES], ARTIFACT_NAMES)["paths"]
