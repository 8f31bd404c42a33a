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
    """Raised when a stage fails.

    .stage names the failing stage and .message says why.  .invalid_input
    is true when the cause was a validation failure: a ValueError, or a
    MemoryError for arrays the config asks for.  All three are the
    exception's args, so it survives a pickle round trip, as a worker
    process's failure must.
    """

    def __init__(self, stage, message, invalid_input=False):
        super().__init__(stage, message, invalid_input)
        self.stage, self.message, self.invalid_input = stage, message, invalid_input

    def __str__(self):
        return f"stage '{self.stage}' failed: {self.message}"


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


def _is_integer(value):
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# The one statement of the config: for each kind of each section, each key
# it reads besides "kind", as (type, default), where _REQUIRED marks a key
# without a default.  A type is (test, conversion, what the message calls
# it): a count must be an integer and becomes an int, a real an integer or a
# float and becomes a float (a bool is neither), a path a string naming an
# existing file.  Generated features, the expert and sgd have one unnamed
# kind, None; resolve_sgd tells sgd's two forms apart and requires the keys
# of the form it is given.  _TOP_FIELDS types the two keys beside the
# sections.
_COUNT = (_is_integer, int, "an integer")
_REAL = (lambda v: _is_integer(v) or isinstance(v, (float, np.floating)), float,
         "a real number")
_PATH = (lambda v: isinstance(v, str) and os.path.isfile(v), str,
         "a string naming an existing file")
_REQUIRED = object()
_SECTION_FIELDS = {
    "environment": {
        "gridworld": {"width": (_COUNT, _REQUIRED), "height": (_COUNT, _REQUIRED),
                      "discount": (_REAL, _REQUIRED), "slip_prob": (_REAL, 0.1)},
        "random": {"n_states": (_COUNT, _REQUIRED), "n_actions": (_COUNT, _REQUIRED),
                   "discount": (_REAL, _REQUIRED)},
        "chain": {"discount": (_REAL, 0.5)},
    },
    "basis": {
        "state-action-indicator": {},
        "region-indicator": {"n_blocks": (_COUNT, _REQUIRED)},
        "file": {"path": (_PATH, _REQUIRED)},
    },
    "features": {None: {"d": (_COUNT, _REQUIRED)}, "file": {"path": (_PATH, _REQUIRED)}},
    "expert": {None: {"m": (_COUNT, _REQUIRED)}},
    "sgd": {None: {"rho": (_REAL, _REQUIRED), "lam": (_REAL, _REQUIRED),
                   "eta": (_REAL, _REQUIRED), "iterations": (_COUNT, _REQUIRED),
                   "epsilon": (_REAL, _REQUIRED), "delta": (_REAL, _REQUIRED)}},
}
_TOP_FIELDS = {"out_dir": (lambda v: isinstance(v, str), str, "a string"),
               "master_seed": _COUNT}
_CONFIG_FIELDS = (*_SECTION_FIELDS, *_TOP_FIELDS)


def _checked(name, key, value, field_type):
    """`value` converted to its table type; ValueError if it is not of it."""
    test, convert, what = field_type
    if not test(value):
        raise ValueError(f"{name} field {key!r} must be {what}, got {value!r}")
    return convert(value)


def _kind_fields(name, spec):
    """The table's keys for the kind of section `name` that `spec` gives,
    or None for a kind the table does not know."""
    kinds = _SECTION_FIELDS[name]
    kind = spec.get("kind") if len(kinds) > 1 else None
    # Compared, not looked up: a JSON list as kind is unhashable.
    return next((fields for known, fields in kinds.items() if known == kind), None)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one full run.

    environment, basis, features, expert and sgd are the five sections;
    _SECTION_FIELDS states, for each kind of each, the keys it reads with
    their types and defaults, and the README's key table lists the same.
    Loading checks each key's type, converts counts to int and reals to
    float, and fills in the defaults.  A key that the spec's kind does not
    read, "kind" in a section without named kinds, a top-level key other
    than these sections, out_dir and master_seed, a value of the wrong
    type, or a file path that names no file raises ValueError.  A missing
    required key or an unknown kind fails the stage that reads the section.
    sgd holds rho, lam, eta and iterations, or the accuracy pair epsilon,
    delta and rho, from which the hyperparameters are derived; the two
    forms do not mix.
    """

    environment: dict
    basis: dict
    features: dict
    expert: dict
    sgd: dict
    out_dir: str
    master_seed: int

    @staticmethod
    def from_json(blob, out_dir=None, master_seed=None):
        if not isinstance(blob, dict):
            raise ValueError(f"config must be a JSON object, got {blob!r}")
        blob = dict(blob)
        if out_dir is not None:
            blob["out_dir"] = out_dir
        if master_seed is not None:
            blob["master_seed"] = master_seed
        missing = [key for key in _CONFIG_FIELDS if key not in blob]
        if missing:
            raise ValueError(f"config missing fields: {missing}")
        for key in blob:
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"config field {key!r} is not a config field")
        for key in _SECTION_FIELDS:
            if not isinstance(blob[key], dict):
                raise ValueError(
                    f"config field {key!r} must be a JSON object, got {blob[key]!r}"
                )
        return ExperimentConfig(**{key: blob[key] for key in _CONFIG_FIELDS})

    def __post_init__(self):
        for key, field_type in _TOP_FIELDS.items():
            object.__setattr__(self, key, _checked("config", key, getattr(self, key), field_type))
        for name, kinds in _SECTION_FIELDS.items():
            spec = getattr(self, name)
            fields = _kind_fields(name, spec)
            if fields is None:
                continue  # its stage rejects the unknown kind by name
            named = len(kinds) > 1
            checked = {key: default for key, (_, default) in fields.items()
                       if default is not _REQUIRED}
            for key, value in spec.items():
                if key == "kind" and named:
                    checked[key] = value
                elif key in fields:
                    checked[key] = _checked(name, key, value, fields[key][0])
                else:
                    of_kind = f" of {name} kind {spec.get('kind')!r}" if named else ""
                    raise ValueError(f"{name} field {key!r} is not a config field{of_kind}")
            object.__setattr__(self, name, checked)


def _require(name, spec):
    """Raise if `spec` lacks a key that its kind of section `name` requires."""
    fields = _kind_fields(name, spec) or {}
    missing = [key for key, (_, default) in fields.items()
               if default is _REQUIRED and key not in spec]
    if missing:
        raise ValueError(f"{name} spec missing fields: {missing}")


# Each builder takes a checked section of an ExperimentConfig: its values
# have their table types and its defaults are filled in.

def _build_environment(spec, seed):
    _require("environment", spec)
    kind = spec.get("kind")
    if kind == "gridworld":
        mdp, cost = make_gridworld(
            spec["width"], spec["height"], spec["discount"], spec["slip_prob"]
        )
    elif kind == "random":
        mdp = make_random_mdp(spec["n_states"], spec["n_actions"], spec["discount"], seed=seed)
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.0, 1.0, size=(mdp.n_states, mdp.n_actions)).ravel()
    elif kind == "chain":
        mdp = make_chain(spec["discount"])
        cost = chain_cost()
    else:
        raise ValueError(f"unknown environment kind {kind!r}")
    problems = validate_mdp(mdp)
    if problems:
        raise ValueError(f"generated environment invalid: {problems}")
    return mdp, cost


def _build_basis(spec, mdp):
    _require("basis", spec)
    kind = spec.get("kind")
    if kind == "state-action-indicator":
        basis = state_action_indicator_basis(mdp)
    elif kind == "region-indicator":
        basis = region_indicator_basis(mdp, spec["n_blocks"])
    elif kind == "file":
        path = spec["path"]
        try:
            basis = load_basis(path)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: unreadable basis file ({exc})") from exc
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    problems = validate_basis(basis, mdp)
    if problems:
        where = f"{spec['path']}: " if kind == "file" else ""
        raise ValueError(f"{where}basis invalid: {problems}")
    return basis


def _build_features(spec, mdp, seed):
    _require("features", spec)
    kind = spec.get("kind")
    if kind == "file":
        path = spec["path"]
        try:
            features = load_features(path)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: unreadable feature file ({exc})") from exc
        phi = features.phi
        if (phi.ndim != 2 or phi.shape[0] != mdp.n_pairs or phi.shape[1] < 1
                or not np.isfinite(phi).all()):
            raise ValueError(
                f"{path}: features must be a finite {mdp.n_pairs} x d matrix "
                f"with d >= 1, got shape {phi.shape}"
            )
        return features
    if kind is not None:
        raise ValueError(f"unknown features kind {kind!r}")
    return build_feature_matrix(mdp, spec["d"], seed=seed)


def resolve_sgd(spec, seed, phi, basis, mdp):
    """Explicit hyperparameters, or derive them from (epsilon, delta, rho).

    `spec` is the sgd section of an ExperimentConfig.  Returns (config,
    constants, sample size): the sample size is the schedule's required
    number of expert trajectories, None for explicit hyperparameters.  A
    spec that mixes the two forms, or lacks a key of its form, raises
    ValueError.
    """
    explicit = [key for key in ("lam", "eta", "iterations") if key in spec]
    derived = [key for key in ("epsilon", "delta") if key in spec]
    if explicit and derived:
        raise ValueError(
            f"sgd fields {derived} cannot be combined with {explicit}: give "
            "rho, lam, eta and iterations, or epsilon, delta and rho"
        )
    form = ("epsilon", "delta", "rho") if derived else ("rho", "lam", "eta", "iterations")
    missing = [key for key in form if key not in spec]
    if missing:
        raise ValueError(f"sgd spec missing fields: {missing}")
    if derived:
        epsilon, delta, rho = spec["epsilon"], spec["delta"], spec["rho"]
        lam = 1.0 / epsilon
        constants = sampling_constants(phi, mdp, basis, lam)
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
    config = SgdConfig(
        rho=spec["rho"], lam=spec["lam"], eta=spec["eta"], iterations=spec["iterations"],
        seed=seed,
    )
    constants = sampling_constants(phi, mdp, basis, config.lam)
    return config, constants, None


def _dump_json(path, blob):
    with open(path, "w") as fh:
        fh.write(json.dumps(blob, sort_keys=True) + "\n")


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
    state["expert_policy"], _ = value_iteration(state["mdp"], state["cost"])
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
    _require("expert", config.expert)
    state["m"] = m = config.expert["m"]
    trajectories = sample_trajectories(
        mdp, state["expert_policy"], m, default_horizon(mdp.discount), seed
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
        config.sgd, seed, phi, basis, mdp
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
            "epsilon": sgd_config.epsilon,
            "delta": sgd_config.delta,
        },
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
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"{out}: cannot create the output directory ({exc})") from exc
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
        invalid = isinstance(exc, (ValueError, MemoryError))
        raise PipelineError(stage, str(exc), invalid) from exc
    return state


def run_experiment(config):
    """Run every stage and write the nine artifact files.

    Returns {artifact name: path}.  On any failure the partially written
    artifacts are removed and a PipelineError naming the stage is raised.
    """
    return run_stages(config, [name for name, _, _ in STAGES], ARTIFACT_NAMES)["paths"]
