"""One benchmark workload, run in rounds in one fresh process.

    python3 perfbench/workload.py --workload train --seed 1 --seconds 40 --trace 0

A round is a fixed list of timed operations on inputs made from the seed:
`run_experiment`, a reload of its trajectories with a re-derived estimate,
and on `exact` a cross-check of `exact_al_solve` against
`subgradient_solve` on a mixed-optimum instance.  Every round repeats the
same operations on the same inputs; rounds start while they are expected
to end within `--seconds`.  The outputs of every round are checked by
`checks` outside the timed region.  The last line of stdout is one JSON
object; `run.py` turns it into the benchmark's result.
"""

from __future__ import annotations

import os

# Set before numpy loads.  One BLAS thread: multithreaded BLAS both adds
# scheduler noise on a small machine and changes subgradient_solve's result.
# No huge-page advice: whether the kernel grants huge pages varies from run
# to run and moved the peak resident set by 8%.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                  NUMPY_MADVISE_HUGEPAGE="0")

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import occupal  # noqa: E402
from occupal.features import CostBasis  # noqa: E402

import checks  # noqa: E402
from tracing import TIMED, Tracer  # noqa: E402

OUT = HERE / "out"
GAMMA = 0.9
N_BLOCKS = 4
D_FEATURES = 6
SGD = {"rho": 2.0, "lam": 10.0, "eta": 2e-5}


@dataclass(frozen=True)
class Workload:
    width: int  # the gridworld is width x width
    m: int  # expert trajectories per run, each of the default horizon
    iterations: int  # SGD steps per run
    cross_check_iterations: int  # subgradient_solve iterations; 0: no cross-check


WORKLOADS = {
    "train": Workload(width=4, m=500, iterations=50_000, cross_check_iterations=0),
    "expert-io": Workload(width=4, m=5_000, iterations=2_000, cross_check_iterations=0),
    # 100k subgradient iterations, not the default 1M: a 20 s cross-check
    # gave one sample per run, and exact's spread across runs reached 0.25.
    "exact": Workload(width=10, m=200, iterations=2_000, cross_check_iterations=100_000),
}


@dataclass
class Inputs:
    config: object
    mdp: object
    basis: object
    mixed: tuple | None  # (mdp, basis, target) of the cross-check


def mixed_instance():
    """Demo 03's dense-basis instance: its optimum mixes actions.

    It does not depend on the workload seed: on some seeds of the same
    recipe subgradient_solve misses the simplex optimum by a few 1e-3,
    and an operation that fails on some seeds only cannot be counted
    the same way in every run.
    """
    rng = np.random.default_rng(27)
    mdp = occupal.make_random_mdp(3, 3, 0.8, seed=27)
    psi = rng.uniform(0.0, 1.0, (mdp.n_pairs, 4))
    return mdp, CostBasis(psi / psi.max()), rng.uniform(-0.3, 1.5 / 0.2, 4)


def make_inputs(spec, seed, out_dir):
    config = occupal.ExperimentConfig.from_json({
        "environment": {"kind": "gridworld", "width": spec.width,
                        "height": spec.width, "discount": GAMMA, "slip_prob": 0.1},
        "basis": {"kind": "region-indicator", "n_blocks": N_BLOCKS},
        "features": {"d": D_FEATURES},
        "expert": {"m": spec.m},
        "sgd": dict(SGD, iterations=spec.iterations),
        "out_dir": str(out_dir),
        "master_seed": int(np.random.SeedSequence(seed).generate_state(1)[0]),
    })
    mdp, _ = occupal.make_gridworld(spec.width, spec.width, GAMMA, 0.1)
    basis = occupal.region_indicator_basis(mdp, N_BLOCKS)
    mixed = mixed_instance() if spec.cross_check_iterations else None
    return Inputs(config, mdp, basis, mixed)


@dataclass
class Round:
    experiment_s: float = 0.0
    total_s: float = 0.0
    attempted: int = 0
    failed: int = 0


def _timed(round_, tracer, name, func, *args, **kwargs):
    """Run one operation inside the timed region; None if it raised."""
    round_.attempted += 1
    span = tracer.root(name) if tracer else nullcontext()
    start = time.perf_counter()
    try:
        with span:
            result = func(*args, **kwargs)
    except Exception:
        traceback.print_exc()
        round_.failed += 1
        result = None
    elapsed = time.perf_counter() - start
    round_.total_s += elapsed
    return result, elapsed


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def run_outputs(inputs, paths, reloaded, estimate):
    """The run's outputs as `checks` takes them, read from its artifacts."""
    mdp_blob = _read_json(paths["mdp.json"])
    n_states, n_actions = mdp_blob["n_states"], mdp_blob["n_actions"]
    probs = np.array(_read_json(paths["expert_policy.json"])["probs"])
    baseline = _read_json(paths["baseline.json"])
    outputs = {
        "transition": np.array(mdp_blob["transition"]).reshape(n_states * n_actions, n_states),
        "initial": np.array(mdp_blob["initial_dist"]),
        "discount": mdp_blob["discount"],
        "expert_probs": probs,
        "psi": inputs.basis.psi,
        "reloaded": reloaded,
        "estimate": estimate,
        "fe_json": _read_json(paths["expert_fe.json"]),
        "mu_star": np.array(baseline["mu_star"]),
        "objective": baseline["objective"],
        "regret_lhs": _read_json(paths["regret_report.json"])["lhs"],
    }
    # The sampler and the trained policy's gap come from the program; the
    # checks compare them with the artifacts and with independent values.
    master = inputs.config.master_seed
    m, horizon = reloaded.shape[:2]
    outputs["resampled"] = occupal.sample_trajectories(
        inputs.mdp, occupal.Policy(probs), m, horizon,
        occupal.stage_seed(master, "expert-trajectories"))
    phi = occupal.build_feature_matrix(
        inputs.mdp, D_FEATURES, seed=occupal.stage_seed(master, "features"))
    theta = np.array(_read_json(paths["theta.json"])["theta"])
    _, outputs["trained_gap"] = occupal.evaluate_theta(
        theta, phi, inputs.basis, inputs.mdp, checks.expert_feature_expectation(outputs))
    return outputs


def cross_outputs(mixed, lp, sub):
    mdp, basis, target = mixed
    return {
        "transition": mdp.transition, "initial": mdp.initial_dist,
        "discount": mdp.discount, "psi": basis.psi, "target": target,
        "lp_objective": lp.objective, "lp_mu": lp.mu_star.mass,
        "sub_objective": sub.objective, "sub_mu": sub.mu_star.mass,
    }


def _cross_check(spec, mixed):
    mdp, basis, target = mixed
    lp = occupal.exact_al_solve(mdp, basis, target)
    sub = occupal.subgradient_solve(mdp, basis, target,
                                    iterations=spec.cross_check_iterations)
    return lp, sub


def run_round(spec, inputs, tracer=None):
    """Time one round; return it with the outputs the checks take.

    The outputs are the artifact paths, the reload and the cross-check
    results; each is None when its operation failed or did not run.
    """
    round_ = Round()
    paths, round_.experiment_s = _timed(round_, tracer, "op.run_experiment",
                                        occupal.run_experiment, inputs.config)
    reload = None
    if paths is None:  # the reload has nothing to read: it fails too
        round_.attempted += 1
        round_.failed += 1
    else:
        reload, _ = _timed(round_, tracer, "op.reload", _reload, inputs, paths)
    cross = None
    if inputs.mixed is not None:
        cross, _ = _timed(round_, tracer, "op.cross_check", _cross_check, spec, inputs.mixed)
    return round_, (paths, reload, cross)


def _reload(inputs, paths):
    reloaded = occupal.load_trajectories(paths["trajectories.txt"])
    estimate = occupal.empirical_feature_expectation(
        reloaded, inputs.basis, inputs.mdp.discount, inputs.mdp.n_actions)
    return reloaded, estimate.values


def check_round(inputs, outputs):
    paths, reload, cross = outputs
    problems = []
    if reload is not None:
        problems += checks.failures(checks.RUN_CHECKS, run_outputs(inputs, paths, *reload))
    if cross is not None:
        problems += [f"cross-check: {p}" for p in
                     checks.failures(checks.CROSS_CHECKS, cross_outputs(inputs.mixed, *cross))]
    return problems


def blas_version():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def measure(spec, inputs, seconds, trace):
    """Run the rounds expected to end within `seconds`, at least one.

    With `trace`, untraced and traced rounds alternate, at least one each.
    """
    tracer = Tracer() if trace else None
    plain, traced, layer_rounds, span_rounds, problems = [], [], [], [], []
    durations = []
    ready = time.monotonic()
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        round_start = time.perf_counter()
        if use_trace:
            tracer.reset()
            tracer.install()
        try:
            round_, outputs = run_round(spec, inputs, tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(round_)
        if use_trace:
            layer_rounds.append(tracer.layer_metrics())
            span_rounds.append(list(tracer.spans))
        problems += check_round(inputs, outputs)
        del outputs  # the next round's peak memory is its own
        now = time.perf_counter()
        durations.append(now - round_start)
        if trace and not traced:
            continue
        if now - start + statistics.median(durations) > seconds:
            break
    return ready, plain, traced, layer_rounds, span_rounds, problems


def per_layer(spec, plain, traced, layer_rounds):
    """Median over traced rounds of every per-layer metric."""
    metrics = {name: statistics.median_low(r[name] for r in layer_rounds)
               for name in layer_rounds[0]}
    metrics["trace.overhead_s"] = (statistics.median(r.total_s for r in traced)
                                   - statistics.median(r.total_s for r in plain))
    expected = [stem for _, _, stem, _ in TIMED
                if stem != "baseline.subgradient" or spec.cross_check_iterations]
    missing = [stem for stem in expected
               if any(r[f"{stem}.calls"] == 0 for r in layer_rounds)]
    return metrics, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="make the inputs, print the time, and exit")
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if Path(occupal.__file__).resolve().parent.parent != src:
        print(f"occupal was imported from {occupal.__file__}, not {src}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    out_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = make_inputs(spec, args.seed, out_dir)
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    try:
        ready, plain, traced, layer_rounds, span_rounds, problems = measure(
            spec, inputs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rounds = plain + traced
    result = {
        "ready": ready,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems,
        "rounds": [vars(r) for r in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": blas_version(),
    }
    if args.trace:
        result["per_layer"], result["missing_calls"] = per_layer(
            spec, plain, traced, layer_rounds)
        result["traced_rounds"] = [vars(r) for r in traced]
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["name", "start", "end", "id", "parent", "root"],
                       "rounds": span_rounds}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
