"""Fast self-check of the benchmark: toy-size workloads, perturbed outputs.

    python3 perfbench/selfcheck.py

Runs one traced round of every workload at toy size and requires that it
passes every correctness check and records calls for every layer it
exercises.  Then it perturbs each checked output in turn and requires that
the matching check fails.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace

import numpy as np

import checks
import workload
from tracing import Tracer, per_layer_names


def _toy(spec):
    return replace(spec, width=min(spec.width, 4), m=50, iterations=200,
                   cross_check_iterations=2_000 if spec.cross_check_iterations else 0)


def _set(key, index, value_of):
    """Perturbation writing value_of(old value, outputs) at outputs[key][index]."""
    def perturb(o):
        o[key][index] = value_of(o[key][index], o)
    return perturb


def _unreachable_next_state(_, o):
    traj = o["reloaded"]
    row = traj[0, 0, 0] * o["expert_probs"].shape[1] + traj[0, 0, 1]
    return int(np.argmin(o["transition"][row]))


def _bump(key, amount):
    def perturb(o):
        o[key] = o[key] + amount
    return perturb


RUN_PERTURBATIONS = (
    (checks.check_roundtrip, "one reloaded state changed",
     _set("reloaded", (0, -1, 0), lambda s, o: (s + 1) % o["initial"].size)),
    (checks.check_expert_actions, "one action changed",
     _set("reloaded", (0, 0, 1), lambda a, o: (a + 1) % o["expert_probs"].shape[1])),
    (checks.check_transitions, "a step to an unreachable state",
     _set("reloaded", (0, 1, 0), _unreachable_next_state)),
    (checks.check_estimate_reload, "estimate moved by one ulp",
     _set("estimate", 0, lambda v, o: np.nextafter(v, np.inf))),
    (checks.check_estimate_hoeffding, "estimate moved past the radius",
     _set("estimate", 0, lambda v, o: v + 2.0 * checks.hoeffding_radius(
         o["psi"], o["discount"], *o["reloaded"].shape[:2])[0] + 1.0)),
    (checks.check_simplex_feasible, "negative entry",
     _set("mu_star", -1, lambda v, o: -1e-9)),
    (checks.check_simplex_feasible, "flow violated",
     _set("mu_star", 0, lambda v, o: v + 1e-6)),
    (checks.check_simplex_optimal, "measure off the optimum",
     _set("mu_star", 0, lambda v, o: v + 1e-6)),
    (checks.check_simplex_optimal, "objective misreported", _bump("objective", 1e-6)),
    (checks.check_lower_bound, "optimum above the trained gap",
     lambda o: o.update(objective=o["trained_gap"] + 1e-6)),
    (checks.check_lower_bound, "regret report disagrees", _bump("regret_lhs", 1e-6)),
)

CROSS_PERTURBATIONS = (
    (checks.check_solvers_agree, "subgradient objective off",
     _bump("sub_objective", 2.0 * checks.AGREE_TOL)),
    (checks.check_solutions_valid, "subgradient measure off the polytope",
     _set("sub_mu", 0, lambda v, o: v + 1e-6)),
    (checks.check_beats_deterministic, "simplex objective above every deterministic policy",
     _bump("lp_objective", 100.0)),
)


def _copy(outputs):
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in outputs.items()}


def _perturbation_failures(outputs, perturbations, label):
    problems = []
    for check, what, perturb in perturbations:
        changed = _copy(outputs)
        perturb(changed)
        caught = check(changed) is not None
        print(f"  {label} {check.__name__} / {what}: {'caught' if caught else 'MISSED'}")
        if not caught:
            problems.append(f"{label}: {check.__name__} missed '{what}'")
    return problems


def selfcheck_workload(name):
    spec = _toy(workload.WORKLOADS[name])
    out_dir = workload.OUT / f"selfcheck-{name}"
    problems = []
    try:
        inputs = workload.make_inputs(spec, 7, out_dir)
        tracer = Tracer()
        tracer.install()
        try:
            round_, outputs = workload.run_round(spec, inputs, tracer)
        finally:
            tracer.uninstall()
        if round_.failed:
            return [f"{name}: {round_.failed} of {round_.attempted} operations failed"]
        problems += [f"{name}: {p}" for p in workload.check_round(inputs, outputs)]
        metrics, missing = workload.per_layer(spec, [round_], [round_], [tracer.layer_metrics()])
        if missing or set(per_layer_names()) - set(metrics):
            problems.append(f"{name}: trace misses calls to {missing}")
        print(f"{name}: {round_.attempted} operations, checks "
              f"{'failed' if problems else 'passed'}, {len(tracer.spans)} spans")
        paths, reload, cross = outputs
        problems += _perturbation_failures(
            workload.run_outputs(inputs, paths, *reload), RUN_PERTURBATIONS, name)
        if cross is not None:
            problems += _perturbation_failures(
                workload.cross_outputs(inputs.mixed, *cross), CROSS_PERTURBATIONS, name)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return problems


def main():
    problems = []
    for name in workload.WORKLOADS:
        problems += selfcheck_workload(name)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
