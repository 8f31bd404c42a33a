"""Two exact solvers, and an optimum no deterministic policy can reach.

The feature-matching program is solved two ways: a revised simplex on
the linear-program reformulation, started from a deterministic policy's
vertex, and `subgradient_solve`, which runs column generation over the
measures of deterministic policies and certifies its answer with a lower
bound from exact policy-iteration solves.  They must agree to high
precision, and the demo exits non-zero unless both `subgradient_solve`
results are certified.

The second instance shows why `subgradient_solve` mixes policies: with a
dense cost basis the optimum can sit strictly inside a kink face of the
objective, where the optimal policy mixes actions.  Every deterministic
policy -- every vertex of the occupancy polytope -- is strictly worse
there, so only a mixture of policies' measures reaches the optimum, and
only a pricing bound at a weight inside the box, not at a sign vector,
certifies it.
"""

import itertools
import sys

import numpy as np

from occupal import (
    deterministic_policy,
    exact_al_solve,
    make_chain,
    make_random_mdp,
    occupancy_of_policy,
    region_indicator_basis,
    subgradient_solve,
)
from occupal.extraction import policy_from_vector
from occupal.features import CostBasis

print("== Instance 1: chain with region costs ==")
chain = make_chain(0.5)
basis = region_indicator_basis(chain, 2)
target = np.array([1.8, 0.9])  # asks for 2.7 total mass; only 2.0 exists
lp = exact_al_solve(chain, basis, target)
sub = subgradient_solve(chain, basis, target)
print(f"requested region profile {target} is infeasible (mass 2.7 vs 2.0),")
print(f"so the best reachable gap is positive:")
print(f"  simplex     : {lp.objective:.12f}  ({lp.method})")
print(f"  subgradient : {sub.objective:.12f}  ({sub.method}, certified: {sub.certified})")
print(f"  difference  : {abs(lp.objective - sub.objective):.2e}")
certified = [sub.certified]

print("\n== Instance 2: dense basis, mixed-action optimum ==")
rng = np.random.default_rng(27)
mdp = make_random_mdp(3, 3, 0.8, seed=27)
psi = rng.uniform(0.0, 1.0, (mdp.n_pairs, 4))
dense = CostBasis(psi / psi.max())
dense_target = rng.uniform(-0.3, 1.5 / 0.2, 4)

lp = exact_al_solve(mdp, dense, dense_target)
sub = subgradient_solve(mdp, dense, dense_target)
print(f"  simplex     : {lp.objective:.12f}")
print(f"  subgradient : {sub.objective:.12f}  (certified: {sub.certified})")
print(f"  difference  : {abs(lp.objective - sub.objective):.2e}")
certified.append(sub.certified)

best_det = float("inf")
for actions in itertools.product(range(mdp.n_actions), repeat=mdp.n_states):
    mu = occupancy_of_policy(mdp, deterministic_policy(mdp, np.array(actions)))
    gap = float(np.abs(dense.psi.T @ mu.mass - dense_target).sum())
    best_det = min(best_det, gap)
print(f"\nbest of all {mdp.n_actions**mdp.n_states} deterministic policies: {best_det:.6f}")
print(f"optimum (requires mixing actions)  : {lp.objective:.6f}")
print(f"mixing beats every deterministic policy by "
      f"{100.0 * (best_det / lp.objective - 1.0):.1f}%")

probs = policy_from_vector(sub.mu_star.mass, mdp).probs
mixed = [s for s in range(mdp.n_states) if (probs[s] > 1e-6).sum() > 1]
print(f"states where the recovered optimal policy mixes: {mixed}")
print("action probabilities by state:")
for s in range(mdp.n_states):
    print(f"  state {s}: {np.round(probs[s], 4)}")

if not all(certified):
    sys.exit("a subgradient_solve result is not certified")
