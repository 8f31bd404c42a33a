"""End-to-end pipeline runs and the command-line front end.

run_experiment must write all nine artifacts, be byte-reproducible from
(config, master seed) alone, write each JSON file on one line that reads
back bit for bit to what its stage computed, name the failing stage and
clean up after itself on errors, and record the derived hyperparameters
exactly when the config gives an accuracy pair instead of explicit
settings, together with whether the expert batch meets the pair's sample
size.  The CLI must expose every stage as a stateless subcommand whose
outputs match a full run, remove only its own files when a stage fails,
reject a malformed theta file, feature file, basis file, config shape,
unknown kind, key that only another kind reads, out_dir that is not a
string or cannot be created, mix of explicit and derived hyperparameters
or input path that is not a readable file, fail `verify` when a property
misses its tolerance, and report validation failures (a config whose
arrays cannot be allocated, and a stage failing in a worker process,
included) and internal errors through its exit code.
"""

import hashlib
import json
import os
import pickle

import numpy as np
import pytest

from occupal import (
    build_feature_matrix,
    empirical_feature_expectation,
    hoeffding_sample_size,
    l1_feature_gap,
    load_mdp,
    load_policy,
    load_trajectories,
    make_chain,
    region_indicator_basis,
    sampling_constants,
)
from occupal.baseline import regret_report, regret_report_to_json
from occupal.cli import main
from occupal import pipeline
from occupal.pipeline import (
    ARTIFACT_NAMES,
    STAGES,
    ExperimentConfig,
    PipelineError,
    _write_trace_csv,
    run_experiment,
    run_stages,
    stage_seed,
)
from occupal.sgd import TrainingTrace, certified_schedule


def chain_config(out_dir, seed=7, **overrides):
    blob = {
        "environment": {"kind": "chain", "discount": 0.5},
        "basis": {"kind": "region-indicator", "n_blocks": 2},
        "features": {"d": 2},
        "expert": {"m": 50},
        "sgd": {"rho": 2.0, "lam": 5.0, "eta": 0.01, "iterations": 100},
        "out_dir": str(out_dir),
        "master_seed": seed,
    }
    blob.update(overrides)
    return blob


def write_config(tmp_path, blob, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


def read_artifacts(out_dir):
    return {name: (out_dir / name).read_bytes() for name in ARTIFACT_NAMES}


# ---------------------------------------------------------------------------
# full pipeline runs

def test_smoke_run_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    paths = run_experiment(ExperimentConfig.from_json(chain_config(out)))
    assert set(paths) == set(ARTIFACT_NAMES)
    for name, path in paths.items():
        assert os.path.exists(path), name
        assert os.path.getsize(path) > 0, name

    mdp_blob = json.loads((out / "mdp.json").read_text())
    assert mdp_blob["master_seed"] == 7
    assert "stage_seed" in mdp_blob

    report = json.loads((out / "regret_report.json").read_text())
    for key in ("lhs", "comparator_gap", "violation_term",
                "approximation_term", "epsilon_term", "rhs", "holds"):
        assert key in report
    assert isinstance(report["holds"], bool)
    # explicit hyperparameters carry no sample-size premise
    assert "sample_size_required" not in report and "sample_size_met" not in report
    assert report["lhs"] >= 0.0 and report["rhs"] >= report["comparator_gap"]

    baseline = json.loads((out / "baseline.json").read_text())
    assert baseline["method"] == "lp-simplex"
    assert baseline["objective"] >= 0.0

    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0].startswith("# master_seed=7 stage_seed=")
    assert trace_lines[1] == "iteration,loss_total,loss_objective,v1,v2,grad_norm"
    assert len(trace_lines) == 2 + 100


def test_random_environment_run_writes_all_artifacts(tmp_path):
    # at 48 x 3 the baseline's LP has 192 rows and 432 columns
    for n_states, n_actions in [(8, 2), (48, 3)]:
        out = tmp_path / f"random-{n_states}x{n_actions}"
        config = chain_config(
            out,
            environment={"kind": "random", "n_states": n_states,
                         "n_actions": n_actions, "discount": 0.9},
            basis={"kind": "state-action-indicator"},
        )
        paths = run_experiment(ExperimentConfig.from_json(config))
        assert set(paths) == set(ARTIFACT_NAMES)
        for name in ARTIFACT_NAMES:
            assert (out / name).stat().st_size > 0, (n_states, name)


def test_rerun_is_byte_identical(tmp_path):
    run_experiment(ExperimentConfig.from_json(chain_config(tmp_path / "a")))
    run_experiment(ExperimentConfig.from_json(chain_config(tmp_path / "b")))
    first = read_artifacts(tmp_path / "a")
    second = read_artifacts(tmp_path / "b")
    for name in ARTIFACT_NAMES:
        assert first[name] == second[name], f"{name} differs between reruns"


def test_accuracy_pair_config_records_derived_schedule(tmp_path):
    out = tmp_path / "run"
    config = chain_config(out, seed=11, sgd={"epsilon": 0.9, "delta": 0.5, "rho": 2.0})
    run_experiment(ExperimentConfig.from_json(config))
    blob = json.loads((out / "theta.json").read_text())

    # independent recomputation of the certified hyperparameters
    mdp = make_chain(0.5)
    basis = region_indicator_basis(mdp, 2)
    phi = build_feature_matrix(mdp, 2, seed=stage_seed(11, "features"), beta=1e-3)
    constants = sampling_constants(phi, mdp, basis, 1.0 / 0.9)
    schedule = certified_schedule(0.9, 0.5, 2.0, 2, 2, 0.5, constants.k)

    assert blob["sgd"]["lam"] == schedule.lam
    assert blob["sgd"]["eta"] == schedule.eta
    assert blob["sgd"]["iterations"] == schedule.iterations
    assert blob["sgd"]["epsilon"] == 0.9
    assert blob["sgd"]["delta"] == 0.5
    assert blob["sgd"]["rho"] == 2.0
    assert len(blob["theta"]) == 2

    # m = 50 rollouts fall short of the Hoeffding size the pair needs
    report = json.loads((out / "regret_report.json").read_text())
    assert report["sample_size_required"] == schedule.sample_size > 50
    assert report["sample_size_met"] is False

    # a pair with a short schedule, run with exactly the required rollouts
    required = hoeffding_sample_size(2, 0.5, 0.99, 0.99)
    out = tmp_path / "enough"
    config = chain_config(
        out, seed=11, expert={"m": required},
        sgd={"epsilon": 0.99, "delta": 0.99, "rho": 0.1},
    )
    run_experiment(ExperimentConfig.from_json(config))
    report = json.loads((out / "regret_report.json").read_text())
    assert report["sample_size_required"] == required
    assert report["sample_size_met"] is True


def test_partial_outputs_removed_on_stage_failure(tmp_path):
    out = tmp_path / "run"
    config = chain_config(
        out, sgd={"rho": 2.0, "lam": -5.0, "eta": 0.01, "iterations": 100}
    )
    with pytest.raises(PipelineError, match="stage 'sgd'") as excinfo:
        run_experiment(ExperimentConfig.from_json(config))
    assert excinfo.value.stage == "sgd" and excinfo.value.invalid_input
    assert isinstance(excinfo.value.__cause__, ValueError)
    # the stages before sgd had already written their files; all are gone
    assert not any((out / name).exists() for name in ARTIFACT_NAMES)


def test_run_stages_refuses_an_artifact_its_stages_do_not_write(tmp_path):
    config = ExperimentConfig.from_json(chain_config(tmp_path / "run"))
    with pytest.raises(ValueError, match="do not write"):
        run_stages(config, ("environment",), ("mdp.json", "policy.json"))
    assert not (tmp_path / "run").exists()


def test_trajectories_round_trip(tmp_path):
    out = tmp_path / "run"
    run_experiment(ExperimentConfig.from_json(chain_config(out)))
    header = (out / "trajectories.txt").read_text().splitlines()[0]
    assert header.startswith("# master_seed=7 stage_seed=")

    loaded = load_trajectories(out / "trajectories.txt")
    estimate_blob = json.loads((out / "expert_fe.json").read_text())
    assert loaded.shape == (50, estimate_blob["horizon"], 2)

    mdp = make_chain(0.5)
    basis = region_indicator_basis(mdp, 2)
    recomputed = empirical_feature_expectation(loaded, basis, 0.5, mdp.n_actions)
    assert np.array_equal(recomputed.values, np.array(estimate_blob["values"]))
    assert recomputed.m == estimate_blob["m"]
    assert recomputed.truncation_bound == estimate_blob["truncation_bound"]


def _reference_trace_csv(path, trace, master_seed, seed):
    """The row-at-a-time trace writer that _write_trace_csv must match."""
    with open(path, "w") as fh:
        fh.write(f"# master_seed={master_seed} stage_seed={seed}\n")
        fh.write("iteration,loss_total,loss_objective,v1,v2,grad_norm\n")
        for i in range(trace.iteration.size):
            fh.write(
                f"{int(trace.iteration[i])},{float(trace.loss_total[i])!r},"
                f"{float(trace.loss_objective[i])!r},{float(trace.v1[i])!r},"
                f"{float(trace.v2[i])!r},{float(trace.grad_norm[i])!r}\n"
            )


def test_trace_csv_matches_the_row_writer_byte_for_byte(tmp_path):
    """Signed zeros, nan, infinities, a subnormal and repeats in every column."""
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1.0 / 3.0]
    rng = np.random.default_rng(5)
    columns = [
        np.array(special * 3 + list(rng.normal(0.0, 1e3, 40)))[rng.permutation(64)]
        for _ in range(5)
    ]
    trace = TrainingTrace(np.arange(1, 65), *columns, theta_avg=np.zeros(2))
    for column in columns:
        assert np.signbit(column[column == 0.0]).any()
        assert not np.signbit(column[column == 0.0]).all()
    _write_trace_csv(tmp_path / "new.csv", trace, 7, 11)
    _reference_trace_csv(tmp_path / "ref.csv", trace, 7, 11)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# The README's CLI quick-start config, but for its out_dir.
README_4X4 = {
    "environment": {"kind": "gridworld", "width": 4, "height": 4,
                    "discount": 0.9, "slip_prob": 0.1},
    "basis": {"kind": "region-indicator", "n_blocks": 4},
    "features": {"d": 6},
    "expert": {"m": 2000},
    "sgd": {"rho": 2.0, "lam": 10.0, "eta": 2e-05, "iterations": 50000},
    "master_seed": 7,
}


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _same_json(loaded, value):
    """True if json.load gave back `value`: floats bit for bit (signed
    zeros and nan included), bools as bools, tuples as lists."""
    if isinstance(value, dict):
        return (isinstance(loaded, dict) and loaded.keys() == value.keys()
                and all(_same_json(loaded[key], value[key]) for key in value))
    if isinstance(value, (list, tuple)):
        return (isinstance(loaded, list) and len(loaded) == len(value)
                and all(map(_same_json, loaded, value)))
    return type(loaded) is type(value) and repr(loaded) == repr(value)


def test_json_artifacts_reload_to_what_their_stages_computed(tmp_path, monkeypatch):
    """Each JSON artifact of two runs, and the corners of the JSON grammar,
    read back bit for bit from the one-line sort_keys text."""
    reports = []

    def recording_report(*args):
        reports.append(regret_report(*args))
        return reports[-1]

    monkeypatch.setattr(pipeline, "regret_report", recording_report)
    names = [name for name in ARTIFACT_NAMES if name.endswith(".json")]
    for config in (chain_config(tmp_path / "chain"),
                   dict(README_4X4, out_dir=str(tmp_path / "readme"))):
        state = run_stages(ExperimentConfig.from_json(config), [s for s, _, _ in STAGES], names)
        paths = state["paths"]
        blobs = {}
        for name in names:
            with open(paths[name]) as fh:
                text = fh.read()
            blobs[name] = json.loads(text)
            assert text == json.dumps(blobs[name], sort_keys=True) + "\n", name

        mdp = load_mdp(paths["mdp.json"])
        assert _bits(mdp.transition) == _bits(state["mdp"].transition)
        assert _bits(mdp.initial_dist) == _bits(state["mdp"].initial_dist)
        assert mdp.discount == state["mdp"].discount
        for name, key in (("expert_policy.json", "expert_policy"),
                          ("policy.json", "trained_policy")):
            assert _bits(load_policy(paths[name]).probs) == _bits(state[key].probs), name
        assert _bits(blobs["expert_fe.json"]["values"]) == _bits(state["estimate"].values)
        assert _bits(blobs["theta.json"]["theta"]) == _bits(state["trace"].theta_avg)
        baseline = blobs["baseline.json"]
        assert _bits(baseline["mu_star"]) == _bits(state["exact"].mu_star.mass)
        assert _bits(baseline["objective"]) == _bits(state["exact"].objective)
        report = blobs["regret_report.json"]
        for key, value in regret_report_to_json(reports.pop()).items():
            assert _same_json(report[key], value), key

    corners = [
        {}, [], [[]], [{}], {"": {}}, [[], [1]],
        [[1, 2], [3], [[4.5, [None]], 6]],  # nested and ragged
        [1, -2, 2.5, True, False, None, 10**30],
        [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324],
        ["a, b", "c"], ["a, b", "[", '"', "{", "x\\y, [1, 2]", "line\nbreak"],
        {"\u00e9t\u00e9": "\u65e5\u672c", "k": ["\u00fc", 1.0]},
        (1, (2.0, (None,)), [3], ()),
        {"z": [{"b": [1, 2]}, 3], "a": {"y": (), "x": "[1, 2]"}},
        7, -0.0, "text", None,
    ]
    for i, blob in enumerate(corners):
        pipeline._dump_json(tmp_path / "corner.json", blob)
        text = (tmp_path / "corner.json").read_text()
        assert text.count("\n") == 1 and text.endswith("\n"), i
        assert _same_json(json.loads(text), blob), i


def test_stage_seed_derivation():
    # documented rule: splitmix64 of (master xor first8(sha256(stage name)))
    def splitmix64(z):
        mask = (1 << 64) - 1
        z = (z + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    for master in (0, 7, 2**63):
        for stage in ("environment", "features", "expert-trajectories", "sgd"):
            tag = int.from_bytes(hashlib.sha256(stage.encode()).digest()[:8], "big")
            expected = splitmix64((master ^ tag) & ((1 << 64) - 1))
            assert stage_seed(master, stage) == expected

    seeds = [stage_seed(7, s) for s in ("environment", "features", "sgd")]
    assert len(set(seeds)) == 3
    assert stage_seed(7, "sgd") != stage_seed(8, "sgd")


# ---------------------------------------------------------------------------
# the command line

GRIDWORLD_4X4 = {
    "environment": {"kind": "gridworld", "width": 4, "height": 4,
                    "discount": 0.9, "slip_prob": 0.1},
    "basis": {"kind": "region-indicator", "n_blocks": 4},
    "features": {"d": 6},
    "expert": {"m": 200},
    "sgd": {"rho": 2.0, "lam": 10.0, "eta": 2e-05, "iterations": 500},
}


@pytest.mark.parametrize("overrides, flags", [
    pytest.param({}, [], id="chain"),
    pytest.param(GRIDWORLD_4X4, [], id="gridworld-4x4-regions"),
    pytest.param({"sgd": {"epsilon": 0.99, "delta": 0.99, "rho": 0.1}}, [],
                 id="accuracy-pair"),
    pytest.param({}, ["--seed", "21"], id="seed-scheme-flags"),
])
def test_cli_run_and_staged_subcommands_agree(tmp_path, capsys, overrides, flags):
    full = tmp_path / "full"
    staged = tmp_path / "staged"
    blob = chain_config(full, **overrides)
    config_path = write_config(tmp_path, blob)

    assert main(["run", "--config", config_path, *flags]) == 0
    for command in ("generate", "expert", "train", "baseline"):
        assert main([command, "--config", config_path, "--out", str(staged), *flags]) == 0

    # every artifact a subcommand writes is byte-identical to the full run,
    # and the subcommands write nothing else
    staged_names = [n for n in ARTIFACT_NAMES if n != "regret_report.json"]
    assert sorted(os.listdir(staged)) == sorted(staged_names)
    for name in staged_names:
        assert (staged / name).read_bytes() == (full / name).read_bytes(), name

    capsys.readouterr()
    code = main([
        "evaluate", "--config", config_path,
        "--theta", str(staged / "theta.json"), *flags,
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["feature_gap_vs_expert"] >= 0.0
    discount = blob["environment"]["discount"]
    assert summary["occupancy_mass"] == pytest.approx(1.0 / (1.0 - discount), abs=1e-9)
    assert summary["loss_total"] >= summary["loss_objective"]


@pytest.mark.parametrize("failure, exit_code", [
    ("missing-m", 1),
    ("sampler-crash", 2),
])
def test_cli_failing_subcommand_removes_only_its_own_files(
    tmp_path, capsys, monkeypatch, failure, exit_code
):
    out = tmp_path / "staged"
    blob = chain_config(out)
    if failure == "missing-m":
        blob["expert"] = {}
    else:
        def explode(*args, **kwargs):
            raise RuntimeError("synthetic sampler crash")

        monkeypatch.setattr("occupal.pipeline.sample_trajectories", explode)
    config_path = write_config(tmp_path, blob)

    assert main(["generate", "--config", config_path]) == 0
    capsys.readouterr()
    assert main(["expert", "--config", config_path]) == exit_code
    assert "stage 'expert-trajectories'" in capsys.readouterr().err
    # expert had written expert_policy.json before failing; generate's file stays
    assert not (out / "expert_policy.json").exists()
    assert sorted(os.listdir(out)) == ["mdp.json"]


@pytest.mark.parametrize("text", [
    pytest.param('{"theta": [0.1, 0.2, 0.3]}', id="wrong-length"),
    pytest.param('{"theta": [1e400, 2.0]}', id="non-finite"),
])
def test_cli_evaluate_rejects_a_bad_theta_file(tmp_path, capsys, text):
    config_path = write_config(tmp_path, chain_config(tmp_path / "run"))
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(text)
    capsys.readouterr()
    code = main(["evaluate", "--config", config_path, "--theta", str(theta_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert str(theta_path) in captured.err and "d = 2" in captured.err


def test_cli_overrides(tmp_path):
    out = tmp_path / "other"
    config_path = write_config(tmp_path, chain_config(tmp_path / "ignored"))
    assert main([
        "run", "--config", config_path, "--out", str(out), "--seed", "21",
    ]) == 0
    mdp_blob = json.loads((out / "mdp.json").read_text())
    assert mdp_blob["master_seed"] == 21
    theta_blob = json.loads((out / "theta.json").read_text())
    assert theta_blob["master_seed"] == 21


def test_cli_parallel_seeds(tmp_path):
    parent = tmp_path / "sweep"
    config_path = write_config(tmp_path, chain_config(parent))
    assert main(["run", "--config", config_path, "--parallel-seeds", "2"]) == 0
    for seed in (7, 8):
        sub = parent / f"seed-{seed}"
        for name in ARTIFACT_NAMES:
            assert (sub / name).exists(), f"seed-{seed}/{name}"

    # each sweep member equals a directly seeded run
    direct = tmp_path / "direct"
    run_experiment(ExperimentConfig.from_json(chain_config(direct, seed=8)))
    assert (parent / "seed-8" / "trace.csv").read_bytes() == (
        direct / "trace.csv"
    ).read_bytes()


def test_cli_parallel_seeds_report_a_stage_failure_as_a_serial_run_does(tmp_path, capsys):
    """The worker's PipelineError crosses the process pool intact."""
    blob = chain_config(tmp_path / "serial", basis={"kind": "bogus"})
    config_path = write_config(tmp_path, blob)
    assert main(["run", "--config", config_path]) == 1
    serial = capsys.readouterr().err
    assert serial == "error: stage 'basis' failed: unknown basis kind 'bogus'\n"
    assert main(["run", "--config", config_path, "--out", str(tmp_path / "sweep"),
                 "--parallel-seeds", "2"]) == 1
    assert capsys.readouterr().err == serial


def test_pipeline_error_survives_a_pickle_round_trip():
    for invalid_input in (True, False):
        error = PipelineError("basis", "unknown basis kind 'bogus'", invalid_input)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is PipelineError and str(copy) == str(error)
        assert (copy.stage, copy.message, copy.invalid_input) == (
            "basis", "unknown basis kind 'bogus'", invalid_input)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_parallel_seeds_rejects_a_count_below_one(tmp_path, capsys, n):
    parent = tmp_path / "sweep"
    config_path = write_config(tmp_path, chain_config(parent))
    assert main(["run", "--config", config_path, "--parallel-seeds", n]) == 1
    assert "--parallel-seeds" in capsys.readouterr().err
    assert not parent.exists()


@pytest.mark.parametrize("cpus, n, expected", [(2, 5, 2), (None, 3, 1), (8, 3, 3)])
def test_cli_parallel_seeds_caps_workers_at_cpu_count(
    tmp_path, monkeypatch, cpus, n, expected
):
    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    parent = tmp_path / "sweep"
    config_path = write_config(tmp_path, chain_config(parent))
    assert main(["run", "--config", config_path, "--parallel-seeds", str(n)]) == 0
    assert requested == [expected]
    for seed in range(7, 7 + n):
        assert (parent / f"seed-{seed}" / "trace.csv").exists()


def test_cli_verify_passes():
    assert main(["verify"]) == 0


def test_cli_verify_fails_when_a_property_misses_its_tolerance(capsys, monkeypatch):
    monkeypatch.setattr(
        "occupal.properties.l1_feature_gap", lambda a, b: l1_feature_gap(a, b) + 1e-9
    )
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL - sup-gap-equality:")
    assert lines[-1] == "7/8 property suites passed"


def test_cli_validation_exit_codes(tmp_path):
    # missing config file
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1
    # malformed JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    assert main(["run", "--config", str(broken)]) == 1
    # structurally incomplete config
    assert main(["run", "--config", write_config(
        tmp_path, {"environment": {"kind": "chain"}}, "incomplete.json"
    )]) == 1
    # unknown environment kind fails the environment stage as validation
    bad_kind = chain_config(tmp_path / "x")
    bad_kind["environment"] = {"kind": "hexworld"}
    assert main(["run", "--config", write_config(tmp_path, bad_kind, "kind.json")]) == 1
    # missing per-kind fields are validation failures, not internal errors
    bad_grid = chain_config(tmp_path / "y")
    bad_grid["environment"] = {"kind": "gridworld", "discount": 0.9}
    assert main(["run", "--config", write_config(tmp_path, bad_grid, "grid.json")]) == 1
    # referenced basis file must exist
    bad_file = chain_config(tmp_path / "z")
    bad_file["basis"] = {"kind": "file", "path": str(tmp_path / "nope.npz")}
    assert main(["run", "--config", write_config(tmp_path, bad_file, "file.json")]) == 1


def test_cli_rejects_a_config_whose_arrays_cannot_be_allocated(tmp_path, capsys):
    # A 2**57-step trace needs 1 EiB per column, past any 57-bit address
    # space: the allocation fails at once and touches no memory.
    out = tmp_path / "run"
    blob = chain_config(out, sgd={"rho": 2.0, "lam": 5.0, "eta": 0.01, "iterations": 2**57})
    assert main(["train", "--config", write_config(tmp_path, blob)]) == 1
    assert "stage 'sgd' failed: Unable to allocate" in capsys.readouterr().err
    assert not any((out / name).exists() for name in ARTIFACT_NAMES)


@pytest.mark.parametrize("section, spec", [
    ("basis", {"kind": "fle", "path": "/absent/psi.json"}),
    ("features", {"kind": "fle", "path": "/absent/phi.json", "d": 2}),
    ("environment", {"kind": ["chain"], "discount": 0.5}),
], ids=["basis", "features", "environment-list"])
def test_cli_rejects_an_unknown_kind(tmp_path, capsys, section, spec):
    """A misspelt kind fails its stage; it must not fall back to another kind."""
    out = tmp_path / "run"
    blob = chain_config(out, **{section: spec})
    kind = spec["kind"]
    assert main(["run", "--config", write_config(tmp_path, blob)]) == 1
    err = capsys.readouterr().err
    assert f"stage '{section}' failed: unknown {section} kind {kind!r}" in err
    assert not any((out / name).exists() for name in ARTIFACT_NAMES)


@pytest.mark.parametrize("out_dir", [None, 3])
def test_cli_rejects_an_out_dir_that_is_not_a_string(tmp_path, capsys, monkeypatch, out_dir):
    """str() would turn null into a directory named None."""
    monkeypatch.chdir(tmp_path)
    blob = dict(chain_config("unused"), out_dir=out_dir)
    with pytest.raises(ValueError, match="config field 'out_dir' must be a string"):
        ExperimentConfig.from_json(blob)
    assert main(["run", "--config", write_config(tmp_path, blob)]) == 1
    assert "config field 'out_dir' must be a string" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_cli_rejects_an_out_dir_it_cannot_create(tmp_path, capsys, under):
    """An --out that names a file, or lies under one, is a bad input (exit 1)."""
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = blocker / "sub" if under else blocker
    config_path = write_config(tmp_path, chain_config(tmp_path / "run"))
    assert main(["generate", "--config", config_path, "--out", str(out)]) == 1
    assert f"{out}: cannot create the output directory" in capsys.readouterr().err
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("sgd, derived, explicit", [
    ({"rho": 2.0, "lam": 5.0, "eta": 0.01, "iterations": 100, "epsilon": 0.5,
      "delta": 0.5}, ["epsilon", "delta"], ["lam", "eta", "iterations"]),
    ({"rho": 2.0, "lam": 5.0, "eta": 0.01, "iterations": 100, "delta": 0.5},
     ["delta"], ["lam", "eta", "iterations"]),
    ({"epsilon": 0.5, "delta": 0.5, "rho": 2.0, "eta": 0.01},
     ["epsilon", "delta"], ["eta"]),
], ids=["explicit-with-pair", "explicit-with-delta", "pair-with-eta"])
def test_cli_rejects_explicit_and_derived_sgd_fields_together(
    tmp_path, capsys, sgd, derived, explicit
):
    """Either form alone runs; given together, one would be dropped without a word."""
    blob = chain_config(tmp_path / "run", sgd=sgd)
    assert main(["run", "--config", write_config(tmp_path, blob)]) == 1
    assert f"sgd fields {derived} cannot be combined with {explicit}" in capsys.readouterr().err
    assert not any((tmp_path / "run" / name).exists() for name in ARTIFACT_NAMES)


@pytest.mark.parametrize("field", [
    None, "environment", "basis", "features", "expert", "sgd",
])
def test_cli_rejects_a_config_of_the_wrong_shape(tmp_path, capsys, field):
    """A config that is not an object, or a section that is not one, is a
    validation failure that names the offending field."""
    if field is None:
        blob, name = [1], "config"
    else:
        blob, name = chain_config(tmp_path / "run", **{field: 3}), repr(field)
    with pytest.raises(ValueError, match=name):
        ExperimentConfig.from_json(blob)
    assert main(["run", "--config", write_config(tmp_path, blob)]) == 1
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("section", ["basis", "features"])
@pytest.mark.parametrize("path", [0, [1]], ids=["fd-0", "list"])
def test_cli_rejects_a_file_path_that_is_not_a_string(tmp_path, capsys, section, path):
    """An integer path would be opened as a file descriptor (0 reads stdin)."""
    blob = chain_config(tmp_path / "run", **{section: {"kind": "file", "path": path}})
    with pytest.raises(ValueError, match=f"{section} field 'path' must be a string"):
        ExperimentConfig.from_json(blob)
    assert main(["run", "--config", write_config(tmp_path, blob)]) == 1
    assert f"{section} field 'path'" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config", "theta", "basis", "features"])
def test_cli_rejects_an_input_path_that_is_a_directory(tmp_path, capsys, case):
    """Opening a directory raises IsADirectoryError, which is a bad input
    (exit 1), not an internal error."""
    folder = tmp_path / "folder"
    folder.mkdir()
    blob = chain_config(tmp_path / "run")
    if case in ("basis", "features"):
        blob[case] = {"kind": "file", "path": str(folder)}
    config_path = write_config(tmp_path, blob)
    argv = {
        "config": ["run", "--config", str(folder)],
        "theta": ["evaluate", "--config", config_path, "--theta", str(folder)],
    }.get(case, ["run", "--config", config_path])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and str(folder) in captured.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section", ["basis", "features"])
def test_a_file_spec_whose_file_goes_after_loading_fails_its_stage(tmp_path, section):
    """The stage names a file that it cannot open as a validation failure."""
    path = tmp_path / f"{section}.json"
    path.write_text("{}")
    config = ExperimentConfig.from_json(
        chain_config(tmp_path / "run", **{section: {"kind": "file", "path": str(path)}})
    )
    path.unlink()
    path.mkdir()
    with pytest.raises(PipelineError) as info:
        run_experiment(config)
    assert str(info.value).startswith(f"stage '{section}' failed: {path}: ")
    assert isinstance(info.value.__cause__, ValueError)


def test_config_loading_converts_each_key_and_fills_in_defaults(tmp_path):
    """The stages index the checked sections without a cast or a default of
    their own: counts become ints, reals floats, and an omitted key with a
    default holds it."""
    config = ExperimentConfig.from_json(chain_config(
        tmp_path / "run",
        environment={"kind": "gridworld", "width": np.int64(3), "height": 2,
                     "discount": np.float32(0.5)},
        sgd={"rho": 2, "lam": np.int32(5), "eta": 0.01, "iterations": np.int16(100)},
        master_seed=np.uint8(7),
    ))
    sections = (config.environment, config.sgd, {"master_seed": config.master_seed})
    assert [{key: (value, type(value)) for key, value in spec.items()} for spec in sections] == [
        {"kind": ("gridworld", str), "width": (3, int), "height": (2, int),
         "discount": (0.5, float), "slip_prob": (0.1, float)},
        {"rho": (2.0, float), "lam": (5.0, float), "eta": (0.01, float),
         "iterations": (100, int)},
        {"master_seed": (7, int)},
    ]
    chain = ExperimentConfig.from_json(chain_config("out", environment={"kind": "chain"}))
    assert chain.environment == {"kind": "chain", "discount": 0.5}


@pytest.mark.parametrize("section, key", [
    ("environment", "width"),
    ("features", "d"),
    ("expert", "m"),
    ("sgd", "iterations"),
    (None, "master_seed"),
])
@pytest.mark.parametrize("value", [7.9, "7", True])
def test_cli_rejects_a_count_that_is_not_an_integer(tmp_path, capsys, section, key, value):
    """int() would truncate 7.9, parse "7" and read true as 1 without a word."""
    blob = chain_config(tmp_path / "run")
    blob["environment"] = {"kind": "gridworld", "width": 2, "height": 2, "discount": 0.9}
    if section is None:
        blob[key] = value
    else:
        blob[section] = {**blob[section], key: value}
    with pytest.raises(ValueError, match=f"field '{key}' must be an integer"):
        ExperimentConfig.from_json(blob)
    assert main(["run", "--config", write_config(tmp_path, blob)]) == 1
    assert f"field '{key}' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("environment", "discount"),
    ("environment", "slip_prob"),
    ("sgd", "rho"),
    ("sgd", "lam"),
    ("sgd", "eta"),
    ("sgd", "epsilon"),
    ("sgd", "delta"),
])
@pytest.mark.parametrize("value", ["0.5", True, None])
def test_cli_rejects_a_real_field_that_is_not_a_number(tmp_path, capsys, section, key, value):
    """float() would parse "0.5" and read true as 1.0 without a word."""
    blob = chain_config(tmp_path / "run")
    blob["environment"] = {"kind": "gridworld", "width": 2, "height": 2, "discount": 0.9}
    blob[section] = {**blob[section], key: value}
    with pytest.raises(ValueError, match=f"field '{key}' must be a real number"):
        ExperimentConfig.from_json(blob)
    assert main(["run", "--config", write_config(tmp_path, blob)]) == 1
    assert f"field '{key}' must be a real number" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    (None, "scheme", "uniform"),
    ("sgd", "batch_size", 4),
    ("sgd", "iterationz", 100),
    ("expert", "vi_tolerance", 1e-10),
    ("expert", "horizon", 40),
    ("features", "beta", 1e-3),
])
def test_cli_rejects_a_key_that_is_not_a_config_field(tmp_path, capsys, section, key, value):
    """A key that nothing reads would otherwise be ignored without a word."""
    blob = chain_config(tmp_path / "run")
    if section is None:
        blob[key] = value
    else:
        blob[section] = {**blob[section], key: value}
    message = f"{section or 'config'} field '{key}' is not a config field"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(blob)
    assert main(["run", "--config", write_config(tmp_path, blob)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, spec, key, kind", [
    ("features", {"d": 2, "path": "/nonexistent/phi.json"}, "path", None),
    ("environment", {"kind": "chain", "discount": 0.5, "width": 40, "n_states": 9},
     "width", "chain"),
    ("basis", {"kind": "state-action-indicator", "n_blocks": 3, "path": "/x"},
     "n_blocks", "state-action-indicator"),
    ("environment", {"kind": "gridworld", "width": 2, "height": 2, "discount": 0.9,
                     "n_actions": 7}, "n_actions", "gridworld"),
], ids=["generated-features-with-path", "chain-with-width", "indicator-with-n-blocks",
        "gridworld-with-n-actions"])
def test_cli_rejects_a_key_that_only_another_kind_reads(tmp_path, capsys, section, spec, key,
                                                         kind):
    """The stage of the spec's kind would ignore the key without a word."""
    blob = chain_config(tmp_path / "run", **{section: spec})
    message = f"{section} field '{key}' is not a config field of {section} kind {kind!r}"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(blob)
    assert main(["run", "--config", write_config(tmp_path, blob)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("rows, cols, data", [
    pytest.param(4, 2, [0.5, float("nan"), 0.5, 0.5, 0.5, 0.5, 0.5, 0.5], id="nan"),
    pytest.param(3, 2, [0.5] * 6, id="three-rows"),
    pytest.param(4, 0, [], id="no-columns"),
    pytest.param(4, 2, [0.5] * 6, id="short-data"),
])
def test_cli_rejects_a_bad_feature_file(tmp_path, capsys, rows, cols, data):
    features_path = tmp_path / "phi.json"
    features_path.write_text(json.dumps(
        {"rows": rows, "cols": cols, "beta": 1e-3, "seed": None, "data_colmajor": data}
    ))
    blob = chain_config(
        tmp_path / "run", features={"kind": "file", "path": str(features_path)}
    )
    assert main(["train", "--config", write_config(tmp_path, blob)]) == 1
    err = capsys.readouterr().err
    assert "stage 'features'" in err and str(features_path) in err


@pytest.mark.parametrize("text", [
    pytest.param('{"psi": [[1.0]]}', id="no-rows"),
    pytest.param("[1, 2]", id="not-an-object"),
    pytest.param('{"rows": 3, "cols": 1, "data_colmajor": [0.5, 0.5, 0.5]}', id="three-rows"),
])
def test_cli_rejects_a_malformed_basis_file(tmp_path, capsys, text):
    basis_path = tmp_path / "b.json"
    basis_path.write_text(text)
    blob = chain_config(tmp_path / "run", basis={"kind": "file", "path": str(basis_path)})
    assert main(["run", "--config", write_config(tmp_path, blob)]) == 1
    err = capsys.readouterr().err
    assert "stage 'basis'" in err and str(basis_path) in err


def test_cli_internal_error_exit_codes(tmp_path, monkeypatch):
    config_path = write_config(tmp_path, chain_config(tmp_path / "run"))

    def explode(config):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr("occupal.cli.run_experiment", explode)
    assert main(["run", "--config", config_path]) == 2


def test_cli_internal_stage_failure_cleans_up(tmp_path, monkeypatch):
    out = tmp_path / "run"
    config_path = write_config(tmp_path, chain_config(out))

    def explode(mdp, cost):
        raise RuntimeError("synthetic solver crash")

    monkeypatch.setattr("occupal.pipeline.value_iteration", explode)
    assert main(["run", "--config", config_path]) == 2
    assert not any((out / name).exists() for name in ARTIFACT_NAMES)
