"""Self-tests of the benchmark's inputs, checks and tracer.

    python3 -m pytest perfbench

Not part of the solver's test suite; they guard the benchmark itself: the
same seed gives the same inputs, the rotation games are what their
generator promises, every pool entry has a recorded digest, and each
workload still exercises the layers it was chosen for.
"""

import math

import pytest

import run

run.load_program()

import check  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from icqs import cli, game, iqp, linalg  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = workloads.inputs_hash(workloads.build_jobs(workload, 3))
    b = workloads.inputs_hash(workloads.build_jobs(workload, 3))
    other = workloads.inputs_hash(workloads.build_jobs(workload, 4))
    assert a == b
    assert a != other


def test_seeds_share_pool_entries():
    assert workloads.inputs_hash(workloads.build_jobs("corpus", 5)) == workloads.inputs_hash(
        workloads.build_jobs("corpus", 5 + workloads.POOL)
    )


def test_cycling_games_are_positively_adequate_at_sigma_0_9():
    seen = set()
    for _, inst, _ in workloads.build_jobs("cycling", 0):
        if id(inst) in seen:
            continue
        seen.add(id(inst))
        report = game.classify(inst)
        assert report.classification is game.Adequacy.POSITIVE
        for s in report.sigma_max + report.sigma_min:
            assert abs(s - workloads.CYCLING_SIGMA) <= check.CYCLING_SIGMA_TOLERANCE
    assert len(seen) == workloads.CYCLING_INSTANCES


def test_every_pool_entry_has_a_recorded_digest():
    for workload in workloads.WORKLOADS:
        for pool in range(workloads.POOL):
            assert check.recorded_digest(workload, pool) is not None


def test_digest_sees_probability_changes_above_1e_9():
    result = {
        "outcome": "cycle",
        "iterations": 4,
        "equilibrium": {"strategies": [[[0.0], [1.0]]], "probabilities": [[0.5, 0.5]]},
    }
    moved = {**result, "equilibrium": {**result["equilibrium"], "probabilities": [[0.5 + 2e-9, 0.5]]}}
    assert check.solve_record("a", result) != check.solve_record("a", moved)
    assert check.solve_record("a", ValueError()) == '["a", "error:ValueError"]'


def test_tracer_wraps_by_name_imports_and_restores_them():
    original = iqp.cholesky
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert iqp.cholesky is not original and linalg.cholesky is not original
        iqp.cholesky(linalg.np.eye(2))
        linalg.solve_spd(linalg.np.eye(2), linalg.np.ones(2))
    finally:
        t.uninstall()
    assert iqp.cholesky is original and linalg.cholesky is original
    summary = t.summary()
    assert summary["linalg.cholesky"]["calls"] == 2
    outer = summary["linalg.solve_spd"]
    assert outer["self_s"] < outer["total_s"]


def _traced_sample(workload, stride):
    jobs = workloads.build_jobs(workload, 0)[::stride]
    t = tracer_mod.Tracer()
    outputs = []
    t.install()
    try:
        for i, (_, inst, start) in enumerate(jobs):
            t.solve_id = i
            outputs.append(cli.solve_pipeline(inst, start=start))
    finally:
        t.uninstall()
    summary = t.summary()
    solve_s = summary["cli.solve_pipeline"]["total_s"]
    shares = {k: v / solve_s for k, v in t.layer_seconds().items()}
    return outputs, summary, shares


def _calls(summary, layer):
    return sum(v["calls"] for k, v in summary.items() if k.startswith(layer + "."))


# Share thresholds hold at the commit that added the benchmark with a wide
# margin (measured shares in README.md); an optimisation of the named layer
# may legitimately move them, an input change that bypasses it should not.

def test_corpus_spends_about_as_much_in_bounds_as_in_iteration():
    outputs, summary, shares = _traced_sample("corpus", 10)
    assert all(r["outcome"] == "fixed_point" for r in outputs)
    assert all(math.prod(map(len, r["equilibrium"]["strategies"])) == 1 for r in outputs)
    assert shares["bounds"] > 0.25 and shares["dynamics"] > 0.25


def test_cycling_spends_a_large_share_in_the_finite_game():
    outputs, summary, shares = _traced_sample("cycling", 3)
    assert sum(r["outcome"] == "cycle" for r in outputs) * 2 > len(outputs)
    assert shares["finite"] > 0.25
    assert shares["bounds"] < 0.15


def test_divergence_never_reaches_bounds_or_the_finite_game():
    outputs, summary, shares = _traced_sample("divergence", 5)
    assert all(r["outcome"] == "divergence" for r in outputs)
    assert _calls(summary, "bounds") == 0 and _calls(summary, "finite") == 0
    assert shares["dynamics"] > 0.9 and shares["iqp"] > 0.5
