"""Seeded inputs for the three benchmark workloads.

Each workload is a list of (instance, start) jobs; every job is one call of
``icqs.cli.solve_pipeline``.  All random draws come from
``instgen.SplitMix64``.  The rotation games are computed with plain Python
float arithmetic in a fixed order, so they are bit-identical on any
platform; the other games come from ``instgen``'s own generators.

The seed selects one of ``POOL`` input sets (``seed % POOL``): it draws the
``corpus`` starts and orders the ``cycling`` and ``divergence`` jobs.
Outputs are checked against digests recorded for every pool entry
(``digests.json``), so any seed the benchmark is run with has a recorded
reference.

Why these workloads:

* ``corpus``: the 50 acceptance instances (pricing and random families,
  k = 2..5) with 10 starts each.  Every solve ends in a fixed point with a
  1x1 restricted game; the time splits between the bounds and best-response
  iteration.  This is where optimisations of the bounds show.
* ``cycling``: 30 two-player "rotation" games whose interaction matrices
  both have every singular value 0.9, with 5 starts each.  Most solves end
  in a cycle, so the restricted game and its mixed equilibrium do real work
  and the latency tail comes from the finite game.
* ``divergence``: 20 negatively adequate games (``instgen.gen_negative``)
  with 10 starts each.  Every solve is certified divergent after tens of
  sweeps on iterates that grow to norm 1e14; bounds and the finite game
  never run, so this is the bypass case for their optimisations and
  stresses the best-response kernel.

Three-player cycles are deliberately left out: the ones tried fell through
``finite.mne_k_player``'s damped sweep into 10^6 rounds of regret matching
(minutes per solve, ending in ToleranceNotReached).
"""

from __future__ import annotations

import hashlib

import numpy as np

from icqs import game, instgen

WORKLOADS = ("corpus", "cycling", "divergence")
POOL = 16

CORPUS_STARTS = 10
CORPUS_START_RANGE = (-500, 500)

CYCLING_INSTANCES = 30
CYCLING_STARTS = 5
CYCLING_START_RANGE = (-20, 20)
CYCLING_SIGMA = 0.9
CYCLING_INPUTS_SEED = 20240517

DIVERGENCE_INSTANCES = 20
DIVERGENCE_STARTS = 10
DIVERGENCE_START_RANGE = (-500, 500)
DIVERGENCE_INPUTS_SEED = 7_100_000

_STREAM_BASE = {"corpus": 0x1C05, "cycling": 0xC1C1, "divergence": 0xD17E}


def pool_index(seed: int) -> int:
    return seed % POOL


def _stream(workload: str, seed: int) -> instgen.SplitMix64:
    return instgen.SplitMix64(_STREAM_BASE[workload] * 1_000_003 + pool_index(seed))


def _int_start(rng: instgen.SplitMix64, dims, lo: int, hi: int) -> list[np.ndarray]:
    return [np.array([float(rng.randint(lo, hi)) for _ in range(n)]) for n in dims]


def corpus_instances() -> list[tuple[str, game.IcqsInstance]]:
    """The acceptance corpus: 25 pricing + 25 random instances, 2-5 players.

    Same specs as the acceptance suite's corpus (tests/test_acceptance.py).
    """
    out = []
    plan = [(2, 7), (3, 6), (4, 6), (5, 6)]
    for players, count in plan:
        for r in range(count):
            spec = instgen.PricingSpec(n_players=players, seed=1000 * players + r)
            out.append((f"pricing-{players}p-{r}", instgen.gen_pricing(spec)))
    for players, count in plan:
        vars_per_player = 10 if players == 2 else 5
        for r in range(count):
            spec = instgen.RandomSpec(
                n_players=players, vars_per_player=vars_per_player, seed=2000 * players + r
            )
            out.append((f"random-{players}p-{vars_per_player}v-{r}", instgen.gen_random(spec)))
    return out


# --- rotation games ---------------------------------------------------------
# Matrices are nested lists of Python floats; products and reflections use
# only +, -, *, / in a fixed order so the result is the same on any platform.

def _matmul(A, B):
    return [
        [sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def _transpose(A):
    return [list(row) for row in zip(*A)]


def _orthogonal(rng: instgen.SplitMix64, n: int):
    """Product of n Householder reflections of uniform random vectors."""
    U = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for _ in range(n):
        v = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        vv = sum(x * x for x in v)
        H = [[(1.0 if i == j else 0.0) - 2.0 * v[i] * v[j] / vv for j in range(n)] for i in range(n)]
        U = _matmul(H, U)
    return U


def rotation_game(rng: instgen.SplitMix64, n: int, scaled_identity: bool) -> game.IcqsInstance:
    """Two-player game with R_0 = 0.9 U and R_1 = -0.9 U' for orthogonal U.

    C_0[1] = Q_0 R, C_1[0] = -Q_1 R', d_i = -Q_i a_i with a_i uniform in
    [-3, 3]^n, so both interaction matrices have all singular values 0.9.
    Q is 2I or P P' + I with integer P in [-2, 2].
    """
    R = [[CYCLING_SIGMA * x for x in row] for row in _orthogonal(rng, n)]
    Qs, ds = [], []
    for _ in range(2):
        if scaled_identity:
            Q = [[2.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        else:
            P = [[float(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            Q = _matmul(P, _transpose(P))
            Q = [[Q[i][j] + (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
        a = [[rng.uniform(-3.0, 3.0)] for _ in range(n)]
        Qs.append(Q)
        ds.append([-x[0] for x in _matmul(Q, a)])
    C0 = _matmul(Qs[0], R)
    C1 = [[-x for x in row] for row in _matmul(Qs[1], _transpose(R))]
    players = [
        game.PlayerProblem(Q=np.array(Qs[0]), C={1: np.array(C0)}, d=np.array(ds[0])),
        game.PlayerProblem(Q=np.array(Qs[1]), C={0: np.array(C1)}, d=np.array(ds[1])),
    ]
    meta = {"generator": "perfbench-rotation", "n": n, "scaled_identity": scaled_identity}
    return game.make_instance(players, meta=meta)


# --- workloads ----------------------------------------------------------------

def _corpus_jobs(seed: int):
    rng = _stream("corpus", seed)
    jobs = []
    for name, inst in corpus_instances():
        for s in range(CORPUS_STARTS):
            jobs.append((f"{name}/{s}", inst, _int_start(rng, inst.dims, *CORPUS_START_RANGE)))
    return jobs


def _in_seed_order(jobs, workload: str, seed: int):
    order = _stream(workload, seed)
    for i in range(len(jobs) - 1, 0, -1):  # Fisher-Yates
        j = order.randint(0, i)
        jobs[i], jobs[j] = jobs[j], jobs[i]
    return jobs


def _cycling_jobs(seed: int):
    # Fixed games and starts; the seed only orders the jobs.  One game's
    # restricted game is 2x2 to 10x10 depending on the start, and drawing
    # starts per seed moved throughput by ~10% and the tail 2x.
    games = instgen.SplitMix64(CYCLING_INPUTS_SEED)
    starts = instgen.SplitMix64(CYCLING_INPUTS_SEED + 1)
    jobs = []
    for r in range(CYCLING_INSTANCES):
        n = 1 + r % 3
        scaled = (r // 3) % 2 == 0
        inst = rotation_game(games, n, scaled)
        name = f"rotation-{n}v-{'2I' if scaled else 'PPt'}-{r}"
        for s in range(CYCLING_STARTS):
            jobs.append((f"{name}/{s}", inst, _int_start(starts, inst.dims, *CYCLING_START_RANGE)))
    return _in_seed_order(jobs, "cycling", seed)


def _divergence_jobs(seed: int):
    # Fixed games and starts; the seed only orders the jobs.  The sweep count
    # goes as log(1e14 / |start|) / log(sigma): drawing the games per seed
    # moved the total work by ~13%, and drawing the starts per seed moved the
    # p95 latency by ~10%.
    starts = instgen.SplitMix64(DIVERGENCE_INPUTS_SEED)
    combos = [(k, n) for k in (2, 3) for n in (2, 3, 4)]
    jobs = []
    for r in range(DIVERGENCE_INSTANCES):
        k, n = combos[r % len(combos)]
        spec = instgen.NegativeSpec(n_players=k, vars_per_player=n, seed=DIVERGENCE_INPUTS_SEED + r)
        inst = instgen.gen_negative(spec)
        name = f"negative-{k}p-{n}v-{r}"
        for s in range(DIVERGENCE_STARTS):
            jobs.append((f"{name}/{s}", inst, _int_start(starts, inst.dims, *DIVERGENCE_START_RANGE)))
    return _in_seed_order(jobs, "divergence", seed)


_BUILDERS = {"corpus": _corpus_jobs, "cycling": _cycling_jobs, "divergence": _divergence_jobs}


def build_jobs(workload: str, seed: int):
    """[(job name, instance, start)] for one workload and seed."""
    return _BUILDERS[workload](seed)


def inputs_hash(jobs) -> str:
    """sha256 over every job's instance arrays and start vector."""
    h = hashlib.sha256()
    for name, inst, start in jobs:
        h.update(name.encode())
        for p in inst.players:
            h.update(p.Q.tobytes())
            for j in sorted(p.C):
                h.update(p.C[j].tobytes())
            h.update(p.d.tobytes())
        for x in start:
            h.update(np.asarray(x, dtype=np.float64).tobytes())
    return h.hexdigest()
