"""Shared random corpora for the unit and acceptance suites."""

import numpy as np

from icqs import instgen, iqp


def random_quadratic(rng: np.random.Generator, n: int, cond: float = 100.0) -> iqp.Quadratic:
    """Random PD quadratic with condition number at most ``cond``."""
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    lam = cond ** rng.uniform(0.0, 1.0, size=n)
    Q = (V * lam) @ V.T
    Q = 0.5 * (Q + Q.T) * rng.uniform(0.5, 2.0)
    d = rng.uniform(-10.0, 10.0, size=n)
    return iqp.Quadratic(Q, d)


def quadratic_corpus(seed: int, count: int, dims, cond: float = 100.0):
    """``count`` seeded quadratics with dimensions cycling through ``dims``."""
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(count):
        n = dims[trial % len(dims)]
        out.append(random_quadratic(rng, n, cond))
    return out


def instance_corpus():
    """The acceptance corpus: 50 positively adequate instances, 25 pricing +
    25 random, 2-5 players, at most 10 variables per player."""
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
