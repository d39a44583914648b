"""A fixed, seeded draw of parameter cells over the whole parameter space.

Test modules import it as a sibling module: pytest puts tests/ on sys.path.
"""

import numpy as np


def seeded_draw(n=600, seed=20261019):
    """n cells (delta, chi, epsilon, gamma) as tuples of Python floats.

    chi is log-uniform in [0.02, 1], gamma/chi log-uniform in [1e-3, 10]
    and delta/chi uniform in [-60, 3]; epsilon is the drive at which a
    classical branch holds a photon number drawn log-uniform in
    [0.01, 20], or 4 where that drive is larger.
    """
    rng = np.random.default_rng(seed)
    chi = np.exp(rng.uniform(np.log(0.02), 0.0, n))
    gamma = chi * np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
    delta = chi * rng.uniform(-60.0, 3.0, n)
    nbar = np.exp(rng.uniform(np.log(0.01), np.log(20.0), n))
    eps = np.minimum(4.0, np.sqrt(nbar * ((delta + 2.0 * chi * nbar) ** 2 + gamma**2 / 4.0)))
    return list(zip(delta.tolist(), chi.tolist(), eps.tolist(), gamma.tolist()))
