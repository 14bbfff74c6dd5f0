import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wassrec.transport import _histograms, batch_conjugate

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = ROOT / "data" / "fixture"

# make tests/oracles.py importable regardless of rootdir
sys.path.insert(0, str(Path(__file__).resolve().parent))


def traced_peak(run):
    """The peak of traced allocations while ``run()`` runs, above its start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def one_user_conjugate(p, G, kernel):
    """``batch_conjugate`` of one histogram p at each column of G (s x r).

    p is validated and renormalized as a one-column stack and repeated
    once per column; returns the r values and the s x r gradients.
    """
    P, entropies = _histograms(np.asarray(p, dtype=np.float64)[:, None], kernel.shape[0])
    G = np.asarray(G, dtype=np.float64)
    r = G.shape[1]
    return batch_conjugate(np.repeat(P, r, axis=1), G, kernel, np.repeat(entropies, r))


@pytest.fixture
def movies():
    """Tiny movie-exchange instance with a hand-checkable optimum.

    Rows (interacted): Spider-Man 3, Batman Returns, Titanic.
    Columns (cold): Iron Man, Casablanca.  The exact optimal plan for
    p0 -> q1 ships 0.3 and 0.5 to Iron Man and 0.1 + 0.1 to Casablanca
    at linear cost 0.18; every basic exchange direction strictly
    increases the cost, so the vertex is the unique optimum.
    """
    M = np.array([
        [0.15, 0.80],
        [0.10, 0.95],
        [0.90, 0.05],
    ])
    p0 = np.array([0.4, 0.5, 0.1])
    q1 = np.array([0.8, 0.2])
    best_plan = np.array([
        [0.3, 0.1],
        [0.5, 0.0],
        [0.0, 0.1],
    ])
    return M, p0, q1, best_plan


@pytest.fixture
def fixture_ratings():
    return FIXTURE_DIR / "u.data"


@pytest.fixture
def fixture_genome():
    return FIXTURE_DIR / "genome.csv"
