"""A fixed reference task that measures the host's speed of the moment.

``run.py`` runs it as a child process before and after every stage
sample.  It does the kinds of work the stages do — start an interpreter,
import NumPy and SciPy, format and parse text, loop in Python and run
dense NumPy kernels — in fixed amounts, and it never imports ``wassrec``,
so its time moves with the host and never with the program.

Run as ``python3 perfbench/reference.py``; it prints nothing.
"""

import numpy as np
import scipy.linalg  # noqa: F401  (the stages load SciPy's linear algebra too)


def main() -> None:
    rng = np.random.default_rng(0)
    lines = ["%d\t%d\t%d\t%d" % (u, i, r, t) for u, i, r, t in
             rng.integers(1, 1000, size=(40_000, 4)).tolist()]
    rows = [tuple(map(int, line.split("\t"))) for line in lines]
    counts = {}
    for user, item, rating, _ in rows:
        if rating > 500:
            counts[user] = counts.get(user, 0) + item
    a = rng.random((150, 150))
    for _ in range(40):
        a = np.exp(-(a @ a) / a.shape[0])
        a /= a.sum(axis=1, keepdims=True)
    np.argsort(-rng.random((300, 600)), axis=1)


if __name__ == "__main__":
    main()
