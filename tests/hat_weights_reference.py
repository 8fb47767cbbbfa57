"""Write hat_weights_reference.json: exact hat weights for test_meanfield.py.

Run from the repository root with mpmath installed (the values committed
were made with mpmath 1.3):

    PYTHONPATH=src python tests/hat_weights_reference.py

It evaluates the hat weights that ``meanfield._hat_weights`` computes, at 50
digits, on the same float grids: the bath law Gamma(3/2, 1) on the two-state
grid at m = 256 and 512, and the Beta(3/2, 3/2) split of six pair totals on
the m = 256 grid.  F and G come from mpmath's regularized incomplete gamma
and beta functions; each row is normalized to unit mass, as the code does.
"""
import json
import pathlib

import mpmath as mp

from kinchem import meanfield as MF

mp.mp.dps = 50
OUT = pathlib.Path(__file__).with_name("hat_weights_reference.json")


def hat_weights(cdf, moment, scale, grid):
    """The hat weights of a law with CDF ``cdf`` and partial first moment
    ``moment`` (over ``scale``) at the edges T_{-1} .. T_{M+1}, normalized."""
    M = len(grid) - 1
    h = float(grid[1] - grid[0])
    edges = [float(grid[0] - h)] + [float(T) for T in grid] + [float(grid[M] + h)]
    F = [cdf(mp.mpf(e)) for e in edges]
    G = [moment(mp.mpf(e)) for e in edges]
    m0 = [F[i + 1] - F[i] for i in range(M + 2)]
    m1 = [scale * (G[i + 1] - G[i]) for i in range(M + 2)]
    h = mp.mpf(h)
    w = []
    for l in range(M + 1):
        T = mp.mpf(float(grid[l]))
        left = (m1[l] - (T - h) * m0[l]) / h
        right = 1 - F[M + 1] if l == M else ((T + h) * m0[l + 1] - m1[l + 1]) / h
        w.append(left + right)
    total = sum(w)
    return [float(x / total) for x in w]


def bath(grid, beta=1.0):
    def x(e):
        return beta * max(e, 0)

    return hat_weights(lambda e: mp.gammainc(1.5, 0, x(e), regularized=True),
                       lambda e: mp.gammainc(2.5, 0, x(e), regularized=True),
                       mp.mpf(1.5) / beta, grid)


def split(grid, total):
    S = mp.mpf(total)

    def u(e):
        return min(max(e / S, 0), 1)

    return hat_weights(lambda e: mp.betainc(1.5, 1.5, 0, u(e), regularized=True),
                       lambda e: mp.betainc(2.5, 1.5, 0, u(e), regularized=True),
                       S / 2, grid)


def main():
    grids = {m: MF.energy_grid(1.0, (0.0, 1.0), m=m) for m in (256, 512)}
    h = float(grids[256][1] - grids[256][0])
    totals = [s * h for s in (1, 7, 64, 256, 512)] + [10.0 + 1.0 / 3.0]
    OUT.write_text(json.dumps({
        "bath": {str(m): bath(grid) for m, grid in grids.items()},
        "split_totals": totals,
        "split": [split(grids[256], S) for S in totals],
    }, indent=0) + "\n")


if __name__ == "__main__":
    main()
