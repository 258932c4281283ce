"""Quadratic games and their pseudo-gradient linearization.

Player i minimizes J_i(x) = x^T Q_i x + d_i^T x over its own coordinate
x_i.  Stacking each player's own-coordinate gradient gives the affine
pseudo-gradient field F(x) = G x + b with

    G[i, :] = 2 Q_i[i, :],        b[i] = d_i[i],

and Nash equilibria are exactly the solutions of G x + b = 0.  G is
symmetric precisely when the game is potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoEquilibrium

__all__ = [
    "QuadraticGame",
    "PseudoGradientSystem",
    "pseudo_gradient",
    "solve_equilibrium",
    "translate_to_homogeneous",
]


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    return m


@dataclass(frozen=True)
class QuadraticGame:
    """One symmetric payoff matrix and one offset vector per player."""

    payoffs: tuple[np.ndarray, ...]
    offsets: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n = len(self.payoffs)
        if n == 0:
            raise ValueError("game needs at least one player")
        if len(self.offsets) != n:
            raise ValueError("payoffs and offsets must have one entry per player")
        qs = []
        ds = []
        for i, (q, d) in enumerate(zip(self.payoffs, self.offsets)):
            q = _as_matrix(q, f"payoffs[{i}]")
            if q.shape[0] != n:
                raise ValueError(f"payoffs[{i}] must be {n}x{n} for an {n}-player game")
            scale = max(1.0, float(np.abs(q).max()))
            if float(np.abs(q - q.T).max()) > 1e-12 * scale:
                raise ValueError(f"payoffs[{i}] must be symmetric")
            d = np.asarray(d, dtype=float)
            if d.shape != (n,) or not np.all(np.isfinite(d)):
                raise ValueError(f"offsets[{i}] must be a finite length-{n} vector")
            q.setflags(write=False)
            d.setflags(write=False)
            qs.append(q)
            ds.append(d)
        object.__setattr__(self, "payoffs", tuple(qs))
        object.__setattr__(self, "offsets", tuple(ds))

    @property
    def n_players(self) -> int:
        return len(self.payoffs)

    def cost(self, i: int, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.payoffs[i] @ x + self.offsets[i] @ x)


@dataclass(frozen=True)
class PseudoGradientSystem:
    """Affine pseudo-gradient field F(x) = G x + b."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self) -> None:
        g = _as_matrix(self.matrix, "matrix")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.linalg.norm(g)):
                raise ValueError("matrix norm overflows; rescale the matrix")
        b = np.asarray(self.offset, dtype=float)
        if b.shape != (g.shape[0],) or not np.all(np.isfinite(b)):
            raise ValueError("offset must be a finite vector matching the matrix")
        g.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", g)
        object.__setattr__(self, "offset", b)

    @property
    def n(self) -> int:
        return self.offset.shape[0]

    def field(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float) + self.offset


def pseudo_gradient(game: QuadraticGame) -> PseudoGradientSystem:
    """Stack own-coordinate payoff gradients into F(x) = G x + b."""
    n = game.n_players
    g = np.empty((n, n))
    b = np.empty(n)
    for i in range(n):
        g[i, :] = 2.0 * game.payoffs[i][i, :]
        b[i] = game.offsets[i][i]
    return PseudoGradientSystem(matrix=g, offset=b)


def solve_equilibrium(system: PseudoGradientSystem) -> np.ndarray:
    """Minimum-norm solution of G x + b = 0.

    Raises :class:`~nagdyn.errors.NoEquilibrium` when the system is
    inconsistent, i.e. the least-squares residual exceeds
    1e-8 * max(1, ||b||).
    """
    x, _, _, _ = np.linalg.lstsq(system.matrix, -system.offset, rcond=None)
    bnorm = float(np.linalg.norm(system.offset))
    residual = float(np.linalg.norm(system.matrix @ x + system.offset))
    if residual > 1e-8 * max(1.0, bnorm):
        raise NoEquilibrium(f"G x + b = 0 is inconsistent (residual {residual:.3e})")
    return x


def translate_to_homogeneous(system: PseudoGradientSystem, q0, v0):
    """Shift coordinates to the equilibrium: returns (G, q0 - x*, v0).

    In the shifted variable the dynamics are homogeneous, so every
    spectral statement about G applies verbatim to the distance from
    equilibrium.
    """
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if q0.shape != (system.n,) or v0.shape != (system.n,):
        raise ValueError("q0 and v0 must match the system dimension")
    return system.matrix, q0 - solve_equilibrium(system), v0.copy()
