"""Quadratic games, pseudo-gradient assembly, and equilibria."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagdyn import game
from nagdyn.dynamics import finite_difference_jacobian
from nagdyn.errors import NoEquilibrium


def _two_player(q1, q2, d1=None, d2=None):
    n = len(q1)
    zeros = np.zeros(n)
    return game.QuadraticGame(
        payoffs=(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)),
        offsets=(zeros if d1 is None else np.asarray(d1, float),
                 zeros if d2 is None else np.asarray(d2, float)),
    )


def test_pseudo_gradient_rows():
    # G[i, :] = 2 Q_i[i, :] and b[i] = d_i[i], exactly
    g1 = [[0.2, 0.1], [0.1, 0.5]]
    g2 = [[0.3, -0.2], [-0.2, 0.4]]
    gm = _two_player(g1, g2, d1=[0.7, 9.0], d2=[9.0, -0.3])
    sys = game.pseudo_gradient(gm)
    assert np.array_equal(sys.matrix, [[0.4, 0.2], [-0.4, 0.8]])
    assert np.array_equal(sys.offset, [0.7, -0.3])


def test_potential_iff_symmetric():
    # both players share the off-diagonal coupling -> symmetric G
    shared = _two_player([[0.2, 0.1], [0.1, 0.5]], [[0.3, 0.1], [0.1, 0.4]])
    assert np.array_equal(game.pseudo_gradient(shared).matrix.T,
                          game.pseudo_gradient(shared).matrix)
    # opposed couplings -> rotational part, no potential
    opposed = _two_player([[6.0, 0.75], [0.75, 1.0]], [[1.0, -0.75], [-0.75, 6.0]])
    sys = game.pseudo_gradient(opposed)
    assert np.array_equal(sys.matrix, [[12.0, 1.5], [-1.5, 12.0]])
    assert not np.array_equal(sys.matrix, sys.matrix.T)


def test_field_matches_cost_gradients():
    # F_i(x) = d/dx_i J_i(x), checked by central differences on the costs
    gm = _two_player([[0.2, 0.1], [0.1, 0.5]], [[0.3, -0.2], [-0.2, 0.4]],
                     d1=[0.7, 0.0], d2=[0.0, -0.3])
    sys = game.pseudo_gradient(gm)
    rng = np.random.RandomState(2)
    h = 1e-6
    for _ in range(5):
        x = rng.randn(2)
        grad = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            grad[i] = (gm.cost(i, x + e) - gm.cost(i, x - e)) / (2.0 * h)
        assert np.max(np.abs(sys.field(x) - grad)) <= 1e-8


def test_game_validation():
    with pytest.raises(ValueError):
        game.QuadraticGame(payoffs=(), offsets=())
    with pytest.raises(ValueError):
        _two_player([[0.2, 0.3], [0.1, 0.5]], [[0.3, 0.1], [0.1, 0.4]])  # asymmetric payoff
    with pytest.raises(ValueError):
        game.QuadraticGame(
            payoffs=(np.eye(2), np.eye(2)),
            offsets=(np.zeros(2),),  # wrong count
        )
    with pytest.raises(ValueError):
        game.PseudoGradientSystem(matrix=np.eye(2), offset=np.array([1.0, np.nan]))


def test_system_rejects_overflowing_norm():
    with pytest.raises(ValueError, match="norm overflows"):
        game.PseudoGradientSystem(matrix=[[1e200, 0.0], [0.0, 1.0]], offset=[0.0, 0.0])


def test_solve_equilibrium_regular():
    sys = game.PseudoGradientSystem(
        matrix=np.array([[0.4, 0.2], [0.2, 0.8]]),
        offset=np.array([-0.6, -1.0]),
    )
    x = game.solve_equilibrium(sys)
    assert np.max(np.abs(sys.matrix @ x + sys.offset)) <= 1e-12
    assert np.allclose(x, np.linalg.solve(sys.matrix, -sys.offset), atol=1e-14)


def test_solve_equilibrium_singular_consistent_min_norm():
    # singular coupling with b in the range: the solver picks the
    # minimum-norm solution, orthogonal to the null space
    g = 0.25 * np.ones((2, 2))
    b = -(g @ np.array([1.0, 1.0]))
    sys = game.PseudoGradientSystem(matrix=g, offset=b)
    x = game.solve_equilibrium(sys)
    assert np.max(np.abs(g @ x + b)) <= 1e-14
    null = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(x @ null) <= 1e-12
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)  # (1,1) is already min-norm


def test_solve_equilibrium_inconsistent():
    g = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, -1.0])  # not in the range of (symmetric) G
    with pytest.raises(NoEquilibrium):
        game.solve_equilibrium(game.PseudoGradientSystem(matrix=g, offset=b))


def test_with_equilibrium_and_translate():
    g = np.array([[0.4, 0.2], [0.2, 0.8]])
    b = np.array([0.3, -0.5])
    sys = game.PseudoGradientSystem(matrix=g, offset=b)
    gm, q0s, v0s = game.translate_to_homogeneous(sys, [1.0, 1.0], [0.1, 0.2])
    assert np.array_equal(gm, g)
    assert np.array_equal(q0s, np.array([1.0, 1.0]) - game.solve_equilibrium(sys))
    assert np.array_equal(v0s, [0.1, 0.2])
    inconsistent = game.PseudoGradientSystem(matrix=np.ones((2, 2)), offset=np.array([1.0, -1.0]))
    with pytest.raises(NoEquilibrium):
        game.translate_to_homogeneous(inconsistent, [1.0, 1.0], [0.0, 0.0])


def test_field_jacobian_is_the_matrix():
    g = np.array([[0.4, 0.2], [0.2, 0.8]])
    sys = game.PseudoGradientSystem(matrix=g, offset=np.array([0.1, -0.2]))
    jac = finite_difference_jacobian(sys.field, np.array([0.3, 0.7]))
    assert np.max(np.abs(jac - g)) <= 1e-9


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_equilibrium_property_random_solvable(n, seed):
    rng = np.random.RandomState(seed)
    g = rng.randn(n, n) + n * np.eye(n)  # diagonally shifted: invertible w.h.p.
    if abs(np.linalg.det(g)) < 1e-6:
        return
    b = rng.randn(n)
    sys = game.PseudoGradientSystem(matrix=g, offset=b)
    x = game.solve_equilibrium(sys)
    assert np.linalg.norm(sys.field(x)) <= 1e-8 * max(1.0, float(np.linalg.norm(b)))


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: game.PseudoGradientSystem(matrix=np.ones((2, 3)), offset=np.zeros(2)), "matrix must be a square matrix"),
        (lambda: game.PseudoGradientSystem(matrix=[[np.inf]], offset=[0.0]), "matrix must be finite"),
        (
            lambda: game.QuadraticGame(payoffs=(np.eye(3), np.eye(2)), offsets=(np.zeros(2), np.zeros(2))),
            r"payoffs\[0\] must be 2x2 for an 2-player game",
        ),
        (
            lambda: game.QuadraticGame(payoffs=(np.eye(2), np.eye(2)), offsets=(np.zeros(2), np.zeros(3))),
            r"offsets\[1\] must be a finite length-2 vector",
        ),
        (
            lambda: game.translate_to_homogeneous(game.PseudoGradientSystem(np.eye(2), np.zeros(2)), np.zeros(3), np.zeros(2)),
            "q0 and v0 must match the system dimension",
        ),
    ],
    ids=["not_square", "not_finite", "payoff_shape", "offset", "translate_shapes"],
)
def test_named_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
