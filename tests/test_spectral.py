"""Eigensolver, eigenvalue classification, and stability verdicts.

numpy.linalg serves as the reference oracle for spectra, small matrices
are checked against closed-form eigenvalues, and larger ones against the
designed spectra of seeded P D P^-1 similarity transforms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from nagdyn import spectral
from nagdyn.errors import EigensolverNoConvergence
from nagdyn.spectral import (
    EigenvalueClass,
    FirstOrderVerdict,
    NagdVerdict,
    boundedness_bound,
    classify_eigenvalue,
    classify_matrix,
    eigendecompose,
    predicted_rate,
)

SQRT2 = math.sqrt(2.0)


def test_two_player_potential_spectrum():
    # [[0.4, 0.2], [0.2, 0.8]] has eigenvalues 0.6 -/+ 0.2 sqrt(2)
    spec = eigendecompose([[0.4, 0.2], [0.2, 0.8]])
    expect = np.array([0.6 - 0.2 * SQRT2, 0.6 + 0.2 * SQRT2])
    assert np.allclose(np.real(spec.eigenvalues), expect, rtol=0, atol=1e-14)
    assert np.max(np.abs(np.imag(spec.eigenvalues))) == 0.0
    assert spec.is_symmetric and spec.is_normal and spec.is_diagonalizable
    assert spec.kappa_P <= 1.0 + 1e-12


def test_identity_is_exact():
    spec = eigendecompose(np.eye(3))
    assert np.array_equal(spec.eigenvalues, np.ones(3, dtype=complex))
    assert np.array_equal(spec.right_vectors, np.eye(3, dtype=complex))
    assert spec.kappa_P == 1.0


def test_rotationally_coupled_pair():
    spec = eigendecompose([[6.0, 1.5], [-1.5, 6.0]])
    assert np.allclose(sorted(spec.eigenvalues, key=lambda z: z.imag),
                       [6.0 - 1.5j, 6.0 + 1.5j], atol=1e-13)
    assert spec.is_normal and not spec.is_symmetric
    assert spec.kappa_P <= 1.0 + 1e-10


def test_eigenvalues_come_in_conjugate_pairs_sorted():
    rng = np.random.RandomState(3)
    for _ in range(20):
        n = rng.randint(2, 7)
        a = rng.randn(n, n)
        spec = eigendecompose(a)
        eigs = np.asarray(spec.eigenvalues)
        # closure under conjugation
        for lam in eigs:
            assert np.min(np.abs(eigs - np.conj(lam))) <= 1e-9 * max(1.0, np.max(np.abs(eigs)))
        # lexicographic order (real part, then imaginary part)
        keys = [(z.real, z.imag) for z in eigs]
        assert keys == sorted(keys)


def test_reconstruction_and_biorthogonality():
    rng = np.random.RandomState(11)
    for _ in range(15):
        n = rng.randint(1, 7)
        a = rng.randn(n, n) * 2.0
        spec = eigendecompose(a)
        if not spec.is_diagonalizable:
            continue
        p = spec.right_vectors
        w = spec.left_vectors
        scale = max(1.0, float(np.linalg.norm(a)))
        recon = p @ np.diag(spec.eigenvalues) @ np.conj(w)
        assert np.max(np.abs(recon - a)) <= 1e-8 * scale
        assert np.max(np.abs(np.conj(w) @ p - np.eye(n))) <= 1e-6
        assert spec.biorthogonality_residual <= 1e-6


def _matched_distance(mine, ref) -> float:
    # optimal one-to-one pairing: parallel sorts are order-unstable when
    # clusters carry rounding dust in the sort key
    cost = np.abs(np.asarray(mine)[:, None] - np.asarray(ref)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


@given(
    hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=5).map(lambda n: (n, n)),
        elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
)
@settings(max_examples=120, deadline=None)
def test_spectrum_matches_numpy_oracle(a):
    # Hypothesis likes exact Jordan chains, where eigenvalues are only
    # Holder-continuous (a chain of length k splits like eps^{1/k}), so
    # the sharp assertions are (a) every computed eigenvalue is an
    # eps-pseudo-eigenvalue and (b) the two backward-stable solvers agree
    # to the Holder-limited accuracy.
    n = a.shape[0]
    spec = eigendecompose(a)
    ref = np.linalg.eigvals(a)
    scale = max(1.0, float(np.linalg.norm(a)))
    for lam in spec.eigenvalues:
        smin = np.linalg.svd(a - lam * np.eye(n), compute_uv=False)[-1]
        assert smin <= 1e-10 * scale
    holder = 8.0 * float(np.finfo(float).eps) ** (1.0 / n)
    assert _matched_distance(spec.eigenvalues, ref) <= holder * scale


def test_spectrum_tight_agreement_on_dense_samples():
    # continuous random matrices are almost surely simple, so the tight
    # forward comparison is legitimate here
    rng = np.random.RandomState(17)
    for _ in range(25):
        n = rng.randint(1, 7)
        a = rng.randn(n, n) * rng.choice([0.1, 1.0, 10.0])
        mine = eigendecompose(a).eigenvalues
        ref = np.linalg.eigvals(a)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert _matched_distance(mine, ref) <= 1e-9 * scale


def test_symmetric_input_gives_real_spectrum():
    rng = np.random.RandomState(5)
    for n in (2, 3, 4, 6):
        a = rng.randn(n, n)
        a = 0.5 * (a + a.T)
        spec = eigendecompose(a)
        assert np.max(np.abs(np.imag(spec.eigenvalues))) == 0.0
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(np.real(spec.eigenvalues), ref, atol=1e-12 * max(1.0, np.max(np.abs(ref))))
        assert spec.kappa_P <= 1.0 + 1e-10


def test_three_and_four_player_spectra():
    g3 = [[1.0, 0.3, 0.2], [0.3, 0.8, 0.25], [0.2, 0.25, 0.6]]
    spec3 = eigendecompose(g3)
    assert np.allclose(
        np.real(spec3.eigenvalues),
        np.linalg.eigvalsh(np.array(g3)),
        atol=1e-12,
    )
    # published approximations hold to two decimals
    assert np.allclose(np.real(spec3.eigenvalues), [0.43, 0.62, 1.35], atol=0.005)

    g4 = [
        [1.2, 0.2, 0.15, 0.1],
        [0.2, 0.9, 0.2, 0.15],
        [0.15, 0.2, 0.7, 0.1],
        [0.1, 0.15, 0.1, 0.5],
    ]
    spec4 = eigendecompose(g4)
    assert np.allclose(np.real(spec4.eigenvalues), [0.44, 0.58, 0.87, 1.41], atol=0.005)


def test_defective_matrix_is_flagged():
    spec = eigendecompose([[0.0, 0.0], [1.0, 0.0]])
    assert not spec.is_diagonalizable
    spec = eigendecompose([[1.0, 0.0], [1.0, 1.0]])
    assert not spec.is_diagonalizable


def test_cubic_with_complex_pair():
    # companion matrix of (x - 2)(x^2 + 1) = x^3 - 2x^2 + x - 2
    c = np.array([[0.0, 0.0, 2.0], [1.0, 0.0, -1.0], [0.0, 1.0, 2.0]])
    spec = eigendecompose(c)
    ref = np.sort_complex(np.array([2.0, 1j, -1j]))
    assert np.max(np.abs(np.sort_complex(np.asarray(spec.eigenvalues)) - ref)) <= 1e-10


def _designed_matrix(n, seed):
    """G = P D P^-1 with cond(P) = 3 and a known spectrum in all four regions.

    D is real block-diagonal: 2x2 rotation-scaling blocks [[a, b], [-b, a]]
    carry the complex pairs a -/+ ib, so the eigenvectors of D are unitary
    and cond(P) bounds the eigenvector condition number of G.
    """
    rng = np.random.RandomState(seed)
    n_pairs = n // 4
    n_real = n - 2 * n_pairs
    n_zero = max(1, n_real // 4)
    n_neg = max(1, n_real // 4)
    reals = np.concatenate([
        rng.uniform(0.5, 3.0, n_real - n_zero - n_neg),
        np.zeros(n_zero),
        rng.uniform(-3.0, -0.5, n_neg),
    ])
    d = np.zeros((n, n))
    d[np.arange(n_real), np.arange(n_real)] = reals
    eigs = list(reals)
    for k in range(n_pairs):
        a, b = rng.uniform(-2.0, 3.0), rng.uniform(0.5, 2.5)
        i = n_real + 2 * k
        d[i : i + 2, i : i + 2] = [[a, b], [-b, a]]
        eigs += [complex(a, -b), complex(a, b)]
    q1, _ = np.linalg.qr(rng.randn(n, n))
    q2, _ = np.linalg.qr(rng.randn(n, n))
    sv = np.concatenate([[1.0], rng.uniform(1.0, 3.0, n - 2), [3.0]])
    p = q1 @ np.diag(sv) @ q2.T
    return p @ d @ np.linalg.inv(p), np.array(eigs, dtype=complex), p


@pytest.mark.parametrize("n", [8, 32, 64])
def test_designed_spectrum_recovered(n):
    g, designed, p = _designed_matrix(n, seed=100 + n)
    cond_p = float(np.linalg.cond(p))
    assert cond_p <= 3.0 + 1e-12
    spec = eigendecompose(g)
    vals = np.asarray(spec.eigenvalues)
    eps = float(np.finfo(float).eps)
    assert _matched_distance(vals, designed) <= 1e3 * n * eps * cond_p * np.linalg.norm(g, 2)
    # sorted by (real, imag) and closed under conjugation exactly
    keys = [(z.real, z.imag) for z in vals]
    assert keys == sorted(keys)
    assert np.array_equal(vals, np.sort_complex(np.conj(vals)))
    # left and right vectors are biorthonormal
    assert np.max(np.abs(np.conj(spec.left_vectors) @ spec.right_vectors - np.eye(n))) <= 1e-10
    assert spec.is_diagonalizable
    # every region is present and the classes match the design
    tags = sorted(classify_eigenvalue(l, spec.tol).tag.value for l in vals)
    want = sorted(classify_eigenvalue(l, spec.tol).tag.value for l in designed)
    assert tags == want
    assert set(want) == {c.value for c in EigenvalueClass}


@pytest.mark.parametrize("lam", [1e-3, 0.5, 1.0, 7.3])
@pytest.mark.parametrize("transpose", [False, True])
def test_exact_jordan_block_stays_defective(lam, transpose):
    j = np.array([[lam, 1.0], [0.0, lam]])
    spec = eigendecompose(j.T if transpose else j)
    assert not spec.is_diagonalizable
    assert classify_matrix(spec).nagd is NagdVerdict.INDETERMINATE_JORDAN


def test_geev_failure_raises_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(EigensolverNoConvergence, match="geev"):
        eigendecompose([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "matrix",
    [[[1e308, 1e308], [-1e308, 1e308]], [[1e308, 0.0], [0.0, 1.0]]],
)
def test_overflowing_norm_is_rejected(matrix):
    # ||G||_F overflows, so no tolerance scaled to it is meaningful
    with pytest.raises(ValueError, match="norm overflows"):
        eigendecompose(matrix)


# --------------------------------------------------------------------------
# pointwise classification


@pytest.mark.parametrize(
    "lam,tag,rate",
    [
        (1.0, EigenvalueClass.POSITIVE_REAL, 0.0),
        (0.317, EigenvalueClass.POSITIVE_REAL, 0.0),
        (0.0, EigenvalueClass.ZERO, 0.0),
        (5e-13, EigenvalueClass.ZERO, 0.0),
        (-5e-13, EigenvalueClass.ZERO, 0.0),
        (-0.5, EigenvalueClass.NEGATIVE_REAL, math.sqrt(0.5)),
        (-2.0, EigenvalueClass.NEGATIVE_REAL, SQRT2),
        (1j, EigenvalueClass.STRICTLY_COMPLEX, math.sqrt(0.5)),
        # frozen |Im sqrt(6 + 1.5i)| (mpmath, 40 digits)
        (6 + 1.5j, EigenvalueClass.STRICTLY_COMPLEX, 0.30385723492002854),
        (complex(2.0, 1e-13), EigenvalueClass.POSITIVE_REAL, 0.0),  # snapped
    ],
)
def test_classify_eigenvalue(lam, tag, rate):
    cls = classify_eigenvalue(lam)
    assert cls.tag is tag
    assert abs(cls.rate - rate) <= 1e-13


def test_growth_rate_formula_against_direct_sqrt():
    # rate = |Im sqrt(lam)| on the principal branch; the implementation
    # uses the half-angle form, so cross-check against cmath.
    import cmath

    for lam in (6 + 1.5j, -1 + 0.25j, 0.3 - 2j, -4 - 3j, 9 + 0.01j):
        direct = abs(cmath.sqrt(lam).imag)
        assert math.isclose(predicted_rate(lam), direct, rel_tol=1e-14)


def test_rate_continuity_near_positive_axis():
    # approaching the positive real axis the growth rate vanishes like
    # |b| / (2 sqrt(a)): no classification cliff in the rate value
    assert predicted_rate(complex(1.0, 1e-8)) <= 1e-4
    assert classify_eigenvalue(complex(1.0, 1e-8)).tag is EigenvalueClass.STRICTLY_COMPLEX


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=200, deadline=None)
def test_classification_partitions_the_plane(a, b):
    cls = classify_eigenvalue(complex(a, b))
    if abs(b) <= 1e-12:
        if abs(a) <= 1e-12:
            assert cls.tag is EigenvalueClass.ZERO
        elif a > 0:
            assert cls.tag is EigenvalueClass.POSITIVE_REAL
        else:
            assert cls.tag is EigenvalueClass.NEGATIVE_REAL
            assert math.isclose(cls.rate, math.sqrt(-a), rel_tol=1e-12)
    else:
        assert cls.tag is EigenvalueClass.STRICTLY_COMPLEX
        assert cls.rate > 0.0


# --------------------------------------------------------------------------
# matrix-level verdicts


def _verdict(matrix, t0=1.0):
    return classify_matrix(eigendecompose(matrix), t0=t0)


def test_verdict_stable_convergent():
    v = _verdict([[0.4, 0.2], [0.2, 0.8]])
    assert v.nagd is NagdVerdict.STABLE_CONVERGENT
    assert v.first_order is FirstOrderVerdict.EXPONENTIALLY_STABLE
    assert v.dominant_growth_rate == 0.0


def test_verdict_stable_to_nullspace():
    v = _verdict([[0.25, 0.25], [0.25, 0.25]])
    assert v.nagd is NagdVerdict.STABLE_TO_NULLSPACE
    assert v.first_order is FirstOrderVerdict.MARGINALLY_STABLE


def test_verdict_negative_real_escape():
    v = _verdict([[1.0, 0.0], [0.0, -0.5]])
    assert v.nagd is NagdVerdict.UNSTABLE_NEGATIVE_REAL
    assert v.first_order is FirstOrderVerdict.UNSTABLE
    assert math.isclose(v.dominant_growth_rate, math.sqrt(0.5), rel_tol=1e-14)
    assert v.bound_constant is None


def test_verdict_complex_disagreement():
    # the flagship case: the accelerated flow diverges while the
    # first-order flow converges
    v = _verdict([[6.0, 1.5], [-1.5, 6.0]])
    assert v.nagd is NagdVerdict.UNSTABLE_COMPLEX
    assert v.first_order is FirstOrderVerdict.EXPONENTIALLY_STABLE
    assert math.isclose(v.dominant_growth_rate, 0.30385723492002854, rel_tol=1e-13)


def test_verdict_pure_rotation():
    v = _verdict([[0.0, 1.0], [-1.0, 0.0]])
    assert v.nagd is NagdVerdict.UNSTABLE_COMPLEX
    assert v.first_order is FirstOrderVerdict.MARGINALLY_STABLE
    assert math.isclose(v.dominant_growth_rate, math.sqrt(0.5), rel_tol=1e-14)


def test_verdict_jordan_caveat():
    v = _verdict([[0.0, 0.0], [1.0, 0.0]])
    assert v.nagd is NagdVerdict.INDETERMINATE_JORDAN
    v = _verdict([[1.0, 0.0], [1.0, 1.0]])
    assert v.nagd is NagdVerdict.INDETERMINATE_JORDAN


def test_instability_wins_over_jordan():
    # defective but with an eigenvalue off the closed right half-axis:
    # the divergence verdict takes precedence over the Jordan caveat
    v = _verdict([[-1.0, 0.0], [1.0, -1.0]])
    assert v.nagd is NagdVerdict.UNSTABLE_NEGATIVE_REAL


def test_boundedness_constant_two_player():
    spec = eigendecompose([[0.4, 0.2], [0.2, 0.8]])
    v = classify_matrix(spec, t0=1.0)
    expect = 1.0 / math.sqrt(0.6 - 0.2 * SQRT2)  # 1/sqrt(lam_min) > t0/2
    assert math.isclose(v.bound_constant, expect, rel_tol=1e-12)
    # kappa(P) = 1 for a symmetric matrix, so the trajectory bound is
    # kappa * (|q0| + C |v0|)
    b = boundedness_bound(spec, t0=1.0, q0_norm=2.0, v0_norm=3.0)
    assert math.isclose(b, spec.kappa_P * (2.0 + expect * 3.0), rel_tol=1e-12)


def test_boundedness_constant_zero_matrix():
    v = _verdict(np.zeros((2, 2)), t0=4.0)
    assert v.nagd is NagdVerdict.STABLE_TO_NULLSPACE
    assert v.bound_constant == 2.0  # t0/2 dominates when no positive mode


def test_large_t0_dominates_constant():
    # with t0 = 10, t0/2 = 5 exceeds 1/sqrt(lam_min) ~ 1.776
    v = _verdict([[0.4, 0.2], [0.2, 0.8]], t0=10.0)
    assert v.bound_constant == 5.0


def test_matrix_tolerance_scales_with_norm():
    base = spectral.matrix_tolerance(np.eye(2))
    big = spectral.matrix_tolerance(1e6 * np.eye(2))
    assert math.isclose(big / base, 1e6, rel_tol=1e-12)
    tiny = spectral.matrix_tolerance(1e-30 * np.eye(2))
    assert tiny == base / math.sqrt(2.0)  # floor at norm 1
