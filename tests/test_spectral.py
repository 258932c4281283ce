"""Eigensolver, eigenvalue classification, and stability verdicts.

numpy.linalg serves as the reference oracle for spectra, small matrices
are checked against closed-form eigenvalues, and larger ones against the
designed spectra of seeded P D P^-1 similarity transforms.
"""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from nagdyn import experiments, spectral
from nagdyn.errors import EigensolverNoConvergence, NotApplicable
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
    assert spec.is_symmetric and spec.is_diagonalizable
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
    assert not spec.is_symmetric
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


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: spectral.classify_eigenvalues(np.ones(2), np.zeros(2), tol=-1e-9), ValueError, "tol must be nonnegative"),
        (lambda: eigendecompose(np.ones((2, 3))), ValueError, "square and nonempty"),
        (lambda: eigendecompose(np.zeros((0, 0))), ValueError, "square and nonempty"),
        (lambda: eigendecompose([[1.0, math.nan], [0.0, 1.0]]), ValueError, "matrix must be finite"),
        (lambda: classify_matrix(eigendecompose(np.eye(2)), t0=0.0), ValueError, "t0 must be positive"),
        (lambda: boundedness_bound(eigendecompose(np.eye(2)), 1.0, -1.0, 0.0), ValueError, "norms must be nonnegative"),
        (
            lambda: boundedness_bound(eigendecompose(np.diag([1.0, -0.5])), 1.0, 1.0, 0.0),
            NotApplicable,
            "no boundedness guarantee for verdict UnstableNegative",
        ),
    ],
    ids=["negative_tol", "not_square", "empty", "not_finite", "t0", "negative_norm", "unstable"],
)
def test_named_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


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
    for lam in (6 + 1.5j, -1 + 0.25j, 0.3 - 2j, -4 - 3j, 9 + 0.01j):
        direct = abs(cmath.sqrt(lam).imag)
        assert math.isclose(classify_eigenvalue(lam).rate, direct, rel_tol=1e-14)


def test_rate_continuity_near_positive_axis():
    # approaching the positive real axis the growth rate vanishes like
    # |b| / (2 sqrt(a)): no classification cliff in the rate value
    assert classify_eigenvalue(complex(1.0, 1e-8)).rate <= 1e-4
    assert classify_eigenvalue(complex(1.0, 1e-8)).tag is EigenvalueClass.STRICTLY_COMPLEX


def _partition(a, b, tol=1e-12):
    """The four regions, written out: snap to the real axis, then to zero."""
    if abs(b) > tol:
        return EigenvalueClass.STRICTLY_COMPLEX
    if abs(a) <= tol:
        return EigenvalueClass.ZERO
    return EigenvalueClass.POSITIVE_REAL if a > 0 else EigenvalueClass.NEGATIVE_REAL


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=200, deadline=None)
def test_classification_partitions_the_plane(a, b):
    cls = classify_eigenvalue(complex(a, b))
    assert cls.tag is _partition(a, b)
    if cls.tag is EigenvalueClass.NEGATIVE_REAL:
        assert math.isclose(cls.rate, math.sqrt(-a), rel_tol=1e-12)
    elif cls.tag is EigenvalueClass.STRICTLY_COMPLEX:
        assert cls.rate > 0.0


def test_array_classification_matches_the_partition_rule_and_cmath():
    # tolerance edges on both axes, both half-planes, extreme magnitudes
    # (where |lam| + |Re lam| overflows), and a seeded cloud
    edges = [0.0, -0.0, 1e-12, -1e-12, 1.0000000000000002e-12, -1.0000000000000002e-12, 5e-13, 1e-8]
    big = [1e300, -1e300, 1.7e308, -1.7e308, 3.0, -3.0]
    rng = np.random.default_rng(11)
    re = np.concatenate([np.repeat(edges + big, len(edges + big)), rng.normal(size=4000) * 7.0])
    im = np.concatenate([np.tile(edges + big, len(edges + big)), rng.normal(size=4000) * 7.0])
    codes, rates = spectral.classify_eigenvalues(re, im)
    assert codes.shape == rates.shape == re.shape
    for a, b, code, rate in zip(re.tolist(), im.tolist(), codes.tolist(), rates.tolist()):
        want = _partition(a, b)
        assert spectral.CLASS_NAMES[code] == want.value, (a, b)
        if want is EigenvalueClass.STRICTLY_COMPLEX:
            beta = abs(cmath.sqrt(complex(a, b)).imag)
            assert abs(rate - beta) <= 1e-15 * beta, (a, b)
        elif want is EigenvalueClass.NEGATIVE_REAL:
            assert rate == math.sqrt(-a), (a, b)
        else:
            assert rate == 0.0, (a, b)
    with pytest.raises(ValueError):
        spectral.classify_eigenvalues([1.0, math.nan], [0.0, 0.0])


def test_class_table_is_in_code_order():
    # each class once, and class code k names CLASSES[k]
    assert sorted(spectral.CLASSES, key=list(EigenvalueClass).index) == list(EigenvalueClass)
    assert all(spectral.CLASS_NAMES[k] == c.value for k, c in enumerate(spectral.CLASSES))
    points = {EigenvalueClass.POSITIVE_REAL: 2.0, EigenvalueClass.ZERO: 0.0, EigenvalueClass.NEGATIVE_REAL: -2.0,
              EigenvalueClass.STRICTLY_COMPLEX: 1.0 + 1.0j}
    lam = np.array(list(points.values()), dtype=complex)
    codes, rates = spectral.classify_eigenvalues(lam.real, lam.imag)
    assert [spectral.CLASSES[k] for k in codes] == list(points)
    assert predicted_rate(codes, rates).tolist() == [-1.5, 0.0, SQRT2, rates[3]]
    # the envelope model at damping r/t: t^{-r/2}, and the fit recipe of each class
    for r, power in ((2.0, -1.0), (3.0, -1.5), (5.0, -2.5)):
        assert predicted_rate(codes, rates, r).tolist() == [power, 0.0, SQRT2, rates[3]]
        assert [spectral.fit_recipe(c, r) for c in spectral.CLASSES] == [
            {"kind": "algebraic", "envelope": True},
            {"kind": "algebraic", "envelope": False},
            {"kind": "exponential", "detrend_log_power": power},
            {"kind": "exponential", "detrend_log_power": power},
        ]


CPYTHON_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the port holds the bits of CPython 3.11's math.hypot; CPython 3.12 computes dl_mul with fma",
)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@CPYTHON_311
def test_hypot_port_matches_math_hypot_bit_for_bit():
    rng = np.random.default_rng(19)
    n = 10**6
    # signed pairs spanning +-300 decades, and pairs of near magnitude,
    # where the differential correction decides the last bit
    a = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    b = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    c = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.integers(-300, 300, n)
    d = -c * rng.uniform(0.5, 2.0, n)
    # zeros, subnormals, maxima below 2**-1024 (CPython's DBL_MIN branch)
    # and at its edge, the least normal, and values near overflow
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0**-1030, np.nextafter(2.0**-1024, 0.0), 2.0**-1024,
             2.0**-1023, np.finfo(float).tiny, 1.7e308, -1.7e308, np.finfo(float).max, 1.0, 3.0, 4.0]
    x = np.concatenate([a, c, np.repeat(edges, len(edges))])
    y = np.concatenate([b, d, np.tile(edges, len(edges))])
    with np.errstate(over="ignore"):  # hypot(1.7e308, 1.7e308) is inf, as math.hypot gives it
        got = spectral._hypot(x, y)
    want = np.array(list(map(math.hypot, x.tolist(), y.tolist())))
    assert np.array_equal(_bits(got), _bits(want))


def _plain_classify_codes(re, im, tol):
    """The classification formula on the whole grid, with ``math.hypot`` one point at a time."""
    a = np.asarray(re, dtype=float)
    b = np.asarray(im, dtype=float)
    real = np.abs(b) <= tol
    negative = real & (a < -tol)
    codes = np.where(real, np.where(negative, 2, np.where(np.abs(a) <= tol, 1, 0)), 3)
    rates = np.sqrt(-a, out=np.zeros(a.shape), where=negative)
    cplx = ~real
    a8, bc = a[cplx] / 8.0, b[cplx]
    root = np.sqrt(np.frompyfunc(math.hypot, 2, 1)(a8, bc / 8.0).astype(float) + np.abs(a8))
    rates[cplx] = np.where(a8 >= 0.0, np.abs(bc) / (4.0 * root), 2.0 * root)
    return codes, rates


def _grid(spec):
    re_axis, im_axis = experiments.parse_grid(spec) if isinstance(spec, str) else spec
    return np.repeat(re_axis, im_axis.shape[0]), np.tile(im_axis, re_axis.shape[0])


@CPYTHON_311
@pytest.mark.parametrize("tol", [spectral.DEFAULT_SCALAR_TOL, 0.0])
@pytest.mark.parametrize(
    "spec",
    [
        "-1e-3:1e-3:9,-1e17:1e17:9",
        "5e-324:1e-323:3,0:0:1",
        (np.linspace(-1.0, 1.0, 9) * 1e308,) * 2,
        "-3.0:5.0:513,-2.0:6.0:257",  # the size of the benchmark's classify-only grid
        # below 2**-500, where the rate is computed on 4**300 lam, but with
        # no subnormal part, where that scaling changes no bit
        (np.array([3e-200, -2e-300, -np.nextafter(2.0**-500, 0.0)]), np.array([7e-201, -1e-300, 2.0**-501])),
    ],
    ids=["tolerance-edges", "subnormal", "1e308", "513x257", "tiny"],
)
def test_blocked_classification_keeps_the_bits_of_the_plain_formula(spec, tol):
    re, im = _grid(spec)
    codes, rates = spectral.classify_eigenvalues(re, im, tol)
    want_codes, want_rates = _plain_classify_codes(re, im, tol)
    assert codes.dtype == want_codes.dtype and np.array_equal(codes, want_codes)
    assert np.array_equal(_bits(rates), _bits(want_rates))


#: Complex eigenvalues with a subnormal part, in all four quadrants, and
#: tiny ones on both sides of the 2**-500 threshold of the scaled formula.
TINY_LAMS = [5e-324j, -5e-324j, 1e-320 + 3e-321j, -1e-320 + 3e-321j, 3e-321 - 1e-320j, -3e-321 - 1e-320j,
             2e-310 + 1e-310j, 1e-300 + 5e-324j, -1e-300 + 5e-324j, 3e-200 + 7e-201j,
             complex(2.0**-500, -(2.0**-501)), complex(-np.nextafter(2.0**-500, 0.0), 2.0**-501)]


def test_rates_of_subnormal_eigenvalues():
    # lam/8 is not exact for a subnormal part; the rate must still be
    # |Im sqrt(lam)|, with no division by zero
    lam = np.array(TINY_LAMS)
    with np.errstate(all="raise"):
        codes, rates = spectral.classify_eigenvalues(lam.real, lam.imag, 0.0)
    assert all(spectral.CLASSES[k] is EigenvalueClass.STRICTLY_COMPLEX for k in codes)
    for z, rate in zip(TINY_LAMS, rates.tolist()):
        beta = abs(cmath.sqrt(z).imag)
        assert abs(rate - beta) <= 1e-15 * beta, z
    assert classify_eigenvalue(5e-324j, tol=0.0).rate == abs(cmath.sqrt(5e-324j).imag)


def test_a_point_keeps_its_bits_whatever_the_input_size(monkeypatch):
    # every size takes the array port: with math.hypot unusable, one point
    # and a 9 x 5 grid read the bits those points read inside 513 x 257
    re, im = _grid("-3.0:5.0:513,-2.0:6.0:257")
    codes, rates = spectral.classify_eigenvalues(re, im)
    big = dict(zip(zip(re.tolist(), im.tolist()), zip(codes.tolist(), _bits(rates).tolist())))
    monkeypatch.delattr(math, "hypot")
    re, im = _grid("-2:2:9,-1:1:5")
    codes, rates = spectral.classify_eigenvalues(re, im)
    assert list(zip(codes.tolist(), _bits(rates).tolist())) == [big[p] for p in zip(re.tolist(), im.tolist())]
    one = classify_eigenvalue(3 + 4j)
    assert (spectral.CLASSES.index(one.tag), int(_bits(one.rate))) == big[(3.0, 4.0)]


def test_classification_blocks_and_shapes(monkeypatch):
    # a grid over several blocks, a short last block, and 0-d and 2-D input
    monkeypatch.setattr(spectral, "_BLOCK", 7)
    re, im = _grid("-2:2:9,-1:1:5")
    codes, rates = spectral.classify_eigenvalues(re, im)
    whole = [classify_eigenvalue(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())]
    assert [spectral.CLASSES[k] for k in codes] == [c.tag for c in whole]
    assert rates.tolist() == [c.rate for c in whole]
    square_codes, square_rates = spectral.classify_eigenvalues(re.reshape(9, 5), im.reshape(9, 5))
    assert np.array_equal(square_codes, codes.reshape(9, 5)) and np.array_equal(square_rates, rates.reshape(9, 5))
    one_code, one_rate = spectral.classify_eigenvalues(-4.0, 0.0)
    assert one_code.shape == one_rate.shape == () and one_code == 2 and one_rate == 2.0
    with pytest.raises(ValueError, match="finite"):
        spectral.classify_eigenvalues(re.tolist() + [math.inf], im.tolist() + [0.0])
    with pytest.raises(ValueError, match="shape"):
        spectral.classify_eigenvalues([1.0, 2.0], [0.0])


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
