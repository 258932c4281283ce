"""Eigenstructure and stability classification of the interaction matrix.

The accelerated flow

    x''(t) + (3/t) x'(t) + G x(t) = 0

decouples along the eigenvectors of ``G``, so everything the package
predicts about long-time behaviour is a function of the spectrum.  This
module computes that spectrum with LAPACK ``geev`` through
``np.linalg.eig``, classifies each eigenvalue into the four dynamically
distinct regions of the complex plane, and folds the per-eigenvalue
verdicts into a stability verdict for the matrix.

Eigenvalue classes and their mode-wise envelope rates:

=================  =============================  =======================
class              region                         envelope of |y(t)|
=================  =============================  =======================
PositiveReal       Re > tol, |Im| <= tol          t^{-3/2} (oscillatory)
Zero               |lam| <= tol                   constant (finite limit)
NegativeReal       Re < -tol, |Im| <= tol         exp(+sqrt(-Re) t)
StrictlyComplex    |Im| > tol                     exp(+beta t) t^{-3/2}
=================  =============================  =======================

with ``beta = sqrt((|lam| - Re lam)/2)``, the imaginary part of the
principal square root of ``lam``.  Classification snaps to the real axis
first, then to zero, so a value within tolerance of 0 in both parts is
reported as Zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EigensolverNoConvergence, NotApplicable

__all__ = [
    "ALGEBRAIC_DECAY_EXPONENT",
    "DEFAULT_SCALAR_TOL",
    "DIAGONALIZABLE_KAPPA_MAX",
    "EigenvalueClass",
    "ClassifiedEigenvalue",
    "Spectrum",
    "NagdVerdict",
    "FirstOrderVerdict",
    "StabilityVerdict",
    "matrix_tolerance",
    "eigendecompose",
    "classify_eigenvalue",
    "classify_eigenvalues",
    "predicted_rate",
    "classify_matrix",
    "boundedness_bound",
]

#: Envelope exponent of every stable oscillatory mode: |y| ~ t**(-3/2).
ALGEBRAIC_DECAY_EXPONENT = -1.5

#: Snap tolerance for classifying a bare scalar eigenvalue.
DEFAULT_SCALAR_TOL = 1e-12

#: Conditioning threshold beyond which the eigenbasis is not trusted.
DIAGONALIZABLE_KAPPA_MAX = 1e8

#: Residual threshold for the left/right biorthogonality check.
BIORTHOGONALITY_MAX = 1e-6

def matrix_tolerance(matrix: np.ndarray) -> float:
    """Classification tolerance scaled to the matrix: 1e-9 * max(1, ||G||_F)."""
    return 1e-9 * max(1.0, float(np.linalg.norm(matrix)))


# --------------------------------------------------------------------------
# result types


class EigenvalueClass(Enum):
    POSITIVE_REAL = "PositiveReal"
    ZERO = "Zero"
    NEGATIVE_REAL = "NegativeReal"
    STRICTLY_COMPLEX = "StrictlyComplex"


#: Class names in ``EigenvalueClass`` order, so that :func:`classify_eigenvalues`
#: can index them with codes 0 (PositiveReal) to 3 (StrictlyComplex).
_CLASS_NAMES = np.array([c.value for c in EigenvalueClass], dtype=object)

#: ``math.hypot`` over arrays, as the scalar classifier computes |lam|;
#: ``np.hypot`` can differ from it in the last bit.
_math_hypot = np.frompyfunc(math.hypot, 2, 1)


@dataclass(frozen=True)
class ClassifiedEigenvalue:
    """One eigenvalue, its class tag, and its predicted envelope rate.

    ``rate`` is the exponential growth rate of the mode envelope: 0.0 for
    PositiveReal and Zero classes (decay there is algebraic, see
    ``ALGEBRAIC_DECAY_EXPONENT``), sqrt(-Re lam) for NegativeReal and
    beta(lam) for StrictlyComplex.
    """

    tag: EigenvalueClass
    value: complex
    rate: float


class NagdVerdict(Enum):
    STABLE_CONVERGENT = "StableConvergent"
    STABLE_TO_NULLSPACE = "StableToNullSpace"
    UNSTABLE_NEGATIVE_REAL = "UnstableNegativeReal"
    UNSTABLE_COMPLEX = "UnstableComplex"
    INDETERMINATE_JORDAN = "IndeterminateJordan"


class FirstOrderVerdict(Enum):
    EXPONENTIALLY_STABLE = "ExponentiallyStable"
    MARGINALLY_STABLE = "MarginallyStable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a real square matrix.

    ``right_vectors`` holds unit right eigenvectors as columns (P), and
    ``left_vectors`` holds rows ``w_i`` normalized so that
    ``w_i^* v_j = delta_ij`` and ``w_i^* G = lam_i w_i^*``.  Eigenvalues
    are sorted by (real, imag) and, for real input, exactly closed under
    conjugation.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    kappa_P: float
    biorthogonality_residual: float
    is_symmetric: bool
    is_normal: bool
    is_diagonalizable: bool
    tol: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class StabilityVerdict:
    """Joint verdict for the accelerated flow and the first-order flow.

    ``bound_constant`` is the constant C = max(t0/2, min_i lam_i^{-1/2})
    (minimum over strictly positive eigenvalues, t0/2 alone when there are
    none) entering the trajectory bound; it is None when the accelerated
    verdict is unstable or indeterminate.  ``dominant_growth_rate`` is the
    largest per-mode envelope rate, 0.0 for stable verdicts, and the
    offending eigenvalue is recorded in ``dominant_eigenvalue``.
    """

    nagd: NagdVerdict
    first_order: FirstOrderVerdict
    per_eigenvalue: tuple[ClassifiedEigenvalue, ...]
    dominant_growth_rate: float
    dominant_eigenvalue: complex | None
    bound_constant: float | None
    kappa_P: float
    t0: float


# --------------------------------------------------------------------------
# scalar classification


def classify_eigenvalue(lam: complex, tol: float = DEFAULT_SCALAR_TOL) -> ClassifiedEigenvalue:
    """Classify one eigenvalue and attach its predicted envelope rate.

    Snapping order: values with |Im| <= tol are treated as real, then
    reals with |Re| <= tol as zero.  This makes the corner case with both
    parts just inside tolerance deterministically Zero.
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValueError("eigenvalue must be finite")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    if abs(lam.imag) <= tol:
        re = lam.real
        if abs(re) <= tol:
            return ClassifiedEigenvalue(EigenvalueClass.ZERO, lam, 0.0)
        if re > 0.0:
            return ClassifiedEigenvalue(EigenvalueClass.POSITIVE_REAL, lam, 0.0)
        return ClassifiedEigenvalue(EigenvalueClass.NEGATIVE_REAL, lam, math.sqrt(-re))
    a, b = lam.real, lam.imag
    # beta = |Im sqrt(lam)|.  For a >= 0 the half-angle form
    # sqrt((hypot - a)/2) cancels, so use |b| / (2 Re sqrt(lam)) there;
    # for a < 0 hypot - a adds magnitudes and is safe directly.
    h = math.hypot(a, b)
    if a >= 0.0:
        beta = abs(b) / (2.0 * math.sqrt(0.5 * (h + a)))
    else:
        beta = math.sqrt(0.5 * (h - a))
    return ClassifiedEigenvalue(EigenvalueClass.STRICTLY_COMPLEX, lam, beta)


def classify_eigenvalues(re, im, tol: float = DEFAULT_SCALAR_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`classify_eigenvalue` for the points re + i im.

    Returns ``(tags, rates)``: the class names (``EigenvalueClass``
    values) as an object array of str, and the rates.  Both equal, bit for
    bit, what :func:`classify_eigenvalue` gives point by point.
    """
    a = np.asarray(re, dtype=float)
    b = np.asarray(im, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("eigenvalue must be finite")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    real = np.abs(b) <= tol
    zero = real & (np.abs(a) <= tol)
    negative = real & ~zero & (a < 0.0)
    cplx = ~real
    codes = np.select([zero, negative, cplx], [1, 2, 3], 0)
    rates = np.zeros(a.shape)
    rates[negative] = np.sqrt(-a[negative])
    ac, bc = a[cplx], b[cplx]
    right = ac >= 0.0
    with np.errstate(over="ignore"):  # |lam| and h + a may overflow to inf, as in floats
        h = _math_hypot(ac, bc).astype(float)
        beta = np.sqrt(0.5 * (h - ac))
        beta[right] = np.abs(bc[right]) / (2.0 * np.sqrt(0.5 * (h[right] + ac[right])))
    rates[cplx] = beta
    return _CLASS_NAMES[codes], rates


def predicted_rate(lam: complex, tol: float = DEFAULT_SCALAR_TOL) -> float:
    """Exponential envelope growth rate of the mode for eigenvalue ``lam``."""
    return classify_eigenvalue(lam, tol).rate


# --------------------------------------------------------------------------
# eigendecomposition


def _phase_normalize(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    n = vecs.shape[1]
    piv = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    return vecs / (piv / np.abs(piv))


def eigendecompose(matrix: np.ndarray, tol: float | None = None) -> Spectrum:
    """Full eigendecomposition of a real square matrix by LAPACK ``geev``.

    Raises ``ValueError`` when the matrix is not square, not finite, or
    its Frobenius norm overflows, and
    :class:`~nagdyn.errors.EigensolverNoConvergence` when LAPACK ``geev``
    does not converge.
    """
    g = np.asarray(matrix, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] == 0:
        raise ValueError("matrix must be square and nonempty")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix must be finite")
    with np.errstate(over="ignore"):
        normg = float(np.linalg.norm(g))
    if not math.isfinite(normg):
        raise ValueError("matrix norm overflows; rescale the matrix")
    n = g.shape[0]
    if tol is None:
        tol = matrix_tolerance(g)
    is_sym = float(np.linalg.norm(g - g.T)) <= tol

    try:
        vals, vecs = np.linalg.eig(g)
    except np.linalg.LinAlgError as exc:
        raise EigensolverNoConvergence(f"LAPACK geev did not converge: {exc}") from exc
    # geev returns the complex eigenvalues of real input as exact
    # conjugate pairs, so sorting keeps the spectrum closed under conjugation
    if is_sym:
        # a symmetric real matrix has a real spectrum; drop the rounding
        # dust left in the imaginary parts
        vals = vals.real
    vals = vals.astype(complex)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = _phase_normalize(vecs[:, order].astype(complex))

    try:
        winv = np.linalg.solve(vecs, np.eye(n, dtype=complex))
    except np.linalg.LinAlgError:
        winv = np.linalg.pinv(vecs)
    sv = np.linalg.svd(vecs, compute_uv=False)
    kappa = math.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    biorth = float(np.max(np.abs(winv @ vecs - np.eye(n))))
    left = np.conj(winv)

    is_normal = float(np.linalg.norm(g @ g.T - g.T @ g)) <= tol * max(normg, 1.0)
    is_diag = kappa <= DIAGONALIZABLE_KAPPA_MAX and biorth <= BIORTHOGONALITY_MAX

    for arr in (vals, vecs, left):
        arr.setflags(write=False)
    return Spectrum(
        eigenvalues=vals,
        right_vectors=vecs,
        left_vectors=left,
        kappa_P=kappa,
        biorthogonality_residual=biorth,
        is_symmetric=bool(is_sym),
        is_normal=bool(is_normal),
        is_diagonalizable=bool(is_diag),
        tol=float(tol),
    )


# --------------------------------------------------------------------------
# matrix-level verdicts


def classify_matrix(spectrum: Spectrum, t0: float = 1.0) -> StabilityVerdict:
    """Fold per-eigenvalue classes into a stability verdict.

    Instability wins regardless of conditioning; the Jordan caveat only
    applies when every eigenvalue sits in the closed right half-axis, where
    the modal argument needs a genuine eigenbasis.
    """
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    classes = tuple(classify_eigenvalue(l, spectrum.tol) for l in spectrum.eigenvalues)
    unstable = [c for c in classes if c.tag in (EigenvalueClass.NEGATIVE_REAL, EigenvalueClass.STRICTLY_COMPLEX)]
    bound_c: float | None = None
    dominant: complex | None = None
    if unstable:
        dom = max(unstable, key=lambda c: c.rate)
        verdict = (
            NagdVerdict.UNSTABLE_NEGATIVE_REAL
            if dom.tag is EigenvalueClass.NEGATIVE_REAL
            else NagdVerdict.UNSTABLE_COMPLEX
        )
        growth = dom.rate
        dominant = dom.value
    elif not spectrum.is_diagonalizable:
        verdict = NagdVerdict.INDETERMINATE_JORDAN
        growth = 0.0
    else:
        zeros = [c for c in classes if c.tag is EigenvalueClass.ZERO]
        pos = [c.value.real for c in classes if c.tag is EigenvalueClass.POSITIVE_REAL]
        verdict = NagdVerdict.STABLE_TO_NULLSPACE if zeros else NagdVerdict.STABLE_CONVERGENT
        growth = 0.0
        bound_c = max(t0 / 2.0, min(pos) ** -0.5) if pos else t0 / 2.0

    re = spectrum.eigenvalues.real
    if np.all(re > spectrum.tol):
        first = FirstOrderVerdict.EXPONENTIALLY_STABLE
    elif np.all(re >= -spectrum.tol):
        first = FirstOrderVerdict.MARGINALLY_STABLE
    else:
        first = FirstOrderVerdict.UNSTABLE

    return StabilityVerdict(
        nagd=verdict,
        first_order=first,
        per_eigenvalue=classes,
        dominant_growth_rate=growth,
        dominant_eigenvalue=dominant,
        bound_constant=bound_c,
        kappa_P=spectrum.kappa_P,
        t0=float(t0),
    )


def boundedness_bound(spectrum: Spectrum, t0: float, q0_norm: float, v0_norm: float) -> float:
    """A-priori sup-norm bound kappa(P) (||q0|| + C ||v0||) on ||q(t) - q*||.

    Mode-wise the energy E = lam |y|^2 / 2 + |y'|^2 / 2 is nonincreasing,
    which gives sup |y| <= |y0| + lam^{-1/2} |y0'| for lam > 0 and the exact
    t0/2 coefficient for lam = 0; conjugating by the eigenbasis costs a
    factor kappa(P).  Raises :class:`~nagdyn.errors.NotApplicable` for
    unstable or indeterminate spectra.
    """
    if q0_norm < 0.0 or v0_norm < 0.0:
        raise ValueError("norms must be nonnegative")
    verdict = classify_matrix(spectrum, t0)
    if verdict.bound_constant is None:
        raise NotApplicable(f"no boundedness guarantee for verdict {verdict.nagd.value}")
    return spectrum.kappa_P * (q0_norm + verdict.bound_constant * v0_norm)
