"""Eigenstructure and stability classification of the interaction matrix.

The accelerated flow

    x''(t) + (r/t) x'(t) + G x(t) = 0

decouples along the eigenvectors of ``G``, so everything the package
predicts about long-time behaviour is a function of the spectrum.  This
module computes that spectrum with LAPACK ``geev`` through
``np.linalg.eig``, classifies each eigenvalue into the four dynamically
distinct regions of the complex plane, and folds the per-eigenvalue
verdicts into a stability verdict for the matrix.

Eigenvalue classes, in the order of their codes (``CLASSES``), and their
mode-wise envelope rates:

====  =================  =============================  ===========================
code  class              region                         envelope of |y(t)|
====  =================  =============================  ===========================
0     PositiveReal       Re > tol, |Im| <= tol          t^{-r/2} (oscillatory)
1     Zero               |lam| <= tol                   constant (finite limit)
2     NegativeReal       Re < -tol, |Im| <= tol         exp(+sqrt(-Re) t) t^{-r/2}
3     StrictlyComplex    |Im| > tol                     exp(+beta t) t^{-r/2}
====  =================  =============================  ===========================

with ``beta = sqrt((|lam| - Re lam)/2)``, the imaginary part of the principal
square root of ``lam``, for y'' + (r/t) y' + lam y = 0 (Su, Boyd & Candes, JMLR
17 (2016), sec. 4).  Classification snaps to the real axis first, then to
zero, so a value within tolerance of 0 in both parts is reported as Zero.

``|lam|`` comes from ``_hypot``, an array port of the two-argument
``math.hypot`` of CPython 3.11 (``vector_norm`` in
``Modules/mathmodule.c``: Veltkamp-Dekker squaring, compensated summation
and the differential square-root correction of Borges, "An Improved
Algorithm for hypot(a,b)", arXiv:1904.09481).  The port fixes the bits of
CPython 3.11's ``math.hypot``, not those of whichever interpreter runs
it; CPython 3.12 squares with fma and can differ in the last bit.
Inputs of every size take the port, so a point's bits do not depend on
the size of the input it comes in.  Points are classified ``_BLOCK`` at a
time, so no temporary is the size of a large grid.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EigensolverNoConvergence, NotApplicable

__all__ = [
    "DEFAULT_SCALAR_TOL",
    "DIAGONALIZABLE_KAPPA_MAX",
    "EigenvalueClass",
    "CLASSES",
    "CLASS_NAMES",
    "ClassifiedEigenvalue",
    "Spectrum",
    "NagdVerdict",
    "FirstOrderVerdict",
    "StabilityVerdict",
    "matrix_tolerance",
    "eigendecompose",
    "classify_eigenvalue",
    "classify_eigenvalues",
    "envelope_power",
    "predicted_rate",
    "fit_recipe",
    "nullspace_limit",
    "classify_matrix",
    "boundedness_bound",
]

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


#: The classes in code order: the class code k of :func:`classify_eigenvalues`,
#: 0 (PositiveReal) to 3 (StrictlyComplex), is ``CLASSES[k]``.
CLASSES = tuple(EigenvalueClass)

#: The name of each class, in code order.
CLASS_NAMES = tuple(c.value for c in CLASSES)


@dataclass(frozen=True)
class ClassifiedEigenvalue:
    """One eigenvalue, its class tag, and its envelope growth rate.

    ``rate`` is the exponential growth rate of the mode envelope: 0.0 for
    PositiveReal and Zero classes (decay there is algebraic, see
    :func:`predicted_rate`), sqrt(-Re lam) for NegativeReal and
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
    is_diagonalizable: bool
    tol: float


@dataclass(frozen=True)
class StabilityVerdict:
    """Joint verdict for the accelerated flow and the first-order flow.

    ``bound_constant`` is the constant C = max(t0/(r-1), min_i lam_i^{-1/2})
    (minimum over strictly positive eigenvalues, t0/(r-1) alone when there
    are none) entering the trajectory bound; it is None when the accelerated
    verdict is unstable or indeterminate, or at r <= 1.  ``dominant_growth_rate``
    is the largest per-mode envelope rate, 0.0 for stable verdicts.
    """

    nagd: NagdVerdict
    first_order: FirstOrderVerdict
    per_eigenvalue: tuple[ClassifiedEigenvalue, ...]
    dominant_growth_rate: float
    bound_constant: float | None


# --------------------------------------------------------------------------
# eigenvalue classification


def classify_eigenvalue(lam: complex, tol: float = DEFAULT_SCALAR_TOL) -> ClassifiedEigenvalue:
    """Classify one eigenvalue and attach its envelope growth rate.

    A one-point view of :func:`classify_eigenvalues`, which holds the rule.
    """
    lam = complex(lam)
    codes, rates = classify_eigenvalues([lam.real], [lam.imag], tol)
    return ClassifiedEigenvalue(CLASSES[codes[0]], lam, float(rates[0]))


#: Points classified at a time by :func:`classify_eigenvalues`.  Its
#: temporaries, a few dozen arrays of a block, then stay within a 2 MiB L2
#: cache, and none is the size of the grid: on the 513 x 257 grid of the
#: benchmark, on a 2-vCPU Xeon, blocks of 8192 points took 9.4 ms, of 4096
#: 10.4 ms and of 32768 15.8 ms.
_BLOCK = 8192

#: A complex eigenvalue whose larger part is below ``_TINY`` has its rate
#: computed on 4**300 lam, where lam/8 is exact, and scaled back by 2**-300.
_TINY = 2.0**-500

#: Veltkamp's splitting constant 2**27 + 1.
_VELTKAMP = 134217729.0


def _dl_square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x * x`` as an exact unevaluated sum ``hi + lo``: CPython 3.11's ``dl_mul(x, x)``.

    Dekker's mul12 on the Veltkamp split of ``x``, without fma.
    """
    t = x * _VELTKAMP
    hi = t - (t - x)
    lo = x - hi
    p = hi * hi
    q = hi * lo + lo * hi
    z = p + q
    return z, p - z + q + lo * lo


def _hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``math.hypot(a, b)`` of CPython 3.11, elementwise, for finite float arrays of one shape.

    ``vector_norm`` of ``Modules/mathmodule.c`` for two coordinates, step
    for step: scale by the power of two that brings the larger into
    [0.5, 1), square each exactly, add the squares to ``csum`` (started at
    1.0) with their errors kept in ``frac1`` and ``frac2``, take the root,
    and correct it once by h + x / (2h), x the residual of the sum minus
    h*h (Borges, arXiv:1904.09481).
    """
    a = np.abs(a)
    b = np.abs(b)
    e = np.frexp(np.maximum(a, b))[1]  # max * 2**-e lies in [0.5, 1)
    # ldexp scales by 2**-e exactly even where 2**-e is no double, so the
    # max < 2**-1024 branch of CPython, which first divides by DBL_MIN and
    # multiplies the result by it, gives the same scaled values and the same
    # rounding of h * 2**e as the common path
    down = -e
    csum, frac1, frac2 = np.ones(a.shape), np.zeros(a.shape), np.zeros(a.shape)
    for x in (a, b):
        hi, lo = _dl_square(np.ldexp(x, down))
        total = csum + hi  # dl_fast_sum(csum, hi)
        frac2 += (csum - total) + hi
        frac1 += lo
        csum = total
    h = np.sqrt(csum - 1.0 + (frac1 + frac2))
    hi, lo = _dl_square(h)  # dl_mul(-h, h) is exactly (-hi, -lo)
    total = csum - hi
    frac2 += (csum - total) - hi
    frac1 -= lo
    x = total - 1.0 + (frac1 + frac2)
    # h is 0 only for a zero max, whose hypot is 0
    h += np.divide(x, 2.0 * h, out=np.zeros(a.shape), where=h != 0.0)
    return np.ldexp(h, e)


def classify_eigenvalues(re, im, tol: float = DEFAULT_SCALAR_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Classify the points re + i im and compute their envelope rates.

    Returns ``(codes, rates)``: each class as its code, its index in
    ``CLASSES`` (its name is ``CLASS_NAMES[code]``), and the rates.
    Snapping order: values with |Im| <= tol are treated as real, then
    reals with |Re| <= tol as zero, so the corner case with both parts
    just inside tolerance is deterministically Zero.
    """
    a = np.asarray(re, dtype=float)
    b = np.asarray(im, dtype=float)
    if a.shape != b.shape:
        raise ValueError("re and im must have the same shape")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    codes = np.empty(a.shape, dtype=int)
    rates = np.zeros(a.shape)
    flat = [x.reshape(-1) for x in (a, b, codes, rates)]
    for lo in range(0, a.size, _BLOCK):
        _classify_block(*(x[lo : lo + _BLOCK] for x in flat), tol)
    return codes, rates


def _classify_block(a, b, codes, rates, tol) -> None:
    """Write the class codes and rates of the points a + ib into ``codes`` and zero-filled ``rates``."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("eigenvalue must be finite")
    real = np.abs(b) <= tol
    negative = real & (a < -tol)
    codes[...] = np.where(real, np.where(negative, 2, np.where(np.abs(a) <= tol, 1, 0)), 3)
    np.sqrt(-a, out=rates, where=negative)
    # beta = |Im sqrt(lam)| with h = |lam|: |b| / (2 sqrt((h + a)/2)) for
    # a >= 0, where sqrt((h - a)/2) would cancel, and sqrt((h - a)/2) for
    # a < 0.  They are evaluated on lam/8, an exact scaling, so that h + |a|
    # cannot overflow: with root = sqrt(|lam/8| + |a/8|) they are
    # |b| / (4 root) and 2 root.  lam/8 is not exact where a part is
    # subnormal, so a lam whose larger part is below _TINY is scaled by
    # 4**300 first and its rate by 2**-300 after: hypot, sqrt and the
    # quotient commute with these exact scalings while no value is
    # subnormal, so a lam that needs neither gets the same bits from them.
    cplx = ~real
    ac, bc = a[cplx], b[cplx]  # copies
    tiny = np.maximum(np.abs(ac), np.abs(bc)) < _TINY
    scaled = tiny.any()
    if scaled:
        ac[tiny] *= 4.0**300
        bc[tiny] *= 4.0**300
    a8 = ac / 8.0
    root = np.sqrt(_hypot(a8, bc / 8.0) + np.abs(a8))
    beta = np.where(a8 >= 0.0, np.abs(bc) / (4.0 * root), 2.0 * root)
    if scaled:
        beta[tiny] *= 2.0**-300
    rates[cplx] = beta


def envelope_power(r: float = 3.0) -> float:
    """The power -r/2 of the algebraic factor of every envelope but a Zero mode's, at damping r/t."""
    return -0.5 * r


def predicted_rate(codes, rates, r: float = 3.0) -> np.ndarray:
    """The envelope rate predicted for modes of class codes ``codes`` and growth rates ``rates``.

    The growth rate where it is positive (the slope of log |y| against t),
    0 for Zero (the mode tends to a finite limit) and
    :func:`envelope_power` of ``r`` otherwise (the slope of log |y| against
    log t).  ``codes`` and ``rates`` are as :func:`classify_eigenvalues` returns
    them, or scalars, which give a 0-d array.
    """
    zero = codes == CLASSES.index(EigenvalueClass.ZERO)
    return np.where(rates > 0.0, rates, np.where(zero, 0.0, envelope_power(r)))


def fit_recipe(tag: EigenvalueClass, r: float = 3.0) -> dict:
    """``analysis.fit_rate`` keywords for the envelope (module table) of a ``tag`` mode, on maxima if it oscillates."""
    if tag in (EigenvalueClass.NEGATIVE_REAL, EigenvalueClass.STRICTLY_COMPLEX):
        return {"kind": "exponential", "detrend_log_power": envelope_power(r)}
    return {"kind": "algebraic", "envelope": tag is EigenvalueClass.POSITIVE_REAL}


def nullspace_limit(t0: float, y0: float, ydot0: float, r: float = 3.0) -> float:
    """Finite limit y0 + t0 ydot0 / (r - 1) of a zero-eigenvalue mode; NotApplicable at r <= 1, where it drifts."""
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    if not r > 1.0:
        raise NotApplicable(f"a zero mode has no finite limit at damping exponent r = {r!r} <= 1")
    return y0 + t0 / (r - 1.0) * ydot0


# --------------------------------------------------------------------------
# eigendecomposition


def _phase_normalize(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    n = vecs.shape[1]
    piv = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    return vecs / (piv / np.abs(piv))


def eigendecompose(matrix: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a real square matrix by LAPACK ``geev``.

    The tolerance of its symmetry and classification tests is
    :func:`matrix_tolerance` of the matrix.

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
    tol = 1e-9 * max(1.0, normg)  # matrix_tolerance(g)
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
        is_diagonalizable=bool(is_diag),
        tol=tol,
    )


# --------------------------------------------------------------------------
# matrix-level verdicts


def classify_matrix(spectrum: Spectrum, t0: float = 1.0, r: float = 3.0) -> StabilityVerdict:
    """Fold per-eigenvalue classes into a stability verdict.

    Instability wins regardless of conditioning; the Jordan caveat only
    applies when every eigenvalue sits in the closed right half-axis, where
    the modal argument needs a genuine eigenbasis.
    """
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    vals = spectrum.eigenvalues
    codes, rates = classify_eigenvalues(vals.real, vals.imag, spectrum.tol)
    classes = tuple(map(ClassifiedEigenvalue, map(CLASSES.__getitem__, codes.tolist()), vals.tolist(), rates.tolist()))
    unstable = [c for c in classes if c.tag in (EigenvalueClass.NEGATIVE_REAL, EigenvalueClass.STRICTLY_COMPLEX)]
    bound_c: float | None = None
    if unstable:
        dom = max(unstable, key=lambda c: c.rate)
        verdict = (
            NagdVerdict.UNSTABLE_NEGATIVE_REAL
            if dom.tag is EigenvalueClass.NEGATIVE_REAL
            else NagdVerdict.UNSTABLE_COMPLEX
        )
        growth = dom.rate
    elif not spectrum.is_diagonalizable:
        verdict = NagdVerdict.INDETERMINATE_JORDAN
        growth = 0.0
    else:
        zeros = [c for c in classes if c.tag is EigenvalueClass.ZERO]
        pos = [c.value.real for c in classes if c.tag is EigenvalueClass.POSITIVE_REAL]
        verdict = NagdVerdict.STABLE_TO_NULLSPACE if zeros else NagdVerdict.STABLE_CONVERGENT
        growth = 0.0
        with contextlib.suppress(NotApplicable):  # none at r <= 1; t0/(r-1) is the limit's coefficient of ydot0
            bound_c = max(nullspace_limit(t0, 0.0, 1.0, r), min(pos, default=math.inf) ** -0.5)

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
        bound_constant=bound_c,
    )


def boundedness_bound(spectrum: Spectrum, t0: float, q0_norm: float, v0_norm: float, r: float = 3.0) -> float:
    """A-priori sup-norm bound kappa(P) (||q0|| + C ||v0||) on ||q(t) - q*||.

    Mode-wise the energy E = lam |y|^2 / 2 + |y'|^2 / 2 is nonincreasing,
    which gives sup |y| <= |y0| + lam^{-1/2} |y0'| for lam > 0 and the exact
    t0/(r-1) coefficient of :func:`nullspace_limit` for lam = 0; conjugating
    by the eigenbasis costs a factor kappa(P).  Raises
    :class:`~nagdyn.errors.NotApplicable` where ``bound_constant`` is None.
    """
    if q0_norm < 0.0 or v0_norm < 0.0:
        raise ValueError("norms must be nonnegative")
    verdict = classify_matrix(spectrum, t0, r)
    if verdict.bound_constant is None:
        raise NotApplicable(f"no boundedness guarantee for verdict {verdict.nagd.value}")
    return spectrum.kappa_P * (q0_norm + verdict.bound_constant * v0_norm)
