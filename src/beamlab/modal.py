"""Natural frequencies and mode shapes.

Free vibration of a uniform beam separates into shapes of the form
phi(x) = c1 sin(bx) + c2 cos(bx) + c3 exp(-bx) + c4 exp(b(x-L)).  The two
decaying exponentials span the same space as sinh and cosh but stay within
[0, 1] on the span, so the matrix keeps full precision at large bL, where
sinh(bL) and cosh(bL) round to the same number.  Each end condition
contributes two linear constraints on (c1..c4); a nontrivial shape exists only
where the resulting 4x4 matrix is singular.  Roots b of that determinant give
circular frequencies omega = b^2 * sqrt(EI / rho*A).

The determinant is evaluated with rows scaled to unit max magnitude, which
keeps it well conditioned out to many multiples of the fundamental root.
Roots are located by a sign-change scan, which takes its determinants in
stacked chunks; the values are the same as one call per point.  Every
bracket is then narrowed to 1e-10/L by the same stacked calls, four points
a round, so a root needs no scipy and no iteration cap.  The mode shapes of
all the roots come from one stacked SVD of their matrices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import (
    BeamSpec,
    BoundarySpec,
    DegenerateModeError,
    EndCondition,
    InsufficientRootsError,
    SolverError,
    ValidationError,
)

#: Scan starts above this multiple of 1/L; rigid-body pseudo-roots of nearly
#: unconstrained systems sit below it.
BETA_MIN_SCALE = 0.1
#: Scan resolution: mode spacing is at least ~pi/L, so 0.05/L cannot step
#: over adjacent roots.
SCAN_STEP_SCALE = 0.05
ROOT_TOL_SCALE = 1e-10
#: Scan points whose determinants are taken in one stacked call.
SCAN_CHUNK = 128

#: Row k: where the k-th derivative of the basis, over beta^k, takes its four
#: entries from (sin, cos, -sin, -cos, exp(-bx), -exp(-bx), exp(b(x-L))).
_DERIVATIVE_TERMS = np.array([[0, 1, 4, 6], [1, 2, 5, 6], [2, 3, 4, 6], [3, 0, 5, 6]])
#: Basis rows that a rigid end condition sets to zero, indexed as in
#: `shape_basis`: 0 value, 1 slope, 2 curvature, 3 third derivative.
_END_ROWS = {"pinned": [0, 2], "clamped": [0, 1], "free": [2, 3]}


def shape_basis(beta, x, length: float) -> np.ndarray:
    """Value, slope, curvature and third-derivative rows of the shape basis.

    `beta` and `x` broadcast together; the result has shape (..., 4, 4), by
    derivative order and then basis function.
    """
    beta = np.asarray(beta, dtype=float)
    bx = beta * x
    s, c, em = np.sin(bx), np.cos(bx), np.exp(-bx)
    terms = np.stack([s, c, -s, -c, em, -em, np.exp(beta * (x - length))], axis=-1)
    rows = terms.take(_DERIVATIVE_TERMS, axis=-1)
    b2 = beta * beta
    rows[..., 1:, :] *= np.stack([beta, b2, b2 * beta], axis=-1)[..., :, None]
    return rows


def _end_rows(end: EndCondition, rows: np.ndarray, beam: BeamSpec, sign: float):
    """The two boundary rows of one end, from its (..., 4, 4) basis rows.

    `sign` is +1 at the left end and -1 at the right end: a deflected end
    spring pushes back, which lands on the third derivative with opposite
    orientation at the two ends (EI*phi''' = -k*phi at x=0, +k*phi at x=L).
    """
    if end.kind != "spring":
        return rows.take(_END_ROWS[end.kind], axis=-2)
    ei = beam.section.flexural_rigidity
    k = sign * end.stiffness
    shear = ei * rows[..., 3, :] + k * rows[..., 0, :]
    return np.stack([rows[..., 2, :], shear], axis=-2)


def _characteristic_matrices(
    betas: np.ndarray, beam: BeamSpec, bc: BoundarySpec
) -> np.ndarray:
    """(..., 4, 4) row-scaled boundary matrices for an array of beta.

    Each row is divided by its largest magnitude; no row vanishes for
    beta > 0, since cos(0) = exp(0) = 1 keeps an entry of every row nonzero.
    """
    length = beam.length
    rows = shape_basis(betas[..., None], np.array([0.0, length]), length)
    left = _end_rows(bc.left, rows[..., 0, :, :], beam, +1.0)
    right = _end_rows(bc.right, rows[..., 1, :, :], beam, -1.0)
    matrices = np.concatenate([left, right], axis=-2)
    return matrices / np.abs(matrices).max(axis=-1, keepdims=True)


def characteristic_matrix(beta: float, beam: BeamSpec, bc: BoundarySpec) -> np.ndarray:
    """4x4 boundary-condition matrix applied to the shape coefficients.

    Rows are scaled to unit max magnitude, exactly as a scan chunk builds them.
    """
    if beta <= 0.0:
        raise ValidationError(f"beta must be positive, got {beta}")
    return _characteristic_matrices(np.array([beta]), beam, bc)[0]


def characteristic_det(beta: float, beam: BeamSpec, bc: BoundarySpec) -> float:
    """Determinant of the row-scaled characteristic matrix.

    Row scaling removes the beta^n growth of the derivative rows, so values at
    different beta are comparable and sign changes bracket the true roots.
    """
    return float(np.linalg.det(characteristic_matrix(beta, beam, bc)))


def _scan(beta: float, step: float, beta_max: float, beam: BeamSpec, bc: BoundarySpec):
    """Yield (beta, det) for beta, beta + step, beta + 2*step, ... up to and
    including the first point at or above beta_max.

    Each point is the previous one plus `step`, as in a one-at-a-time scan.
    The determinants of SCAN_CHUNK points come from one stacked call, which
    gives each matrix the value a call of its own gives.
    """
    chunk = [beta]
    while True:
        while len(chunk) < SCAN_CHUNK and beta < beta_max:
            beta = beta + step
            chunk.append(beta)
        dets = np.linalg.det(_characteristic_matrices(np.array(chunk), beam, bc))
        yield from zip(chunk, dets.tolist())
        if beta >= beta_max:
            return
        chunk = []


def _refine(brackets, tol: float, beam: BeamSpec, bc: BoundarySpec) -> list[float]:
    """Roots within (beta_lo, beta_hi, det_lo, det_hi) sign-change brackets.

    Each round stacks four determinants for every bracket wider than `tol`
    and than the floats allow: at its secant point, tol/2 either side of it
    and its midpoint, which at least halves it, so no iteration cap is needed.
    It keeps the first sub-bracket whose ends change sign or meet an exact
    zero.  A root does not depend on the brackets refined beside it.  Returns
    the zero met, or the secant point of each final bracket.
    """
    brackets = list(brackets)
    while rows := [
        i
        for i, (lo, hi, _, f_hi) in enumerate(brackets)
        if hi - lo > tol and lo < (lo + hi) / 2 < hi and f_hi != 0.0
    ]:
        points = []
        for i in rows:
            lo, hi, f_lo, f_hi = brackets[i]
            secant = min(max(lo - f_lo * (hi - lo) / (f_hi - f_lo), lo), hi)
            beside = (max(secant - tol / 2, lo), secant, min(secant + tol / 2, hi))
            points.append(sorted((*beside, (lo + hi) / 2)))
        dets = np.linalg.det(_characteristic_matrices(np.array(points), beam, bc)).tolist()
        for i, inner, inner_dets in zip(rows, points, dets):
            lo, hi, f_lo, f_hi = brackets[i]
            xs, fs = [lo, *inner, hi], [f_lo, *inner_dets, f_hi]
            k = next(k for k in range(5) if fs[k + 1] == 0.0 or (fs[k] < 0.0) != (fs[k + 1] < 0.0))
            brackets[i] = (xs[k], xs[k + 1], fs[k], fs[k + 1])
    return [
        hi if f_hi == 0.0 else lo - f_lo * (hi - lo) / (f_hi - f_lo)
        for lo, hi, f_lo, f_hi in brackets
    ]


def spring_borne_roots(beam: BeamSpec, bc: BoundarySpec) -> list[float]:
    """beta*L of the modes a rigid bar has on the spring ends, lowest first;
    none unless an end is a spring and none is clamped.

    A beam on soft springs moves nearly as a rigid bar, which gives
    (beta*L)^4 = c*k*L^3/EI: c = 3 beside a pinned end, 4 beside a free end
    (the bar's other mode, a rigid turn at beta = 0, is no root), and on two
    springs c = 2 (bounce) and 6 (rocking).  The beam's own flexibility puts
    each true root a little lower.
    """
    kinds = (bc.left.kind, bc.right.kind)
    if "spring" not in kinds or "clamped" in kinds:
        return []
    ei = beam.section.flexural_rigidity
    scale = beam.length * beam.length * beam.length / ei if ei else math.inf
    k0, k1 = ((end.stiffness or 0.0) * scale for end in (bc.left, bc.right))
    if kinds != ("spring", "spring"):
        return [((3.0 if "pinned" in kinds else 4.0) * (k0 + k1)) ** 0.25]
    # roots mu of mu^2 - 4*(k0 + k1)*mu + 12*k0*k1, the lower one from their
    # product, so that it keeps its digits when k0 and k1 lie far apart
    half = k0 + k1 + math.hypot(k0 - 0.5 * k1, math.sqrt(0.75) * k1)
    low = 6.0 * k0 * (k1 / half) if half else 0.0
    return [low**0.25, (2.0 * half) ** 0.25]


def find_beta_roots(beam: BeamSpec, bc: BoundarySpec, n_roots: int) -> np.ndarray:
    """First `n_roots` positive roots of the characteristic determinant.

    Scans upward from 0.1/L in steps of 0.05/L and brackets sign changes.
    Once roots and brackets reach `n_roots`, or the window ends, `_refine`
    narrows every bracket to within 1e-10/L in the same stacked rounds.  A
    root within half a scan step of the one before it is dropped, and the
    scan goes on.  Raises SolverError if beta^3 over the scan leaves the
    normal float range (a beam.length far from 1), and InsufficientRootsError
    if the scan window beta*L <= 4*pi*n_roots + 10 runs out first, or if
    `spring_borne_roots` puts a mode where the scan may skip it and the scan
    did skip it: one of the first roots lies above 1.01 times its estimate.
    """
    if n_roots < 1:
        raise ValidationError(f"n_roots must be >= 1, got {n_roots}")
    length = beam.length
    scan_step = SCAN_STEP_SCALE / length
    tol = ROOT_TOL_SCALE / length
    beta_max = (4.0 * math.pi * n_roots + 10.0) / length
    beta_prev = BETA_MIN_SCALE / length
    # the basis rows scale by up to beta^3, and by EI*beta^3 at a spring end;
    # out of the normal floats the row scaling divides by zero or infinity
    spring = "spring" in (bc.left.kind, bc.right.kind)
    rigidity = beam.section.flexural_rigidity if spring else 1.0
    try:
        scaled = beta_prev**3 >= sys.float_info.min and math.isfinite(rigidity * beta_max**3)
    except OverflowError:
        scaled = False
    if not scaled:
        raise SolverError(
            f"beam.length {length!r}: the root scan over beta*L in [{BETA_MIN_SCALE}, "
            f"{beta_max * length:.4g}] takes beta^3 out of the normal float range"
        )

    # the scan may skip a spring-borne mode below its start, or two of them
    # within one step; 1% above the start covers the estimate's error
    bar = spring_borne_roots(beam, bc)
    doubtful = bar and (
        bar[0] < 1.01 * BETA_MIN_SCALE
        or any(b - a < SCAN_STEP_SCALE for a, b in zip(bar, bar[1:]))
    )

    roots: list[float] = []
    brackets: list[tuple[float, float, float, float]] = []
    scan = _scan(beta_prev, scan_step, beta_max, beam, bc)
    beta_prev, det_prev = next(scan)
    while len(roots) < n_roots:
        for beta_next, det_next in scan:  # resumes where the last batch stopped
            if det_next == 0.0 or det_prev * det_next < 0.0:
                brackets.append((beta_prev, beta_next, det_prev, det_next))
            beta_prev, det_prev = beta_next, det_next
            if len(roots) + len(brackets) == n_roots:
                break
        if not brackets:  # the window ran out
            raise InsufficientRootsError(
                f"found {len(roots)} of {n_roots} characteristic roots with "
                f"beta*L <= {beta_max * length:.2f}"
            )
        for root in _refine(brackets, tol, beam, bc):
            if not roots or root - roots[-1] > 0.5 * scan_step:
                roots.append(root)
        brackets = []
    # the beam's flexibility only lowers a true root below its bar estimate,
    # and a skipped mode leaves the next root, at least 3**0.25 higher, in its place
    if doubtful and any(root * length > 1.01 * b for root, b in zip(roots, bar)):
        springs = [end.stiffness for end in (bc.left, bc.right) if end.kind == "spring"]
        raise InsufficientRootsError(
            f"{bc.left.kind}-{bc.right.kind} ends with spring k = "
            f"{' and '.join(map(repr, dict.fromkeys(springs)))} N/m: a rigid bar on them "
            f"has modes at beta*L {', '.join(f'{b:.4g}' for b in bar)}, which a root scan "
            f"from beta*L {BETA_MIN_SCALE} in steps of {SCAN_STEP_SCALE} cannot resolve; "
            "stiffen the springs"
        )
    return np.array(roots)


@dataclass(frozen=True)
class ModeFrequency:
    omega_rad_s: float
    f_hz: float


def natural_frequencies(betas, beam: BeamSpec) -> list[ModeFrequency]:
    """omega = beta^2 * sqrt(EI / rho*A) and f = omega / 2*pi per root."""
    wave = beam.section.wave_coefficient
    out = []
    previous = 0.0
    for beta in np.atleast_1d(np.asarray(betas, dtype=float)):
        if beta <= 0.0 or beta < previous:
            raise ValidationError("betas must be positive and ascending")
        previous = beta
        omega = beta**2 * wave
        out.append(ModeFrequency(omega_rad_s=omega, f_hz=omega / (2.0 * math.pi)))
    return out


def _null_coefficients(betas, beam: BeamSpec, bc: BoundarySpec) -> np.ndarray:
    """Null vectors of the roots' matrices, from one stacked SVD, in the shape
    of `betas` + (4,).  Refuses the first non-root or degenerate beta."""
    betas = np.asarray(betas, dtype=float)
    _, singular, vh = np.linalg.svd(_characteristic_matrices(betas, beam, bc))
    for beta, s in zip(betas.ravel().tolist(), singular.reshape(-1, 4).tolist()):
        if s[-1] > 1e-6 * s[0]:
            raise ValidationError(
                f"beta={beta} is not a characteristic root "
                f"(smallest singular value ratio {s[-1] / s[0]:.2e})"
            )
        if s[-2] < 1e-6 * s[0]:
            raise DegenerateModeError(
                f"degenerate root at beta={beta}: two singular values vanish together"
            )
    # the first coefficient of at least half the largest magnitude is positive:
    # the largest alone can flip, as clamped or free ends give near-equal pairs
    null = vh[..., -1, :]
    magnitude = np.abs(null)
    lead = np.argmax(magnitude >= 0.5 * magnitude.max(axis=-1, keepdims=True), axis=-1)
    return np.where(np.take_along_axis(null, lead[..., None], axis=-1) > 0, null, -null)


@dataclass(frozen=True)
class ModeSolution:
    """One vibration mode: root, frequencies, shape coefficients, supports."""

    beta: float
    omega_rad_s: float
    f_hz: float
    coefficients: tuple[float, float, float, float]
    bc: BoundarySpec


def solve_modes(beam: BeamSpec, bc: BoundarySpec, n_modes: int) -> list[ModeSolution]:
    """Convenience wrapper: roots, frequencies and coefficients together."""
    betas = find_beta_roots(beam, bc, n_modes)
    frequencies = natural_frequencies(betas, beam)
    coefficients = _null_coefficients(betas, beam, bc).tolist()
    return [
        ModeSolution(beta, freq.omega_rad_s, freq.f_hz, tuple(shape), bc)
        for beta, freq, shape in zip(betas.tolist(), frequencies, coefficients)
    ]
