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
Roots are located by a sign-change scan and refined with Brent's method.  The
scan takes its determinants in stacked chunks; the values are the same as one
call per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .model import (
    BeamSpec,
    BoundarySpec,
    DegenerateModeError,
    EndCondition,
    InsufficientRootsError,
    SpatialGrid,
    StaticProfile,
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


def _last_axis(*arrays) -> np.ndarray:
    """Equal-shape arrays stacked along a new last axis."""
    return np.concatenate([a[..., None] for a in arrays], axis=-1)


def shape_basis(beta, x, length: float) -> np.ndarray:
    """Value, slope, curvature and third-derivative rows of the shape basis.

    `beta` and `x` broadcast together; the result has shape (..., 4, 4), by
    derivative order and then basis function.
    """
    beta = np.asarray(beta, dtype=float)
    bx = beta * x
    s, c, em = np.sin(bx), np.cos(bx), np.exp(-bx)
    terms = _last_axis(s, c, -s, -c, em, -em, np.exp(beta * (x - length)))
    rows = terms.take(_DERIVATIVE_TERMS, axis=-1)
    b2 = beta * beta
    rows[..., 1:, :] *= _last_axis(beta, b2, b2 * beta)[..., :, None]
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
    """Yield (beta, det) for beta + step, beta + 2*step, ... up to and
    including the first point at or above beta_max.

    Each point is the previous one plus `step`, as in a one-at-a-time scan.
    The determinants of SCAN_CHUNK points come from one stacked call, which
    gives each matrix the value a call of its own gives.
    """
    while beta < beta_max:
        chunk = []
        while len(chunk) < SCAN_CHUNK and beta < beta_max:
            beta = beta + step
            chunk.append(beta)
        dets = np.linalg.det(_characteristic_matrices(np.array(chunk), beam, bc))
        yield from zip(chunk, dets.tolist())


def find_beta_roots(beam: BeamSpec, bc: BoundarySpec, n_roots: int) -> np.ndarray:
    """First `n_roots` positive roots of the characteristic determinant.

    Scans upward from 0.1/L in steps of 0.05/L, brackets sign changes and
    refines each with Brent's method to within 1e-10/L.  Raises
    InsufficientRootsError if the scan window beta*L <= 4*pi*n_roots + 10
    runs out first.
    """
    if n_roots < 1:
        raise ValidationError(f"n_roots must be >= 1, got {n_roots}")
    length = beam.length
    scan_step = SCAN_STEP_SCALE / length
    tol = ROOT_TOL_SCALE / length
    beta_max = (4.0 * math.pi * n_roots + 10.0) / length

    roots: list[float] = []
    beta_prev = BETA_MIN_SCALE / length
    det_prev = characteristic_det(beta_prev, beam, bc)
    for beta_next, det_next in _scan(beta_prev, scan_step, beta_max, beam, bc):
        if det_next == 0.0:
            roots.append(beta_next)
        elif det_prev * det_next < 0.0:
            root = brentq(
                characteristic_det, beta_prev, beta_next, args=(beam, bc), xtol=tol
            )
            if not roots or root - roots[-1] > 0.5 * scan_step:
                roots.append(root)
        if len(roots) == n_roots:
            break
        beta_prev, det_prev = beta_next, det_next

    if len(roots) < n_roots:
        raise InsufficientRootsError(
            f"found {len(roots)} of {n_roots} characteristic roots with "
            f"beta*L <= {beta_max * length:.2f}"
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


def _null_coefficients(beta: float, beam: BeamSpec, bc: BoundarySpec) -> np.ndarray:
    matrix = characteristic_matrix(beta, beam, bc)
    _, singular, vh = np.linalg.svd(matrix)
    if singular[-1] > 1e-6 * singular[0]:
        raise ValidationError(
            f"beta={beta} is not a characteristic root "
            f"(smallest singular value ratio {singular[-1] / singular[0]:.2e})"
        )
    if singular[-2] < 1e-6 * singular[0]:
        raise DegenerateModeError(
            f"degenerate root at beta={beta}: two singular values vanish together"
        )
    # the first coefficient of at least half the largest magnitude is positive:
    # the largest alone can flip, as clamped or free ends give near-equal pairs
    null = vh[-1]
    magnitude = np.abs(null)
    return null if null[np.argmax(magnitude >= 0.5 * magnitude.max())] > 0 else -null


def mode_shape(
    beta: float, beam: BeamSpec, bc: BoundarySpec, grid: SpatialGrid
) -> StaticProfile:
    """Mode shape at a verified root, sampled on `grid`.

    Coefficients come from the null vector of the characteristic matrix
    (smallest singular value); the shape is scaled so its largest-magnitude
    sample equals +1.
    """
    coeffs = _null_coefficients(beta, beam, bc)
    shape = shape_basis(beta, grid.positions, beam.length)[:, 0, :] @ coeffs
    peak = np.argmax(np.abs(shape))
    if shape[peak] == 0.0:
        raise DegenerateModeError(f"null mode shape at beta={beta}")
    shape = shape / shape[peak]
    return StaticProfile(grid, shape)


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
    return [
        ModeSolution(
            beta=float(beta),
            omega_rad_s=freq.omega_rad_s,
            f_hz=freq.f_hz,
            coefficients=tuple(_null_coefficients(float(beta), beam, bc).tolist()),
            bc=bc,
        )
        for beta, freq in zip(betas, natural_frequencies(betas, beam))
    ]
