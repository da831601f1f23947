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
keeps it well conditioned out to many multiples of the fundamental root, and
roots are located by a sign-change scan refined with bisection.  The scan
takes its determinants in stacked chunks; the values are the same as one call
per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
#: Default scan resolution: mode spacing is at least ~pi/L, so 0.05/L cannot
#: step over adjacent roots.
SCAN_STEP_SCALE = 0.05
ROOT_TOL_SCALE = 1e-10
#: Scan points whose determinants are taken in one stacked call.
SCAN_CHUNK = 128


def _basis_rows(beta: float, x: float, length: float):
    """Value/slope/curvature/third-derivative rows of the shape basis at x.

    Rows are tuples of Python floats: a 4x4 matrix built from them costs a
    fraction of one built from small numpy arrays, with the same arithmetic.
    """
    s, c = math.sin(beta * x), math.cos(beta * x)
    em, ep = math.exp(-beta * x), math.exp(beta * (x - length))
    b2, b3 = beta**2, beta**3
    value = (s, c, em, ep)
    slope = (beta * c, beta * -s, beta * -em, beta * ep)
    curvature = (b2 * -s, b2 * -c, b2 * em, b2 * ep)
    third = (b3 * -c, b3 * s, b3 * -em, b3 * ep)
    return value, slope, curvature, third


def _end_rows(
    end: EndCondition, beta: float, x: float, beam: BeamSpec, sign: float
):
    """Two boundary rows for one end.

    `sign` is +1 at the left end and -1 at the right end: a deflected end
    spring pushes back, which lands on the third derivative with opposite
    orientation at the two ends (EI*phi''' = -k*phi at x=0, +k*phi at x=L).
    """
    value, slope, curvature, third = _basis_rows(beta, x, beam.length)
    if end.kind == "pinned":
        return value, curvature
    if end.kind == "clamped":
        return value, slope
    if end.kind == "free":
        return curvature, third
    ei = beam.section.flexural_rigidity
    k = sign * end.stiffness
    return curvature, tuple(ei * t + k * v for t, v in zip(third, value))


def _matrix_rows(beta: float, beam: BeamSpec, bc: BoundarySpec) -> tuple:
    left = _end_rows(bc.left, beta, 0.0, beam, +1.0)
    right = _end_rows(bc.right, beta, beam.length, beam, -1.0)
    return (*left, *right)


def _scaled_rows(beta: float, beam: BeamSpec, bc: BoundarySpec) -> list:
    """Characteristic rows each divided by its largest magnitude."""
    scaled = []
    for a, b, c, d in _matrix_rows(beta, beam, bc):
        norm = max(abs(a), abs(b), abs(c), abs(d)) or 1.0
        scaled.append([a / norm, b / norm, c / norm, d / norm])
    return scaled


def _check_beta(beta: float) -> None:
    if beta <= 0.0:
        raise ValidationError(f"beta must be positive, got {beta}")


def characteristic_matrix(beta: float, beam: BeamSpec, bc: BoundarySpec) -> np.ndarray:
    """4x4 boundary-condition matrix applied to the shape coefficients."""
    _check_beta(beta)
    return np.array(_matrix_rows(beta, beam, bc))


def _scaled_matrix(beta: float, beam: BeamSpec, bc: BoundarySpec) -> np.ndarray:
    _check_beta(beta)
    return np.array(_scaled_rows(beta, beam, bc))


def characteristic_det(beta: float, beam: BeamSpec, bc: BoundarySpec) -> float:
    """Determinant of the row-scaled characteristic matrix.

    Row scaling removes the beta^n growth of the derivative rows, so values at
    different beta are comparable and sign changes bracket the true roots.
    """
    return float(np.linalg.det(_scaled_matrix(beta, beam, bc)))


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
        dets = np.linalg.det(np.array([_scaled_rows(b, beam, bc) for b in chunk]))
        yield from zip(chunk, dets.tolist())


def find_beta_roots(
    beam: BeamSpec,
    bc: BoundarySpec,
    n_roots: int,
    scan_step: float | None = None,
) -> np.ndarray:
    """First `n_roots` positive roots of the characteristic determinant.

    Scans upward from 0.1/L in steps of `scan_step` (default 0.05/L),
    brackets sign changes and refines each by bisection until the bracket is
    narrower than 1e-10/L.  Raises InsufficientRootsError if the scan window
    beta*L <= 4*pi*n_roots + 10 runs out first.
    """
    if n_roots < 1:
        raise ValidationError(f"n_roots must be >= 1, got {n_roots}")
    length = beam.length
    if scan_step is None:
        scan_step = SCAN_STEP_SCALE / length
    elif scan_step <= 0.0:
        raise ValidationError(f"scan_step must be positive, got {scan_step}")
    tol = ROOT_TOL_SCALE / length
    beta_max = (4.0 * math.pi * n_roots + 10.0) / length

    roots: list[float] = []
    beta_prev = BETA_MIN_SCALE / length
    det_prev = characteristic_det(beta_prev, beam, bc)
    for beta_next, det_next in _scan(beta_prev, scan_step, beta_max, beam, bc):
        if det_next == 0.0:
            roots.append(beta_next)
        elif det_prev * det_next < 0.0:
            lo, hi = beta_prev, beta_next
            f_lo = det_prev
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                f_mid = characteristic_det(mid, beam, bc)
                if f_mid == 0.0:
                    lo = hi = mid
                    break
                if f_lo * f_mid < 0.0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            root = 0.5 * (lo + hi)
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
    matrix = _scaled_matrix(beta, beam, bc)
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
    return vh[-1]


def mode_shape(
    beta: float, beam: BeamSpec, bc: BoundarySpec, grid: SpatialGrid
) -> StaticProfile:
    """Mode shape at a verified root, sampled on `grid`.

    Coefficients come from the null vector of the characteristic matrix
    (smallest singular value); the shape is scaled so its largest-magnitude
    sample equals +1.
    """
    coeffs = _null_coefficients(beta, beam, bc)
    xs = grid.positions
    basis = np.column_stack(
        [
            np.sin(beta * xs),
            np.cos(beta * xs),
            np.exp(-beta * xs),
            np.exp(beta * (xs - beam.length)),
        ]
    )
    shape = basis @ coeffs
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
    freqs = natural_frequencies(betas, beam)
    modes = []
    for beta, freq in zip(betas, freqs):
        coeffs = _null_coefficients(float(beta), beam, bc)
        modes.append(
            ModeSolution(
                beta=float(beta),
                omega_rad_s=freq.omega_rad_s,
                f_hz=freq.f_hz,
                coefficients=tuple(float(c) for c in coeffs),
                bc=bc,
            )
        )
    return modes
