"""Nonlinear material model and the simplified nonlinear cantilever.

The constitutive law is sigma = E*eps + alpha*E*eps^n on the tension branch,
extended to compression as an odd function.  For the deflection comparison the
law is applied in its stress-explicit mirror form

    eps(sigma) = sigma/E + alpha*(sigma/E)^n,

which softens with stress: the cantilever moment field is statically
determinate, so the extreme-fiber stress sigma_i = |M_i|*h/2 / I is known
outright, the secant modulus E_eff,i = sigma_i / eps(sigma_i) drops below E
wherever the stress is high, and the deflection grows beyond the linear
answer.  At alpha = 0 both forms collapse to the linear law exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BeamSpec, SpatialGrid, StaticProfile, ValidationError
from .statics import cantilever_point_deflection


@dataclass(frozen=True)
class RambergOsgood:
    """Hardening law sigma = E*eps + alpha*E*eps^n (E in Pa, n > 1)."""

    elastic_modulus: float
    alpha: float
    n: float

    def __post_init__(self):
        if self.elastic_modulus <= 0.0:
            raise ValidationError(
                f"elastic_modulus must be positive, got {self.elastic_modulus}"
            )
        if self.alpha < 0.0:
            raise ValidationError(f"alpha must be nonnegative, got {self.alpha}")
        if self.n <= 1.0:
            raise ValidationError(f"n must exceed 1, got {self.n}")


def stress(mat: RambergOsgood, strain):
    """sigma(eps) = E*eps + alpha*E*eps^n, odd-extended to negative strain."""
    eps = np.asarray(strain, dtype=float)
    mag = np.abs(eps)
    sigma = np.sign(eps) * (
        mat.elastic_modulus * mag + mat.alpha * mat.elastic_modulus * mag**mat.n
    )
    return sigma if isinstance(strain, np.ndarray) else float(sigma)


def tangent_modulus(mat: RambergOsgood, strain):
    """d sigma / d eps = E + alpha*E*n*eps^(n-1) (even in eps)."""
    mag = np.abs(np.asarray(strain, dtype=float))
    tangent = mat.elastic_modulus * (1.0 + mat.alpha * mat.n * mag ** (mat.n - 1.0))
    return tangent if isinstance(strain, np.ndarray) else float(tangent)


def secant_modulus(mat: RambergOsgood, sigma):
    """sigma / eps(sigma) = E / (1 + alpha*(sigma/E)^(n-1)); E at sigma=0."""
    ratio = np.abs(np.asarray(sigma, dtype=float)) / mat.elastic_modulus
    secant = mat.elastic_modulus / (1.0 + mat.alpha * ratio ** (mat.n - 1.0))
    return secant if isinstance(sigma, np.ndarray) else float(secant)


def nonlinear_cantilever_deflection(
    p: float,
    a: float,
    beam: BeamSpec,
    mat: RambergOsgood,
    n_nodes: int = 201,
) -> StaticProfile:
    """Cantilever (clamped at x=0, free at x=L) deflection with an effective
    per-node modulus.

    E_eff,i is the secant modulus at the extreme-fiber stress
    sigma_i = |M_i|*(h/2)/I.  The moment field of a cantilever is statically
    determinate, so the stress state does not depend on the stiffness and no
    iteration is needed.  Deflection comes from double integration of
    M_i/(E_eff,i * I) with per-interval formulas exact for linear curvature.
    """
    if p < 0.0:
        raise ValidationError(f"load must be nonnegative, got {p}")
    if a <= 0.0 or a > beam.length:
        raise ValidationError(f"load position {a} outside (0, {beam.length}]")
    grid = SpatialGrid.for_beam(beam, n_nodes)
    xs = grid.positions
    sec = beam.section
    moment = p * np.clip(a - xs, 0.0, None)
    fiber = 0.5 * beam.height
    sigma = moment * fiber / sec.second_moment
    e_eff = secant_modulus(mat, sigma)
    curvature = moment / (e_eff * sec.second_moment)
    dx = grid.spacing
    # exact double integration of piecewise-linear curvature:
    # theta_{i+1} = theta_i + dx*(k_i + k_{i+1})/2
    # w_{i+1} = w_i + dx*theta_i + dx^2*(k_i/3 + k_{i+1}/6)
    theta = np.concatenate(
        ([0.0], np.cumsum(0.5 * dx * (curvature[:-1] + curvature[1:])))
    )
    increments = dx * theta[:-1] + dx**2 * (curvature[:-1] / 3.0 + curvature[1:] / 6.0)
    deflection = np.concatenate(([0.0], np.cumsum(increments)))
    return StaticProfile(grid, deflection)


@dataclass(frozen=True)
class LoadCurvePoint:
    p: float
    w_lin: float
    w_nl: float


def linear_vs_nonlinear_curve(
    p_values,
    a: float,
    beam: BeamSpec,
    mat: RambergOsgood,
    n_nodes: int = 201,
) -> list[LoadCurvePoint]:
    """Tip deflection pairs (linear, nonlinear) over an ascending load sweep."""
    p_values = [float(p) for p in p_values]
    if any(p2 <= p1 for p1, p2 in zip(p_values, p_values[1:])):
        raise ValidationError("p_values must be strictly ascending")
    points = []
    for p in p_values:
        w_lin = cantilever_point_deflection(beam.length, p, a, beam)
        profile = nonlinear_cantilever_deflection(p, a, beam, mat, n_nodes=n_nodes)
        points.append(LoadCurvePoint(p=p, w_lin=w_lin, w_nl=float(profile.deflection[-1])))
    return points
