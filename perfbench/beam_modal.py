"""Modal solution of a damped pinned-pinned Euler-Bernoulli beam.

Reference for the beam_large dynamic run, computed independently of beamlab:
analytic modes sin(n pi x / L), modal mass rho*A*L/2, stiffness-proportional
damping fitted to the first mode, and an exact step of each modal equation
for a load that is linear in time over the step (matrix exponential of the
state equation augmented with the load and its slope).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

MODES = 30


def _step_operators(omega: float, two_zeta_omega: float, dt: float) -> np.ndarray:
    """Rows map [q, q', u_k, slope_k] at t_k to [q, q'] at t_k + dt."""
    aug = np.zeros((4, 4))
    aug[0, 1] = 1.0
    aug[1, 0] = -omega**2
    aug[1, 1] = -two_zeta_omega
    aug[1, 2] = 1.0
    aug[2, 3] = 1.0
    return scipy.linalg.expm(aug * dt)[:2]


def midspan_history(s: dict, times, x: float) -> list[float]:
    """Deflection at `x` for each of `times` (multiples of the scenario dt)."""
    beam = s["beam"]
    length = beam["length"]
    width, height = beam["width"], beam["height"]
    ei = beam["elastic_modulus"] * width * height**3 / 12.0
    rho_a = beam["density"] * width * height
    n = np.arange(1, MODES + 1)
    omega = (n * math.pi / length) ** 2 * math.sqrt(ei / rho_a)
    zeta1 = s["integrator"]["rayleigh"]["zeta1"]
    two_zeta_omega = 2.0 * zeta1 / omega[0] * omega**2

    dt = s["time"]["dt"]
    steps = round((s["time"]["end"] - s["time"]["start"]) / dt)
    t = s["time"]["start"] + dt * np.arange(steps + 1)
    force = np.zeros((MODES, steps + 1))
    for load in s["loads"]:
        if load["type"] == "harmonic_point":
            shape = np.sin(n * math.pi * load["position"] / length)
            force += np.outer(shape, load["p0"] * np.sin(2.0 * math.pi * load["f_hz"] * t))
        elif load["type"] == "moving_point":
            a = load["x0"] + load["speed"] * t
            on = (a >= 0.0) & (a <= length)
            force += load["p"] * np.sin(np.outer(n, a) * math.pi / length) * on
        else:
            raise ValueError(f"no modal reference for load type {load['type']!r}")
    u = force / (0.5 * rho_a * length)
    slope = np.diff(u, axis=1) / dt

    ops = np.stack([_step_operators(w, c, dt) for w, c in zip(omega, two_zeta_omega)])
    state = np.zeros((MODES, 2))
    q = np.zeros((MODES, steps + 1))
    for k in range(steps):
        aug = np.column_stack([state, u[:, k], slope[:, k]])
        state = np.einsum("mij,mj->mi", ops, aug)
        q[:, k + 1] = state[:, 0]

    w = np.sin(n * math.pi * x / length) @ q
    return [float(w[round((tk - t[0]) / dt)]) for tk in times]
