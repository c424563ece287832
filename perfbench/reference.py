"""Reference photon densities, computed without rsfield.

For a mode of frequency omega at angle theta to the motion of a medium
of refractive index n moving with speed beta(t) = beta0 sin(nu t), the
right-helicity amplitudes obey

    d f_+/dt = -i omega [eta_plus f_+ - eta_minus f_-],
    d f_-/dt = +i omega [eta_plus f_- - eta_minus f_+],

    delta = (n^2 - 1) / (n^2 - beta^2),   alpha = 1 - delta beta^2,
    Delta = 1 - delta beta^2 cos^2(theta),
    eta_pm = (alpha / sigma^2 +/- sigma^2 Delta) / 2,

with sigma = (alpha/Delta)^(1/4) at beta(0) ("auto"), f(0) = (1, 0) and
photon density n(T) = |f_-(T)|^2.  All drive frequencies of a workload
are integrated as one vector system with scipy directly, at a tighter
tolerance than the program under test uses.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-13
ATOL = 1e-15


def final_densities(refractive_index, omega, theta, beta0, drives, t_end):
    """n(t_end) for each drive frequency in ``drives``."""
    nu = np.asarray(drives, dtype=float)
    n2 = refractive_index ** 2
    cos2 = np.cos(theta) ** 2

    def coefficients(beta):
        b2 = beta * beta
        delta = (n2 - 1.0) / (n2 - b2)
        return 1.0 - delta * b2, 1.0 - delta * b2 * cos2

    alpha0, big_delta0 = coefficients(0.0)
    s2 = np.sqrt(alpha0 / big_delta0)

    def rhs(t, y):
        alpha, big_delta = coefficients(beta0 * np.sin(nu * t))
        eta_p = 0.5 * (alpha / s2 + s2 * big_delta)
        eta_m = 0.5 * (alpha / s2 - s2 * big_delta)
        p_re, p_im, m_re, m_im = y.reshape(4, -1)
        u_re = eta_p * p_re - eta_m * m_re
        u_im = eta_p * p_im - eta_m * m_im
        v_re = eta_p * m_re - eta_m * p_re
        v_im = eta_p * m_im - eta_m * p_im
        return omega * np.concatenate([u_im, -u_re, -v_im, v_re])

    k = nu.size
    y0 = np.concatenate([np.ones(k), np.zeros(3 * k)])
    res = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=RTOL, atol=ATOL)
    if not res.success:
        raise RuntimeError(f"reference integration failed: {res.message}")
    _, _, m_re, m_im = res.y[:, -1].reshape(4, -1)
    return (m_re ** 2 + m_im ** 2).tolist()
