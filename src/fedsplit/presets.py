"""Canonical desk-scale experiment configurations.

One synthetic strongly convex task (20 clients, 10 dimensions, cohort 8,
heterogeneity 0.5) shared by every mode, with per-mode schedule parameters
chosen so the schedule gates hold and the measured contraction stays below
the configured lambda for the constant-weight mode.
"""

from __future__ import annotations

from .orchestrator import FLConfig

DESK_T = 500


def desk_config(mode: str, seed: int, level: int = 256, rounds: int = DESK_T) -> FLConfig:
    if mode == "mspdq":
        # inv_sqrt keeps the quantization-error floor proportional to the
        # learning rate, so the 1/t profile survives at every bit width
        eps, gamma, lam, rule = 0.35, 0.38, 0.5, "inv_sqrt"
    else:
        # fedavg and ldp read none of these; sharing msp's values makes
        # configs/desk_msp.json the preset of all three modes
        eps, gamma, lam, rule = 0.5, 0.3, 0.87, "constant"
    return FLConfig(
        n_clients=20,
        cohort=8,
        dim=10,
        local_steps=4,
        rounds=rounds,
        mode=mode,
        seed=seed,
        epsilon=eps,
        gamma_max=gamma,
        lambda_=lam,
        weight_rule=rule,
        level=level,
        eps_split=0.9,
        q0_width=15.0,
        spread=1.0,
        gamma_target=0.5,
        center_offset=3.0,
        eig_lo=0.5,
        eig_hi=1.0,
        n_samples=64,
        batch_size=8,
        sample_spread=1.0,
        ball_radius=6.0,
    )
