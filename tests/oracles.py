"""Test oracles: the checks and state builders that only the tests call.

The library keeps what its runs call.  `one_round` is how a test drives a
single round outside a phase: the round operators advance only a working
state bound as run_consensus binds one.  MSP and MSPDQ name the two kinds
of round for the tests; a phase takes its kind from its state.
"""

from __future__ import annotations

import json

import numpy as np

from fedsplit import consensus
from fedsplit.consensus import CONSERVATION_RTOL, ConsensusTrace, RoundState, check_conserved, conserved_sum
from fedsplit.errors import ConfigError
from fedsplit.quantizer import QuantizedVector
from fedsplit.rng import left_sum

MSP = "msp"
MSPDQ = "mspdq"


def one_round(mode: str, state: RoundState, epsilon: float, weights_k: np.ndarray, *quantize_args) -> RoundState:
    """One round of `mode`'s operator on a workspace bound with `epsilon`,
    as run_consensus binds its working state: a copy of `state`, which stays
    unchanged, and whose uploads (or their absence) must match `mode`.
    `weights_k` is (..., M, m); `quantize_args` are mspdq_round's box width
    and (M, d) uniforms.  Returns the advanced copy."""
    operator = consensus.msp_round if mode == MSP else consensus.mspdq_round
    return operator(consensus._Workspace(state, epsilon), weights_k[..., None], *quantize_args)


def cohort_state(splits: list[tuple[np.ndarray, np.ndarray]]) -> RoundState:
    """Plain-mode cohort state of one-row `split_cohort` results, zero-padded
    past each row's invisible count; global is the mean visible."""
    m_counts = np.array([invisible.shape[1] for _, invisible in splits], dtype=np.int64)
    visible = np.concatenate([visible for visible, _ in splits])
    invisible = np.zeros((len(splits), int(m_counts.max()), visible.shape[1]))
    for i, (_, row) in enumerate(splits):
        invisible[i, : m_counts[i]] = row[0]
    return RoundState(visible, invisible, m_counts, visible.mean(axis=0))


def strict_json(text: str):
    """json.loads that refuses NaN and the infinities, which RFC 8259 does
    not allow."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def consensus_target(state: RoundState) -> np.ndarray:
    """Common limit of all submodels: conserved sum over the submodel count."""
    return conserved_sum(state) / float(np.sum(1 + state.m_counts))


def check_conservation(trace: ConsensusTrace, rtol: float = CONSERVATION_RTOL) -> float:
    """Max relative drift of the conserved total over a trace."""
    totals = conserved_sum(RoundState(trace.visibles, trace.invisibles, trace.m_counts, trace.globals_))
    return check_conserved(totals[0], totals, rtol)


def distribution_mean_var(atoms: list[tuple[float, float]]) -> tuple[float, float]:
    mean = left_sum(v * p for v, p in atoms)
    var = left_sum(p * (v - mean) ** 2 for v, p in atoms)
    return mean, var


def values(quantized: QuantizedVector) -> np.ndarray:
    """The knob values of a quantized vector's indices."""
    return quantized.state.knob(quantized.indices)


def phi_product(mats: list[np.ndarray]) -> np.ndarray:
    """Ordered product P[k] ... P[0] of the round transitions."""
    if not mats:
        raise ConfigError("need at least one transition matrix")
    n = mats[0].shape[0]
    for mat in mats:
        if mat.shape != (n, n):
            raise ConfigError("transition matrices must share dimensions")
    phi = mats[0]
    for mat in mats[1:]:
        phi = mat @ phi
    return phi
