"""Test oracle: the literal engine's batch, `simulate_batch`.

It sums S~^p and S~^(2p) (p = 1..4) of literal walks, built step by step
with sampled values, at the checkpoints.  The library runs batches through
the cluster engine (`erw.cluster_batch`), whose estimates and draws the
tests compare with this one; it also backs the golden digest of the
literal sums and acceptance criterion 4.  It runs through the library's
chunk driver and step matrices, so its bytes are the library's.
"""

from typing import Sequence

import numpy as np

from erw.distributions import StepDistribution, moment_set
from erw.gammatools import check_alpha
from erw.simulate import _chunk_keys, _power_sums, _run_batch, _run_paths


def _centered_sums(steps: np.ndarray, m1: float):
    """Yield (t, S~_t) for t = 1..n, one row at a time (no matrix-sized temporary)."""
    s_run = np.zeros(steps.shape[1], dtype=np.float64)
    for t, x in enumerate(steps, start=1):
        s_run += x
        yield t, s_run - t * m1


def _checkpoint_sums(steps: np.ndarray, m1: float, checkpoint_index: dict[int, int]) -> np.ndarray:
    """(checkpoints x 8) sums of S~^p and S~^(2p) over the walks of one step matrix."""
    sums = np.zeros((len(checkpoint_index), 8), dtype=np.float64)
    for t, s_tilde in _centered_sums(steps, m1):
        if t in checkpoint_index:
            sums[checkpoint_index[t]] += _power_sums(s_tilde)
    return sums


def simulate_batch(
    dist: StepDistribution,
    alpha: float,
    n: int,
    replicates: int,
    master_seed: int,
    checkpoints: Sequence[int],
) -> np.ndarray:
    """The (checkpoints x 8) sums of S~^p and S~^(2p) (p = 1..4) over many
    replicates at the checkpoints: the literal engine, the reference for
    `cluster_batch`.

    Replicate i uses stream key replicate_key(master_seed, i).  Work is cut
    into fixed-size chunks whose sums are added in span order.
    """
    alpha = check_alpha(alpha)
    m1 = moment_set(dist).m1
    return _run_batch(
        n, replicates, 1,
        lambda span, cps: _checkpoint_sums(
            _run_paths(dist, alpha, cps[-1], _chunk_keys(master_seed, span)), m1,
            {c: i for i, c in enumerate(cps)},
        ),
        checkpoints,
    )
