"""The pairwise Bradley-Terry margin loss, the oracle that the listwise
loss must equal at two modes (acceptance criterion 1)."""

import numpy as np


def _log_sigmoid(x: float) -> float:
    # stable -softplus(-x)
    if x >= 0:
        return -np.log1p(np.exp(-x))
    return x - np.log1p(np.exp(x))


def bt_nll(reward_w: float, reward_l: float, gamma: float = 0.0) -> float:
    """Pairwise margin loss: -log sigmoid(reward_w - reward_l - gamma)."""
    return -_log_sigmoid(reward_w - reward_l - gamma)
