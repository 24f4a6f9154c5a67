"""Ring-buffer replay storage with uniform sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class Batch:
    obs: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_obs: np.ndarray
    task_id: np.ndarray

    def __len__(self):
        return len(self.reward)


class ReplayBuffer:
    """FIFO ring buffer over transitions, sampled uniformly."""

    def __init__(self, capacity: int, obs_dim: int, action_dim: int):
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.obs = np.zeros((capacity, obs_dim))
        self.action = np.zeros((capacity, action_dim))
        self.reward = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, obs_dim))
        self.task_id = np.zeros(capacity, dtype=np.int64)
        self.size = 0
        self.head = 0

    def __len__(self):
        return self.size

    def add(self, obs, action, reward, next_obs, task_id) -> None:
        """Append K transitions given as row-aligned arrays, oldest first.

        Past capacity the oldest rows are overwritten, so the buffer ends
        exactly as after K one-row adds (with K > capacity only the last
        capacity rows survive).
        """
        k = len(reward)
        skip = max(k - self.capacity, 0)
        idx = (self.head + np.arange(skip, k)) % self.capacity
        self.obs[idx] = obs[skip:]
        self.action[idx] = action[skip:]
        self.reward[idx] = reward[skip:]
        self.next_obs[idx] = next_obs[skip:]
        self.task_id[idx] = task_id[skip:]
        self.head = (self.head + k) % self.capacity
        self.size = min(self.size + k, self.capacity)

    def sample(self, batch_size: int, rng) -> Batch:
        if self.size == 0:
            raise ConfigurationError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=batch_size)
        return Batch(
            obs=self.obs[idx], action=self.action[idx], reward=self.reward[idx],
            next_obs=self.next_obs[idx], task_id=self.task_id[idx],
        )
