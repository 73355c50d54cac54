"""Plain SGD with classic momentum, as pure functions over parameter dicts."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, TrainingError


def sgd_step(params, grads, velocity, lr, momentum):
    """One momentum update: v' = momentum * v + g; p' = p - lr * v'.

    Args:
        params: name -> array.
        grads: name -> array, same keys and shapes.
        velocity: name -> array from the previous step, or None on the first.
        lr: learning rate.
        momentum: momentum coefficient (0 disables it).

    Returns:
        (new_params, new_velocity); inputs are left untouched.

    Raises:
        TrainingError: if any gradient entry, or any parameter after the
            update, is non-finite.
    """
    if not (np.isfinite(lr) and lr >= 0):
        raise ConfigError(f"learning rate must be finite and >= 0, got {lr}")
    if not 0 <= momentum < 1:
        raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
    if set(grads) != set(params):
        missing = set(params) ^ set(grads)
        raise TrainingError(f"gradient keys do not match parameters: {sorted(missing)}")
    new_params = {}
    new_velocity = {}
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name}")
        # an update that overflows is reported below, without numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            v = momentum * velocity[name] + g if velocity is not None else g.copy()
            new_params[name] = p - lr * v
        new_velocity[name] = v
        if not np.all(np.isfinite(new_params[name])):
            raise TrainingError(f"non-finite {name} after the update at learning rate {lr}")
    return new_params, new_velocity
