"""Central-difference gradient checking for diffgraph losses.

The finite-difference side of every autodiff dual-route check: analytic
gradients come from one backward pass over the store's parameter leaves,
numeric ones from perturbing each parameter coordinate in place.
"""

import math

from baryvae.diffgraph import ParamStore, Value, rng_stream
from baryvae.errors import NumericError

GRAD_CHECK_SAMPLE_CAP = 10_000
GRAD_CHECK_SAMPLE_SIZE = 256


def forward_backward(builder, store: ParamStore):
    """Run `builder` over leaf Values of the store's parameters.

    builder(values: dict[str, Value]) must return a scalar loss Value. Returns
    (loss as float, gradients keyed like the store).
    """
    values = store.as_values()
    loss = builder(values)
    if not isinstance(loss, Value):
        raise TypeError("builder must return a Value")
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    loss.backward()
    return float(loss.data), {name: values[name].grad for name in store.names()}


def _loss_at(builder, store: ParamStore) -> float:
    return float(builder(store.as_values()).data)


def grad_check(builder, store: ParamStore, step: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks every parameter coordinate, or a seeded sample of
    GRAD_CHECK_SAMPLE_SIZE coordinates when the store holds more than
    GRAD_CHECK_SAMPLE_CAP. Raises NumericError on non-finite values.
    """
    _, grads = forward_backward(builder, store)
    coords = [(name, idx) for name in store.names() for idx in range(store.params[name].size)]
    if len(coords) > GRAD_CHECK_SAMPLE_CAP:
        rng = rng_stream(seed, 97)
        chosen = rng.choice(len(coords), size=GRAD_CHECK_SAMPLE_SIZE, replace=False)
        coords = [coords[int(i)] for i in sorted(chosen)]

    worst = 0.0
    for name, idx in coords:
        flat = store.params[name].reshape(-1)
        original = flat[idx]
        flat[idx] = original + step
        f_plus = _loss_at(builder, store)
        flat[idx] = original - step
        f_minus = _loss_at(builder, store)
        flat[idx] = original
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericError(
                f"non-finite loss while probing {name}[{idx}]", parameter=name, index=idx
            )
        numeric = (f_plus - f_minus) / (2.0 * step)
        analytic = float(grads[name].reshape(-1)[idx])
        if not math.isfinite(analytic):
            raise NumericError(f"non-finite gradient at {name}[{idx}]", parameter=name, index=idx)
        err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, err)
    return worst
