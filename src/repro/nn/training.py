"""Numpy SGD trainer for linear-chain networks (the PcnnNet family).

Implements the full forward/backward pass -- convolution via im2col
GEMMs, max/avg pooling, ReLU, dense layers, softmax cross-entropy --
with momentum SGD.  This substitutes for the paper's Caffe-trained
ImageNet models: the accuracy-side experiments (Table I, Fig. 16) need
*trained* classifiers whose output entropy responds to perforation, and
these small networks train in seconds on the synthetic dataset.

Grouped convolutions are not needed by the proxies and are rejected
explicitly; inference of grouped networks is still available through
:mod:`repro.nn.inference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.datasets import Dataset
from repro.nn.entropy import mean_entropy
from repro.nn.im2col import col2im, im2col
from repro.nn.inference import (
    LEAKY_SLOPE,
    NetworkParameters,
    forward,
    init_parameters,
    softmax,
)
from repro.nn.layers import ConvSpec, DenseSpec, PoolSpec, SoftmaxSpec
from repro.nn.models import NetworkDescriptor
from repro.nn.perforation import PerforationPlan

__all__ = [
    "TrainingResult",
    "EvalResult",
    "train",
    "evaluate",
    "cross_entropy_loss",
]


@dataclass
class TrainingResult:
    """Trained parameters plus the per-epoch loss/accuracy history."""

    params: NetworkParameters
    loss_history: List[float] = field(default_factory=list)
    accuracy_history: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class EvalResult:
    """Test-set metrics: the two quantities Fig. 16 plots."""

    accuracy: float
    mean_entropy: float
    n_samples: int


#: Global-norm gradient clip; deeper proxies are unstable without it.
GRAD_CLIP_NORM = 5.0


def _clip_gradients(grads: Dict[str, Dict[str, np.ndarray]]) -> None:
    """Scale all gradients so their global L2 norm is at most
    :data:`GRAD_CLIP_NORM` (in place)."""
    total = 0.0
    for group in grads.values():
        for grad in group.values():
            total += float(np.sum(grad.astype(np.float64) ** 2))
    norm = np.sqrt(total)
    if norm > GRAD_CLIP_NORM:
        scale = GRAD_CLIP_NORM / norm
        for group in grads.values():
            for key in group:
                group[key] = group[key] * scale


def _activation_and_grad(pre: np.ndarray, kind: str):
    """(post-activation, elementwise gradient) for the trainer."""
    if kind == "relu":
        mask = pre > 0
        return pre * mask, mask.astype(pre.dtype)
    if kind == "leaky":
        grad = np.where(pre > 0, 1.0, LEAKY_SLOPE).astype(pre.dtype)
        return pre * grad, grad
    return pre, None


def cross_entropy_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean categorical cross-entropy."""
    n = probs.shape[0]
    picked = probs[np.arange(n), labels]
    return float(-np.mean(np.log(np.clip(picked, 1e-12, 1.0))))


# ----------------------------------------------------------------------
# Forward with cache / backward
# ----------------------------------------------------------------------

def _forward_with_cache(
    network: NetworkDescriptor, params: NetworkParameters, x: np.ndarray
) -> Tuple[np.ndarray, List[dict]]:
    """Dense forward pass retaining everything backward needs."""
    caches: List[dict] = []
    out = x.astype(np.float32, copy=False)
    for layer in network.layers:
        spec = layer.spec
        if isinstance(spec, ConvSpec):
            if spec.groups != 1:
                raise NotImplementedError(
                    "the trainer supports groups=1 only (%s has %d)"
                    % (spec.name, spec.groups)
                )
            cols, (out_h, out_w) = im2col(
                out, spec.kernel_size, spec.stride, spec.padding
            )
            group = params[spec.name]
            pre = np.einsum("fk,nkp->nfp", group["W"], cols) + group["b"].reshape(
                1, -1, 1
            )
            pre = pre.reshape(out.shape[0], spec.out_channels, out_h, out_w)
            post, act_grad = _activation_and_grad(pre, spec.activation)
            caches.append(
                {
                    "kind": "conv",
                    "spec": spec,
                    "cols": cols,
                    "input_shape": out.shape,
                    "act_grad": act_grad,
                }
            )
            out = post
        elif isinstance(spec, PoolSpec):
            n, c, h, w = out.shape
            flat = out.reshape(n * c, 1, h, w)
            cols, (out_h, out_w) = im2col(
                flat, spec.kernel_size, spec.stride, spec.padding
            )
            if spec.mode == "max":
                arg = cols.argmax(axis=1)
                pooled = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
            else:
                arg = None
                pooled = cols.mean(axis=1)
            caches.append(
                {
                    "kind": "pool",
                    "spec": spec,
                    "argmax": arg,
                    "cols_shape": cols.shape,
                    "input_shape": out.shape,
                }
            )
            out = pooled.reshape(n, c, out_h, out_w)
        elif isinstance(spec, DenseSpec):
            flat = out.reshape(out.shape[0], -1)
            group = params[spec.name]
            pre = flat @ group["W"].T + group["b"]
            post, act_grad = _activation_and_grad(pre, spec.activation)
            caches.append(
                {
                    "kind": "dense",
                    "spec": spec,
                    "flat_in": flat,
                    "input_shape": out.shape,
                    "act_grad": act_grad,
                }
            )
            out = post.reshape(out.shape[0], spec.units, 1, 1)
        elif isinstance(spec, SoftmaxSpec):
            logits = out.reshape(out.shape[0], -1)
            probs = softmax(logits)
            caches.append({"kind": "softmax", "spec": spec})
            return probs, caches
        else:
            raise TypeError("unsupported layer spec %r" % (spec,))
    return softmax(out.reshape(out.shape[0], -1)), caches


def _backward(
    network: NetworkDescriptor,
    params: NetworkParameters,
    caches: List[dict],
    probs: np.ndarray,
    labels: np.ndarray,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Gradients for every parameterized layer (mean over the batch)."""
    n = probs.shape[0]
    grads: Dict[str, Dict[str, np.ndarray]] = {}
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    # Softmax + cross-entropy fused gradient.
    dout: np.ndarray = (probs - onehot) / n

    first_param_cache = next(
        (c for c in caches if c["kind"] in ("conv", "dense")), None
    )
    for cache in reversed(caches):
        kind = cache["kind"]
        if kind == "softmax":
            continue
        spec = cache["spec"]
        if kind == "dense":
            dpost = dout.reshape(n, -1)
            if cache["act_grad"] is not None:
                dpost = dpost * cache["act_grad"]
            flat_in = cache["flat_in"]
            group = params[spec.name]
            grads[spec.name] = {
                "W": dpost.T @ flat_in,
                "b": dpost.sum(axis=0),
            }
            dout = (dpost @ group["W"]).reshape(cache["input_shape"])
        elif kind == "pool":
            in_shape = cache["input_shape"]
            n_img, c, h, w = in_shape
            dpooled = dout.reshape(n_img * c, -1)
            kk = cache["cols_shape"][1]
            dcols = np.zeros(cache["cols_shape"], dtype=dpooled.dtype)
            if spec.mode == "max":
                arg = cache["argmax"]
                np.put_along_axis(dcols, arg[:, None, :], dpooled[:, None, :], axis=1)
            else:
                dcols += dpooled[:, None, :] / kk
            dflat = col2im(
                dcols,
                (n_img * c, 1, h, w),
                spec.kernel_size,
                spec.stride,
                spec.padding,
            )
            dout = dflat.reshape(in_shape)
        elif kind == "conv":
            in_shape = cache["input_shape"]
            dpost = dout.reshape(n, spec.out_channels, -1)
            if cache["act_grad"] is not None:
                grad_mask = cache["act_grad"].reshape(n, spec.out_channels, -1)
                dpost = dpost * grad_mask
            cols = cache["cols"]
            group = params[spec.name]
            grads[spec.name] = {
                "W": np.einsum("nfp,nkp->fk", dpost, cols),
                "b": dpost.sum(axis=(0, 2)),
            }
            if cache is first_param_cache:
                # No earlier layer consumes dx; skip the expensive
                # col2im scatter for the input convolution.
                dout = np.zeros(in_shape, dtype=dpost.dtype)
            else:
                dcols = np.einsum("fk,nfp->nkp", group["W"], dpost)
                dout = col2im(
                    dcols, in_shape, spec.kernel_size, spec.stride, spec.padding
                )
        else:
            raise AssertionError("unknown cache kind %r" % (kind,))
    return grads


# ----------------------------------------------------------------------
# Optimizer loop
# ----------------------------------------------------------------------

def train(
    network: NetworkDescriptor,
    dataset: Dataset,
    epochs: int = 12,
    batch_size: int = 64,
    learning_rate: float = 2e-3,
    weight_decay: float = 1e-4,
    seed: int = 0,
) -> TrainingResult:
    """Adam training from a fresh He initialization.

    Adam's per-parameter scaling keeps the deeper proxies stable on the
    noisy synthetic task where plain momentum SGD needs per-network
    learning-rate tuning; gradients are additionally global-norm
    clipped.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    rng = np.random.default_rng(seed)
    params = init_parameters(network, rng)
    first_moment: Dict[str, Dict[str, np.ndarray]] = {
        name: {k: np.zeros_like(v) for k, v in params[name].items()}
        for name in params.layer_names()
    }
    second_moment: Dict[str, Dict[str, np.ndarray]] = {
        name: {k: np.zeros_like(v) for k, v in params[name].items()}
        for name in params.layer_names()
    }
    result = TrainingResult(params=params)
    n = dataset.n_samples
    step = 0
    for _epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = dataset.images[idx], dataset.labels[idx]
            probs, caches = _forward_with_cache(network, params, xb)
            epoch_loss += cross_entropy_loss(probs, yb) * len(idx)
            epoch_correct += int((probs.argmax(axis=1) == yb).sum())
            grads = _backward(network, params, caches, probs, yb)
            _clip_gradients(grads)
            step += 1
            for name, group_grads in grads.items():
                group = params[name]
                m1, m2 = first_moment[name], second_moment[name]
                for key, grad in group_grads.items():
                    if key == "W" and weight_decay:
                        grad = grad + weight_decay * group[key]
                    m1[key] = beta1 * m1[key] + (1 - beta1) * grad
                    m2[key] = beta2 * m2[key] + (1 - beta2) * grad**2
                    m1_hat = m1[key] / (1 - beta1**step)
                    m2_hat = m2[key] / (1 - beta2**step)
                    group[key] = (
                        group[key]
                        - learning_rate * m1_hat / (np.sqrt(m2_hat) + eps)
                    ).astype(np.float32)
        result.loss_history.append(epoch_loss / n)
        result.accuracy_history.append(epoch_correct / n)
    return result


def evaluate(
    network: NetworkDescriptor,
    params: NetworkParameters,
    dataset: Dataset,
    plan: Optional[PerforationPlan] = None,
    batch_size: int = 256,
) -> EvalResult:
    """Accuracy and mean output entropy, optionally under perforation.

    This is the measurement the accuracy-tuning loop repeats per
    candidate plan (entropy only at run time; accuracy too when labeled
    data exists, as in Fig. 16's validation).
    """
    correct = 0
    entropies: List[float] = []
    weights: List[int] = []
    for start in range(0, dataset.n_samples, batch_size):
        xb = dataset.images[start : start + batch_size]
        yb = dataset.labels[start : start + batch_size]
        probs = forward(network, params, xb, plan)
        correct += int((probs.argmax(axis=1) == yb).sum())
        entropies.append(mean_entropy(probs))
        weights.append(len(yb))
    total = dataset.n_samples
    avg_entropy = float(np.average(entropies, weights=weights))
    return EvalResult(
        accuracy=correct / total, mean_entropy=avg_entropy, n_samples=total
    )
