"""A small fully-connected softmax classifier in plain numpy, built for
curvature analysis rather than speed.

Everything downstream needs exact, deterministic derivatives of the mean
cross-entropy loss in a flat parameter vector:

- `gradient`   — reverse mode,
- `linearize`  — one stored forward state (layer inputs, hidden slopes,
  softmax probabilities, loss cotangent) for JVPs, summed VJPs and
  per-example VJP norms, the building blocks of :mod:`specdens.decomp`,
  and for the curvature products below, which all reuse it:
- `hvp`        — full Hessian-vector products by forward-over-reverse, or
  with a zero tangent seed at the logits the remainder H = Hess - G in the
  same single pass,
- `gnvp`       — the outer-product (Gauss-Newton) curvature term G,
  computed per example as J^T (diag(p) - p p^T) J v without materializing
  J,
- `hvp_h`      — H v in one call from (spec, theta, data).

hvp(v) = gnvp(v) + hvp(v, outer=False) holds to round-off (about 1e-15
relative); the three are separate passes, not differences of one another.

The flat layout is part of the checkpoint contract: for each layer in
order, the weight matrix (row-major, shape (fan_out, fan_in)) followed by
its bias. Hidden activations are tanh by default — twice differentiable,
which the Hessian products need — with relu available.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import LabeledDataset, one_hot
from .errors import DimensionMismatchError, InputFormatError, UsageError
from .operators import SymmetricOperator

_CHECKPOINT_VERSION = 1

_ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer widths input..output, and the hidden activation."""

    layer_dims: tuple[int, ...]
    activation: str = "tanh"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        if len(dims) < 3:
            raise UsageError("need at least one hidden layer")
        if any(d < 1 for d in dims):
            raise UsageError("all layer widths must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise UsageError(
                f"unknown activation {self.activation!r}; pick from {_ACTIVATIONS}"
            )
        object.__setattr__(self, "layer_dims", dims)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def class_count(self) -> int:
        return self.layer_dims[-1]

    @property
    def depth(self) -> int:
        """Number of weight layers."""
        return len(self.layer_dims) - 1

    @property
    def param_count(self) -> int:
        return sum(
            dout * din + dout
            for din, dout in zip(self.layer_dims[:-1], self.layer_dims[1:])
        )

    def to_dict(self) -> dict:
        return {"layer_dims": list(self.layer_dims), "activation": self.activation}

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        return cls(layer_dims=tuple(d["layer_dims"]), activation=d["activation"])


def unflatten(spec: MlpSpec, theta: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split a flat parameter vector into per-layer (weights, biases)."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.param_count,):
        raise UsageError(
            f"theta has {theta.shape} entries, spec wants ({spec.param_count},)"
        )
    Ws, bs = [], []
    pos = 0
    for din, dout in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
        Ws.append(theta[pos:pos + dout * din].reshape(dout, din))
        pos += dout * din
        bs.append(theta[pos:pos + dout])
        pos += dout
    return Ws, bs


def flatten(Ws: list[np.ndarray], bs: list[np.ndarray]) -> np.ndarray:
    parts = []
    for W, b in zip(Ws, bs):
        parts.append(np.asarray(W, dtype=np.float64).ravel())
        parts.append(np.asarray(b, dtype=np.float64).ravel())
    return np.concatenate(parts)


def init_params(spec: MlpSpec, seed: int = 0) -> np.ndarray:
    """Gaussian fan-in init for weights, zero biases. Deterministic."""
    rng = np.random.default_rng([seed, 0])
    Ws, bs = [], []
    for din, dout in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
        Ws.append(rng.standard_normal((dout, din)) / np.sqrt(din))
        bs.append(np.zeros(dout))
    return flatten(Ws, bs)


# ---------------------------------------------------------------------------
# forward / backward cores (outputs are sums over the batch; callers divide
# by the example count)
# ---------------------------------------------------------------------------

def _phi_second(spec: MlpSpec, A: np.ndarray, prime: np.ndarray) -> np.ndarray:
    """phi'' of a hidden layer from its output A and its slope phi'."""
    if spec.activation == "tanh":
        return -2.0 * A * prime
    return np.zeros_like(A)


def _forward(spec: MlpSpec, Ws, bs, X):
    """Returns layer inputs [A_0..A_{L-1}], the slopes phi'(S_l) of the
    hidden layers, and the logits."""
    acts = [X]
    primes = []
    A = X
    L = spec.depth
    for l in range(L):
        S = A @ Ws[l].T + bs[l]
        if l < L - 1:
            if spec.activation == "tanh":
                A = np.tanh(S)
                primes.append(1.0 - A * A)
            else:
                A = np.maximum(S, 0.0)
                primes.append((S > 0.0).astype(np.float64))
            acts.append(A)
        else:
            logits = S
    return acts, primes, logits


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - np.max(Z, axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def _loss_sum(Z: np.ndarray, y: np.ndarray) -> float:
    zmax = np.max(Z, axis=1)
    lse = zmax + np.log(np.sum(np.exp(Z - zmax[:, None]), axis=1))
    return float(np.sum(lse - Z[np.arange(Z.shape[0]), y]))


def _deltas(spec: MlpSpec, Ws, primes, D):
    """Pre-activation cotangents of every layer, top first, as (l, D_l),
    backpropagated from logit cotangents D (n, C)."""
    for l in range(spec.depth - 1, -1, -1):
        yield l, D
        if l > 0:
            D = (D @ Ws[l]) * primes[l - 1]


def _backward_sums(spec: MlpSpec, Ws, acts, primes, D):
    """Plain VJP from logit cotangents D (n, C); returns summed grads."""
    L = spec.depth
    gWs = [None] * L
    gbs = [None] * L
    for l, Dl in _deltas(spec, Ws, primes, D):
        gWs[l] = Dl.T @ acts[l]
        gbs[l] = Dl.sum(axis=0)
    return gWs, gbs


def _r_forward(spec: MlpSpec, Ws, Vs, vbs, acts, primes, logits: bool = True):
    """Directional (JVP) pass along (Vs, vbs); returns RA list, RS list, RZ.

    The input does not move with the parameters, so ``RAs[0]`` is None and
    layer 0 has no ``RA @ W^T`` term. With ``logits=False`` the pass stops
    below the output layer and RZ is None.
    """
    L = spec.depth
    RAs, RSs, RZ = [None], [], None
    for l in range(L if logits else L - 1):
        RS = acts[l] @ Vs[l].T
        if l > 0:
            RS += RAs[l] @ Ws[l].T
        RS += vbs[l]
        if l < L - 1:
            RAs.append(primes[l] * RS)
            RSs.append(RS)
        else:
            RZ = RS
    return RAs, RSs, RZ


def _fisher_mul(P: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Per-example (diag(p) - p p^T) u for row-aligned P, U."""
    return P * U - P * np.sum(P * U, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def predict_logits(spec: MlpSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    Ws, bs = unflatten(spec, theta)
    _, _, Z = _forward(spec, Ws, bs, np.asarray(X, dtype=np.float64))
    return Z


def predict_probs(spec: MlpSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    return _softmax(predict_logits(spec, theta, X))


def loss_and_error(spec: MlpSpec, theta: np.ndarray,
                   data: LabeledDataset) -> tuple[float, float]:
    """Mean cross-entropy and misclassification fraction under argmax
    decoding, from one forward pass."""
    _check_data(spec, data)
    Ws, bs = unflatten(spec, theta)
    _, _, Z = _forward(spec, Ws, bs, data.x)
    return (_loss_sum(Z, data.y) / data.n,
            int(np.sum(np.argmax(Z, axis=1) != data.y)) / data.n)


def loss(spec: MlpSpec, theta: np.ndarray, data: LabeledDataset) -> float:
    """Mean cross-entropy over all examples."""
    return loss_and_error(spec, theta, data)[0]


def error_rate(spec: MlpSpec, theta: np.ndarray, data: LabeledDataset) -> float:
    """Misclassification fraction under argmax decoding."""
    return loss_and_error(spec, theta, data)[1]


def gradient(spec: MlpSpec, theta: np.ndarray, data: LabeledDataset) -> np.ndarray:
    """Gradient of the mean cross-entropy loss, flat layout."""
    lin = linearize(spec, theta, data)
    return lin.vjp(lin.cotangent) / lin.n


@dataclass(frozen=True)
class Linearization:
    """The network linearized around fixed parameters on a fixed batch.

    Everything that depends only on the parameters and the batch is
    computed once: the layer inputs, the hidden slopes phi', the softmax
    probabilities and the loss cotangent P - Y, and on first use the
    backward state the Hessian products need. Every product below and
    every curvature product reuses it, and none forms a per-example
    Jacobian or a per-example parameter vector. All arrays hold one row
    per example.
    """

    spec: MlpSpec
    Ws: list
    acts: list             # layer inputs A_0 .. A_{L-1}
    primes: list           # phi'(S_l) of the hidden layers
    probs: np.ndarray      # (n, C)
    cotangent: np.ndarray  # (n, C): P - Y, the logit cotangent of the loss

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @cached_property
    def backward(self) -> tuple[list, list]:
        """The loss cotangent at the pre-activation of every layer l >= 1,
        and its second-order term (deltas[l] @ W_l) * phi''(S_{l-1}); None
        at layer 0, whose input does not move with the parameters.

        Only the Hessian products need it, so G and the decomposition,
        which do not, never pay for it.
        """
        spec, Ws, primes = self.spec, self.Ws, self.primes
        L = spec.depth
        deltas = [None] * L
        curvatures = [None] * L
        deltas[-1] = self.cotangent
        for l in range(L - 1, 0, -1):
            U = deltas[l] @ Ws[l]
            curvatures[l] = U * _phi_second(spec, self.acts[l], primes[l - 1])
            if l > 1:
                deltas[l - 1] = U * primes[l - 1]
        return deltas, curvatures

    def rows(self, idx) -> "Linearization":
        """The same linearization restricted to the examples ``idx``."""
        return Linearization(self.spec, self.Ws, [a[idx] for a in self.acts],
                             [d[idx] for d in self.primes], self.probs[idx],
                             self.cotangent[idx])

    def jvp(self, v: np.ndarray) -> np.ndarray:
        """Per-example logit directions J_i v, shape (n, C)."""
        Vs, vbs = unflatten(self.spec, v)
        return _r_forward(self.spec, self.Ws, Vs, vbs, self.acts,
                          self.primes)[2]

    def vjp(self, D: np.ndarray) -> np.ndarray:
        """Summed pull-back sum_i J_i^T D_i of logit cotangents D (n, C)."""
        return flatten(*_backward_sums(self.spec, self.Ws, self.acts,
                                       self.primes, D))

    def vjp_sq_norms(self, D: np.ndarray) -> np.ndarray:
        """Per-example ||J_i^T D_i||^2, shape (n,).

        A layer's weight block of one example's pull-back is the outer
        product of its pre-activation cotangent and its input, so its
        squared norm is ||delta||^2 ||a||^2 (Goodfellow, arXiv 1510.01799);
        the bias block adds ||delta||^2.
        """
        out = np.zeros(D.shape[0])
        for l, Dl in _deltas(self.spec, self.Ws, self.primes, D):
            a = self.acts[l]
            out += (np.einsum("ij,ij->i", Dl, Dl)
                    * (np.einsum("ij,ij->i", a, a) + 1.0))
        return out


def linearize(spec: MlpSpec, theta: np.ndarray,
              data: LabeledDataset) -> Linearization:
    """Forward state of ``data`` at ``theta``, ready for JVPs, VJPs and
    curvature products.

    Holds O(n * widths) floats; rejects data that does not fit the network
    and empty data.
    """
    _check_data(spec, data)
    Ws, bs = unflatten(spec, np.array(theta, dtype=np.float64, copy=True))
    acts, primes, Z = _forward(spec, Ws, bs, data.x)
    P = _softmax(Z)
    return Linearization(spec, Ws, acts, primes, P,
                         P - one_hot(data.y, spec.class_count))


def hvp(lin: Linearization, v: np.ndarray, outer: bool = True) -> np.ndarray:
    """Hessian-vector product of the mean loss, forward-over-reverse.

    One directional forward sweep, then one backward sweep that propagates
    the directional derivative RD of the loss cotangent; the cotangent
    itself and its second-order term come from ``lin.backward`` (Pearlmutter
    1994). The tangent seed at the logits selects the product: the Fisher
    term (diag(p) - p p^T) J v gives the full Hessian; ``outer=False`` seeds
    zero and gives the remainder H = Hess - G, whose top layer then needs
    neither the logit direction nor any RD product.
    """
    spec, Ws, acts = lin.spec, lin.Ws, lin.acts
    Vs, vbs = unflatten(spec, v)
    RAs, RSs, RZ = _r_forward(spec, Ws, Vs, vbs, acts, lin.primes,
                              logits=outer)
    L = spec.depth
    deltas, curvatures = lin.backward
    RD = _fisher_mul(lin.probs, RZ) if outer else None  # None: zero seed
    gWs = [None] * L
    gbs = [None] * L
    for l in range(L - 1, -1, -1):
        D = deltas[l]
        if RD is None:
            gWs[l] = D.T @ RAs[l]
            gbs[l] = np.zeros(Ws[l].shape[0])
        else:
            gWs[l] = RD.T @ acts[l]
            if l > 0:
                gWs[l] += D.T @ RAs[l]
            gbs[l] = RD.sum(axis=0)
        if l > 0:
            RU = D @ Vs[l]
            if RD is not None:
                RU = RD @ Ws[l] + RU
            RD = RU * lin.primes[l - 1] + curvatures[l] * RSs[l - 1]
    return flatten(gWs, gbs) / lin.n


def gnvp(lin: Linearization, v: np.ndarray) -> np.ndarray:
    """Outer-product curvature term: average of J^T (diag(p) - p p^T) J v.

    Per example: push v through the directional forward pass (u = J v),
    multiply by the softmax second-moment factor, and pull back with a
    plain VJP. The Jacobian J is never formed. Positive semidefinite by
    construction.
    """
    return lin.vjp(_fisher_mul(lin.probs, lin.jvp(v))) / lin.n


def hvp_h(spec: MlpSpec, theta: np.ndarray, data: LabeledDataset,
          v: np.ndarray) -> np.ndarray:
    """The non-outer-product remainder H v = (Hess - G) v of the mean loss
    on ``data`` at ``theta``: one forward pass and one fused
    forward-over-reverse pass."""
    return hvp(linearize(spec, theta, data), v, outer=False)


def _check_data(spec: MlpSpec, data: LabeledDataset) -> None:
    if data.n < 1:
        raise UsageError("need at least one example")
    if data.input_dim != spec.input_dim:
        raise DimensionMismatchError(
            f"data dim {data.input_dim} != network input dim {spec.input_dim}"
        )
    if data.class_count != spec.class_count:
        raise DimensionMismatchError(
            f"data classes {data.class_count} != network classes {spec.class_count}"
        )


_WHICH = ("hess", "g", "h")


def hessian_operator(spec: MlpSpec, theta: np.ndarray, data: LabeledDataset,
                     which: str = "hess", *,
                     lin: Linearization | None = None) -> SymmetricOperator:
    """Curvature of the mean loss on ``data`` as a matrix-free operator.

    ``which`` selects the full Hessian ("hess"), the outer-product term
    ("g"), or the remainder ("h"). The forward state is computed once, here,
    unless ``lin``, the linearization of ``data`` at ``theta`` that the
    caller already holds, is passed; every matvec reuses it. A ``lin``
    built for another network or other inputs is rejected; ``theta`` is
    then not read again and must be the one ``lin`` was built at. The
    label records both the kind and the data split, so derived operators
    read e.g. "hess[train]-g[train]".
    """
    if which not in _WHICH:
        raise UsageError(f"which must be one of {_WHICH}, got {which!r}")
    if lin is None:
        lin = linearize(spec, theta, data)
    elif lin.spec != spec or not np.array_equal(lin.acts[0], data.x):
        raise UsageError("lin is not the linearization of this network on "
                         "these inputs")
    if which == "g":
        def matvec(v):
            return gnvp(lin, v)
    else:
        outer = which == "hess"

        def matvec(v):
            return hvp(lin, v, outer=outer)

    split = data.split or "data"
    return SymmetricOperator(spec.param_count, matvec, label=f"{which}[{split}]")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Checkpoint:
    """A training snapshot: parameters plus enough state to resume exactly."""

    spec: MlpSpec
    theta: np.ndarray
    epoch: int
    seed: int
    lr: float
    velocity: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def save_checkpoint(path, ck: Checkpoint) -> None:
    payload = {
        "format_version": np.int64(_CHECKPOINT_VERSION),
        "layer_dims": np.asarray(ck.spec.layer_dims, dtype=np.int64),
        "activation": np.str_(ck.spec.activation),
        "theta": np.asarray(ck.theta, dtype=np.float64),
        "epoch": np.int64(ck.epoch),
        "seed": np.int64(ck.seed),
        "lr": np.float64(ck.lr),
        "meta_json": np.str_(json.dumps(ck.meta, sort_keys=True)),
    }
    if ck.velocity is not None:
        payload["velocity"] = np.asarray(ck.velocity, dtype=np.float64)
    buf = io.BytesIO()
    np.savez(buf, **payload)
    from .storage import atomic_write_bytes

    atomic_write_bytes(path, buf.getvalue())


def load_checkpoint(path) -> Checkpoint:
    try:
        with np.load(path, allow_pickle=False) as z:
            version = int(z["format_version"])
            if version != _CHECKPOINT_VERSION:
                raise InputFormatError(
                    f"checkpoint format version {version} unsupported "
                    f"(expected {_CHECKPOINT_VERSION})"
                )
            spec = MlpSpec(
                layer_dims=tuple(int(d) for d in z["layer_dims"]),
                activation=str(z["activation"]),
            )
            theta = np.asarray(z["theta"], dtype=np.float64)
            velocity = (np.asarray(z["velocity"], dtype=np.float64)
                        if "velocity" in z.files else None)
            ck = Checkpoint(
                spec=spec,
                theta=theta,
                epoch=int(z["epoch"]),
                seed=int(z["seed"]),
                lr=float(z["lr"]),
                velocity=velocity,
                meta=json.loads(str(z["meta_json"])),
            )
    except (OSError, EOFError, KeyError, ValueError, NotImplementedError,
            zipfile.BadZipFile) as err:
        raise InputFormatError(f"unreadable checkpoint {path}: {err}") from err
    if ck.theta.shape != (spec.param_count,):
        raise InputFormatError(
            f"checkpoint theta has {ck.theta.shape}, spec wants "
            f"({spec.param_count},)"
        )
    return ck
