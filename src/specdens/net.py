"""A small fully-connected softmax classifier in plain numpy, built for
curvature analysis.

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

The forward state is feature-major: one column per example, so layer
inputs and slopes are (width, n) and probabilities and cotangents (C, n).
Every product is then a few wide GEMMs with a small output. A layer's
pull-back D A^T is the (fan_out, fan_in) block of the flat vector and is
written there in place; bias sums are GEMVs against a ones vector.

The flat layout is part of the checkpoint contract: for each layer in
order, the weight matrix (row-major, shape (fan_out, fan_in)) followed by
its bias. Hidden activations are tanh by default — twice differentiable,
which the Hessian products need — with relu available.
"""

from __future__ import annotations

import io
import json
import zipfile
import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import LabeledDataset
from .errors import DimensionMismatchError, InputFormatError, UsageError
from .operators import SymmetricOperator
from .storage import atomic_write_bytes

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

    @cached_property
    def param_count(self) -> int:
        return sum(
            dout * din + dout
            for din, dout in zip(self.layer_dims[:-1], self.layer_dims[1:])
        )


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
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel()
                           for W, b in zip(Ws, bs) for a in (W, b)])


def init_params(spec: MlpSpec, seed: int = 0) -> np.ndarray:
    """Gaussian fan-in init for weights, zero biases. Deterministic."""
    rng = np.random.default_rng([seed, 0])
    Ws, bs = [], []
    for din, dout in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
        Ws.append(rng.standard_normal((dout, din)) / np.sqrt(din))
        bs.append(np.zeros(dout))
    return flatten(Ws, bs)


# ---------------------------------------------------------------------------
# forward / backward cores: every array holds one column per example, and
# outputs are sums over the batch (callers divide by the example count)
# ---------------------------------------------------------------------------

def _forward(spec: MlpSpec, Ws, bs, X):
    """Returns layer inputs [A_0..A_{L-1}], the slopes phi'(S_l) of the
    hidden layers, and the logits, each (width, n) for the rows of X."""
    A = np.ascontiguousarray(X.T)
    acts, primes = [A], []
    for l in range(spec.depth):
        S = Ws[l] @ A
        S += bs[l][:, None]
        if l == spec.depth - 1:
            return acts, primes, S
        if spec.activation == "tanh":
            A = np.tanh(S)
            primes.append(1.0 - A * A)
        else:
            A = np.maximum(S, 0.0)
            primes.append((S > 0.0).astype(np.float64))
        acts.append(A)


def _softmax(Z: np.ndarray) -> np.ndarray:
    E = np.exp(Z - np.max(Z, axis=0))
    E /= E.sum(axis=0)
    return E


def _deltas(spec: MlpSpec, Ws, primes, D):
    """Pre-activation cotangents of every layer, top first, as (l, D_l),
    backpropagated from logit cotangents D (C, n)."""
    for l in range(spec.depth - 1, -1, -1):
        yield l, D
        if l > 0:
            D = Ws[l].T @ D
            D *= primes[l - 1]


def _r_forward(spec: MlpSpec, Ws, Vs, vbs, acts, primes, logits: bool = True):
    """Directional (JVP) pass along (Vs, vbs); returns RA list, RS list, RZ.

    ``RAs[0]`` is None: the input does not move with the parameters. With
    ``logits=False`` the pass stops below the output layer and RZ is None.
    """
    L = spec.depth
    RAs, RSs, RZ = [None], [], None
    for l in range(L if logits else L - 1):
        RS = Vs[l] @ acts[l]
        if l > 0:
            RS += Ws[l] @ RAs[l]
        RS += vbs[l][:, None]
        if l < L - 1:
            RAs.append(primes[l] * RS)
            RSs.append(RS)
        else:
            RZ = RS
    return RAs, RSs, RZ


def _fisher_mul(P: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Per-example (diag(p) - p p^T) u = p * (u - p.u) for column-aligned
    P, U, written over U."""
    U -= np.einsum("ij,ij->j", P, U)
    U *= P
    return U


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def loss_and_error(spec: MlpSpec, theta: np.ndarray,
                   data: LabeledDataset) -> tuple[float, float]:
    """Mean cross-entropy and misclassification fraction under argmax
    decoding, from one forward pass."""
    _check_data(spec, data)
    Ws, bs = unflatten(spec, theta)
    _, _, Z = _forward(spec, Ws, bs, data.x)
    zmax = np.max(Z, axis=0)
    lse = zmax + np.log(np.sum(np.exp(Z - zmax), axis=0))
    return (float(np.sum(lse - Z[data.y, np.arange(data.n)])) / data.n,
            int(np.sum(np.argmax(Z, axis=0) != data.y)) / data.n)


def gradient(spec: MlpSpec, theta: np.ndarray, data: LabeledDataset) -> np.ndarray:
    """Gradient of the mean cross-entropy loss, flat layout."""
    lin = linearize(spec, theta, data)
    return lin.vjp(lin.dZ) / lin.n


@dataclass(frozen=True)
class Linearization:
    """The network linearized around fixed parameters on a fixed batch.

    Everything that depends only on the parameters and the batch is
    computed once: the layer inputs, the hidden slopes phi', the softmax
    probabilities and the loss cotangent P - Y, and on first use the
    backward state the Hessian products need. Every product reuses it,
    and none forms a per-example Jacobian or parameter vector. Arrays hold
    one column per example, as do the logit directions and cotangents the
    products take and return. The batch's true labels and split name ride
    along, so a curvature routine needs nothing else.
    """

    spec: MlpSpec
    Ws: list
    acts: list             # layer inputs A_0 .. A_{L-1}, (width, n)
    primes: list           # phi'(S_l) of the hidden layers, (width, n)
    P: np.ndarray          # (C, n): softmax probabilities
    dZ: np.ndarray         # (C, n): P - Y, the logit cotangent of the loss
    labels: np.ndarray     # (n,): the true classes
    split: str             # the data set's split name

    @property
    def n(self) -> int:
        return self.P.shape[1]

    @cached_property
    def _ones(self) -> np.ndarray:  # batch sums are GEMVs against it
        return np.ones(self.n)

    @cached_property
    def backward(self) -> tuple[list, list]:
        """The loss cotangent at the pre-activation of every layer l >= 1,
        and its second-order term (W_l^T deltas[l]) * phi''(S_{l-1}); None
        at layer 0, whose input does not move with the parameters.

        Only the Hessian products need it, so G and the decomposition,
        which do not, never pay for it.
        """
        spec, Ws, primes = self.spec, self.Ws, self.primes
        L = spec.depth
        deltas, curvatures = [None] * L, [None] * L
        deltas[-1] = self.dZ
        for l in range(L - 1, 0, -1):
            U = Ws[l].T @ deltas[l]
            # phi'' is -2 tanh phi' for tanh and zero for relu
            curvatures[l] = U * (-2.0 * self.acts[l] * primes[l - 1]
                                 if spec.activation == "tanh" else 0.0)
            if l > 1:
                deltas[l - 1] = U * primes[l - 1]
        return deltas, curvatures

    def rows(self, idx) -> "Linearization":
        """The same linearization restricted to the examples ``idx``, bit
        for bit: ``take`` keeps the columns C-contiguous, as fresh ones are."""
        idx = np.arange(self.n)[idx]
        return Linearization(
            self.spec, self.Ws, [a.take(idx, axis=1) for a in self.acts],
            [d.take(idx, axis=1) for d in self.primes], self.P.take(idx, axis=1),
            self.dZ.take(idx, axis=1), self.labels[idx], self.split)

    def jvp(self, v: np.ndarray) -> np.ndarray:
        """Per-example logit directions J_i v, shape (C, n)."""
        Vs, vbs = unflatten(self.spec, v)
        return _r_forward(self.spec, self.Ws, Vs, vbs, self.acts,
                          self.primes)[2]

    def vjp(self, D: np.ndarray) -> np.ndarray:
        """Summed pull-back sum_i J_i^T D_i of logit cotangents D (C, n);
        each weight block D_l A_l^T is written straight into the output."""
        out = np.empty(self.spec.param_count)
        gWs, gbs = unflatten(self.spec, out)
        for l, Dl in _deltas(self.spec, self.Ws, self.primes, D):
            np.matmul(Dl, self.acts[l].T, out=gWs[l])
            np.matmul(Dl, self._ones, out=gbs[l])
        return out

    def vjp_sq_norms(self, D: np.ndarray) -> np.ndarray:
        """Per-example ||J_i^T D_i||^2, shape (n,), for D (C, n).

        A layer's weight block of one example's pull-back is the outer
        product of its pre-activation cotangent and its input, so its
        squared norm is ||delta||^2 ||a||^2 (Goodfellow, arXiv 1510.01799);
        the bias block adds ||delta||^2.
        """
        out = np.zeros(D.shape[1])
        for l, Dl in _deltas(self.spec, self.Ws, self.primes, D):
            a = self.acts[l]
            out += (np.einsum("ji,ji->i", Dl, Dl)
                    * (np.einsum("ji,ji->i", a, a) + 1.0))
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
    dZ = P.copy()
    dZ[data.y, np.arange(data.n)] -= 1.0
    return Linearization(spec, Ws, acts, primes, P, dZ, data.y, data.split)


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
    deltas, curvatures = lin.backward
    RD = _fisher_mul(lin.P, RZ) if outer else None  # None: zero seed
    out = np.empty(spec.param_count)
    gWs, gbs = unflatten(spec, out)
    for l in range(spec.depth - 1, -1, -1):
        D = deltas[l]
        if RD is None:
            np.matmul(D, RAs[l].T, out=gWs[l])
            gbs[l][:] = 0.0
        else:
            np.matmul(RD, acts[l].T, out=gWs[l])
            if l > 0:
                gWs[l] += D @ RAs[l].T
            np.matmul(RD, lin._ones, out=gbs[l])
        if l > 0:
            RU = Vs[l].T @ D
            if RD is not None:
                RU += Ws[l].T @ RD
            RU *= lin.primes[l - 1]
            RU += curvatures[l] * RSs[l - 1]
            RD = RU
    out /= lin.n
    return out


def gnvp(lin: Linearization, v: np.ndarray) -> np.ndarray:
    """Outer-product curvature term: average of J^T (diag(p) - p p^T) J v.

    Per example: push v through the directional forward pass (u = J v),
    multiply by the softmax second-moment factor, and pull back with a
    plain VJP. The Jacobian J is never formed. Positive semidefinite by
    construction.
    """
    g = lin.vjp(_fisher_mul(lin.P, lin.jvp(v)))
    g /= lin.n
    return g


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


def hessian_operator(lin: Linearization, which: str = "hess") -> SymmetricOperator:
    """Curvature of the mean loss on ``lin``'s batch as a matrix-free
    operator.

    ``which`` selects the full Hessian ("hess"), the outer-product term
    ("g"), or the remainder ("h"). Every matvec reuses the forward state in
    ``lin``. The label records both the kind and the data split, so derived
    operators read e.g. "hess[train]-g[train]".
    """
    if which not in _WHICH:
        raise UsageError(f"which must be one of {_WHICH}, got {which!r}")
    if which == "g":
        def matvec(v):
            return gnvp(lin, v)
    else:
        outer = which == "hess"

        def matvec(v):
            return hvp(lin, v, outer=outer)

    return SymmetricOperator(lin.spec.param_count, matvec,
                             label=f"{which}[{lin.split or 'data'}]")


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


# name -> (dtype save_checkpoint writes, dtype kinds a loaded member may
# have, ndim), in archive order, which decides the zip bytes; only velocity
# may be absent
_MEMBERS = {
    "format_version": (np.int64, "iu", 0),
    "layer_dims": (np.int64, "iu", 1),
    "activation": (np.str_, "U", 0),
    "theta": (np.float64, "f", 1),
    "epoch": (np.int64, "iu", 0),
    "seed": (np.int64, "iu", 0),
    "lr": (np.float64, "f", 0),
    "meta_json": (np.str_, "U", 0),
    "velocity": (np.float64, "f", 1),
}


def save_checkpoint(path, ck: Checkpoint) -> None:
    values = {"format_version": _CHECKPOINT_VERSION,
              "layer_dims": ck.spec.layer_dims,
              "activation": ck.spec.activation, "theta": ck.theta,
              "epoch": ck.epoch, "seed": ck.seed, "lr": ck.lr,
              "meta_json": json.dumps(ck.meta, sort_keys=True),
              "velocity": ck.velocity}
    buf = io.BytesIO()
    np.savez(buf, **{name: np.asarray(values[name], dtype=dtype)
                     for name, (dtype, _, _) in _MEMBERS.items()
                     if values[name] is not None})
    atomic_write_bytes(path, buf.getvalue())


def load_checkpoint(path) -> Checkpoint:
    try:
        # NpzFile, not np.load: that returns a .npy file as an array, and
        # leaks its own handle when the zip is refused
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh) as z:
            # one read each: NpzFile re-reads a member on every z[name]
            m = {name: z[name] for name in _MEMBERS if name in z.files}
    except (OSError, EOFError, ValueError, NotImplementedError, MemoryError,
            zipfile.BadZipFile, zlib.error) as err:
        raise InputFormatError(f"unreadable checkpoint {path}: {err}") from err
    missing = sorted(_MEMBERS.keys() - m.keys() - {"velocity"})
    if missing:
        raise InputFormatError(f"checkpoint lacks {', '.join(missing)}")
    for name, value in m.items():
        dtype, kinds, ndim = _MEMBERS[name]
        # a kind and a safe cast: no bool or int theta, no uint64 count, no
        # longdouble that float64 cannot hold
        if (value.dtype.kind not in kinds
                or not np.can_cast(value.dtype, dtype)):
            raise InputFormatError(f"checkpoint {name} has dtype {value.dtype}"
                                   f", want {np.dtype(dtype).name}")
        if value.ndim != ndim:
            raise InputFormatError(f"checkpoint {name} has shape {value.shape}"
                                   f", want {('a scalar', 'a vector')[ndim]}")
        m[name] = value = value.astype(dtype, copy=False)
        if kinds == "f" and not np.isfinite(value).all():
            raise InputFormatError(f"checkpoint {name} has non-finite entries")
        if kinds == "iu" and (value < 0).any():
            raise InputFormatError(
                f"checkpoint {name} is {value.tolist()}, want >= 0")
    version = int(m["format_version"])
    if version != _CHECKPOINT_VERSION:
        raise InputFormatError(f"checkpoint format version {version} "
                               f"unsupported (expected {_CHECKPOINT_VERSION})")
    try:
        spec = MlpSpec(layer_dims=m["layer_dims"],
                       activation=str(m["activation"]))
    except UsageError as err:
        raise InputFormatError(f"checkpoint {path}: {err}") from err
    try:
        meta = json.loads(str(m["meta_json"]))
    except (ValueError, RecursionError):
        meta = None
    if not isinstance(meta, dict):
        raise InputFormatError("checkpoint meta_json is not a JSON object")
    for name in ("theta", "velocity"):
        if name in m and m[name].shape != (spec.param_count,):
            raise InputFormatError(f"checkpoint {name} has {m[name].shape}, "
                                   f"spec wants ({spec.param_count},)")
    return Checkpoint(spec=spec, theta=m["theta"], epoch=int(m["epoch"]),
                      seed=int(m["seed"]), lr=float(m["lr"]),
                      velocity=m.get("velocity"), meta=meta)
