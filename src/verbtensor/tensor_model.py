"""The verb tensor classifier and its Adagrad training loop.

A verb is a K x K x 2 tensor that maps a (subject, object) embedding pair
into a 2-dimensional sentence space whose axes read as plausible and
implausible. The raw bilinear outputs pass through a sigmoid and then an
affine softmax layer with per-class parameters, giving a probability
distribution over the two classes.

Training minimizes, over all parameters B = (tensor, theta), the summed
KL divergence between one-hot gold distributions and the predicted
distributions, plus an L2 penalty (lambda/2) * ||B||^2. With one-hot targets
the KL term is exactly the cross entropy -log p[correct], which is what the
code computes. Gradients are exact chain-rule derivatives and updates use
per-parameter Adagrad.

One forward pass and one training kernel. ``_forward`` runs the forward
pass over a leading example axis (a GEMM with the tensor, then one batched
product with the objects); it serves the per-epoch objective and
``predict_batch``, of which ``predict`` is the one-row case. During training
the tensor and theta are views into one flat parameter vector, so a step's
Adagrad update is one run of in-place ufunc calls over all K*K*2 + 6 values.

An epoch is one call: ``_Workspace.epoch_runner`` returns a closure that
runs the one-example step for every row, with what it uses bound as locals,
so no Python call happens per example besides the numpy calls. A step makes
two vector-matrix products for the bilinear score, computes the two-class
head in Python floats, makes one outer-product GEMM for the tensor gradient,
then the L2 add and the Adagrad update, inline as nine in-place ufunc calls.
Call overhead sets a step's cost: the products are ``ndarray.dot`` calls, as
``np.dot`` adds an ``__array_function__`` dispatcher per call, every output
buffer is passed positionally, as parsing an ``out=`` keyword costs more
than the call's arithmetic, and lambda, the learning rate and epsilon are
0-d float64 arrays built once, as a ufunc converts a Python float operand on
every call. The bits stay those of ``np.dot`` and Python floats: the same
ufuncs and BLAS routines run in the same order on the same float64 values,
an int setting included. The tests hold the kernel, bit for bit, to an
N-example backward pass and Adagrad update kept in ``tests/`` as an oracle,
which the finite-difference tests pin in turn. Bit-identity fixes which
operations stay numpy: the logits and dL/da are BLAS products (BLAS fuses
multiply and add, a Python sum does not), the one non-trivial softmax
exponential is ``np.exp`` (``math.exp`` rounds differently). The kernel's
sigmoid is ``_sigmoid`` inlined on Python floats, its overflow to 0.0
included, which saves two Python frames a step. ``_forward`` computes the
same ``1 / (1 + exp(-z))`` over an array: libm's ``math.exp`` mapped over
``-z``, then numpy's add and divide, which round as Python's do; when an
``exp`` overflows it maps ``_sigmoid`` instead. The tests pin both to
scipy's ``expit`` bit for bit.
The objective trace comes from the GEMM forward pass rather than a
three-operand ``einsum`` and may differ from it in the last ulp.

A model holds its arrays and nothing else. Which verb it belongs to, and
how it was trained, are pipeline facts: the pipeline names the model file
and records the training in the model's manifest.
"""

import logging
import math
import random
from dataclasses import dataclass

import numpy as np

from .data import IMPLAUSIBLE, PLAUSIBLE
from .linalg import read_tvb, write_tvb
from .util import DataError, TrainingDiverged, derive_seed, open_output, shuffle

log = logging.getLogger(__name__)

SENTENCE_DIM = 2
PLAUSIBLE_INDEX = 0


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    adagrad_epsilon: float = 1e-8
    l2_lambda: float = 1e-4
    epochs: int = 100
    init_scale: float = 0.01
    seed: int = 13

    def __post_init__(self):
        for name in ("learning_rate", "adagrad_epsilon", "l2_lambda", "init_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.adagrad_epsilon <= 0:
            raise ValueError("adagrad_epsilon must be positive")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be a positive integer")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")
        if not math.isfinite(2 * self.init_scale):  # the width of init_model's range
            raise ValueError(f"init_scale must leave 2 * init_scale finite, got {self.init_scale}")


@dataclass
class VerbTensorModel:
    tensor: np.ndarray  # (K, K, SENTENCE_DIM)
    theta: np.ndarray   # (2, SENTENCE_DIM + 1): weights on sigmoid outputs plus bias

    @property
    def k(self) -> int:
        return int(self.tensor.shape[0])


@dataclass(frozen=True)
class TrainResult:
    model: VerbTensorModel
    objective_trace: tuple  # objective at init, then after each epoch


def init_model(k: int, config: TrainConfig) -> VerbTensorModel:
    """Uniform random initialization in [-init_scale, +init_scale], seeded."""
    rng = np.random.default_rng(derive_seed(config.seed, "init", k))
    tensor = rng.uniform(-config.init_scale, config.init_scale, size=(k, k, SENTENCE_DIM))
    theta = rng.uniform(-config.init_scale, config.init_scale, size=(2, SENTENCE_DIM + 1))
    return VerbTensorModel(tensor=tensor, theta=theta)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the two classes of (N, 2) logits.

    Slices stand in for the max and sum reductions: the same floating-point
    operations at a fraction of the call cost.
    """
    exp = np.exp(logits - np.maximum(logits[:, :1], logits[:, 1:]))
    return exp / (exp[:, :1] + exp[:, 1:])


def _sigmoid(x: float) -> float:
    """Logistic function of a Python float, bit for bit equal to ``expit``."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) is inf, where expit gives exactly 0.0
        return 0.0


def _forward(tensor, theta, subjects, objects_):
    """Pre-activations, sigmoid outputs and class distributions for N pairs.

    ``subjects`` and ``objects_`` are (N, K); ``z`` and ``p`` are (N, 2).
    ``a`` is (N, 3): the sigmoid outputs, then a constant 1 for theta's bias
    column, so the logits are ``a @ theta.T``.
    """
    n, k = subjects.shape
    partial = np.dot(subjects, tensor.reshape(k, k * SENTENCE_DIM)).reshape(n, k, SENTENCE_DIM)
    z = np.matmul(objects_[:, None, :], partial)[:, 0]
    a = np.ones((n, SENTENCE_DIM + 1))
    try:  # libm's exp as in _sigmoid; numpy's add and divide round as Python's do
        exp_neg_z = np.fromiter(map(math.exp, (-z).ravel().tolist()), np.float64, z.size)
    except OverflowError:
        a[:, :SENTENCE_DIM] = np.fromiter(map(_sigmoid, z.ravel().tolist()), np.float64,
                                          z.size).reshape(n, SENTENCE_DIM)
    else:
        a[:, :SENTENCE_DIM] = (1.0 / (1.0 + exp_neg_z)).reshape(n, SENTENCE_DIM)
    return z, a, _softmax(np.dot(a, theta.T))


def _split(flat, k):
    """Tensor and theta views into a flat vector laid out like the parameters."""
    size = k * k * SENTENCE_DIM
    return flat[:size].reshape(k, k, SENTENCE_DIM), flat[size:].reshape(2, SENTENCE_DIM + 1)


def _objective_arrays(tensor, theta, subjects, objects_, targets, l2_lambda):
    # overflow here is the divergence signal the caller checks for, not noise
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, _, p = _forward(tensor, theta, subjects, objects_)
        correct = np.argmax(targets, axis=1)
        losses = -np.log(p[np.arange(len(p)), correct])
        reg = 0.5 * l2_lambda * float(np.sum(tensor * tensor))
        reg += 0.5 * l2_lambda * float(np.sum(theta * theta))
        return float(losses.sum() + reg)


class _Workspace:
    """Flat parameters with tensor and theta views, plus flat gradient,
    Adagrad accumulator and scratch buffers, allocated once per model."""

    def __init__(self, model: VerbTensorModel, l2_lambda: float):
        k = model.k
        self.params = np.concatenate([model.tensor.ravel(), model.theta.ravel()])
        self.tensor, self.theta = _split(self.params, k)
        self.grad = np.empty_like(self.params)
        self.acc = np.zeros_like(self.params)
        self.scratch = np.empty_like(self.params)
        g_tensor, self.g_theta = _split(self.grad, k)
        self.g_tensor = g_tensor.reshape(k * k, SENTENCE_DIM)
        self.theta_w = self.theta[:, :SENTENCE_DIM]
        self.l2_lambda = l2_lambda

    def epoch_runner(self, learning_rate: float, epsilon: float):
        """The one-example Adagrad steps of an epoch, ``run(rows)``.

        ``run`` takes one step per row, in order. A row is ``(s, o, s_column,
        o_row, t0, t1)``: ``s`` and ``o`` are (K,) embeddings, ``s_column``
        and ``o_row`` their (K, 1) and (1, K) views, and ``t0``, ``t1`` the
        target as floats. Chain rule, layer by layer: dL/dlogit = p - t; the
        theta gradient is the product of that with (a, 1); dL/da flows back
        through theta's weight block; dL/dz scales by the sigmoid derivative
        a(1-a); and the tensor gradient is the GEMM of the outer product
        s o^T, flattened to (K*K, 1), with dL/dz as (1, 2). The L2 term adds
        lambda times every parameter, tensor and theta alike. Then, inline,
        Adagrad adds grad^2 to ``acc`` and subtracts the step it leaves in
        ``grad``, lr * grad / (sqrt(acc) + eps), from the parameters. The
        two-class quantities are Python floats; lambda, lr and eps are 0-d arrays.
        Every output buffer is passed positionally, and the sigmoid is
        ``_sigmoid`` inlined, bit for bit.
        """
        k = self.tensor.shape[0]
        tensor_2k = self.tensor.reshape(k, k * SENTENCE_DIM)
        theta_t, theta_w, g_theta = self.theta.T, self.theta_w, self.g_theta.reshape(-1)
        a = np.ones(SENTENCE_DIM + 1)
        d_logit = np.empty(SENTENCE_DIM)
        d_z = np.empty((1, SENTENCE_DIM))
        pairs = np.empty((k * k, 1))
        pairs_kk = pairs.reshape(k, k)
        partial_2k = np.empty(k * SENTENCE_DIM)
        partial = partial_2k.reshape(k, SENTENCE_DIM)
        g_tensor, params, grad, acc, scratch, regularize = (
            self.g_tensor, self.params, self.grad, self.acc, self.scratch, bool(self.l2_lambda))
        lam, lr, eps = (np.array(value, dtype=np.float64)
                        for value in (self.l2_lambda, learning_rate, epsilon))
        add, multiply, divide, subtract, sqrt, exp, math_exp = (
            np.add, np.multiply, np.divide, np.subtract, np.sqrt, np.exp, math.exp)

        def run(rows):
            for s, o, s_column, o_row, t0, t1 in rows:
                s.dot(tensor_2k, partial_2k)
                z0, z1 = o.dot(partial).tolist()
                try:  # _sigmoid, inline: exp(-z) overflows to inf, where expit gives 0.0
                    a0 = 1.0 / (1.0 + math_exp(-z0))
                except OverflowError:
                    a0 = 0.0
                try:
                    a1 = 1.0 / (1.0 + math_exp(-z1))
                except OverflowError:
                    a1 = 0.0
                a[0], a[1] = a0, a1
                l0, l1 = a.dot(theta_t).tolist()
                # softmax: the larger logit's exponential is exp(0) = 1, and
                # l - l + 1.0 is 1.0 too, or NaN for an infinite l as in _softmax
                if l0 >= l1:
                    e0, e1 = l0 - l0 + 1.0, float(exp(l1 - l0))
                else:
                    e0, e1 = float(exp(l0 - l1)), l1 - l1 + 1.0
                total = e0 + e1
                d0 = d_logit[0] = e0 / total - t0
                d1 = d_logit[1] = e1 / total - t1
                g_theta[0], g_theta[1], g_theta[2] = d0 * a0, d0 * a1, d0
                g_theta[3], g_theta[4], g_theta[5] = d1 * a0, d1 * a1, d1
                g0, g1 = d_logit.dot(theta_w).tolist()
                d_z[0, 0] = g0 * a0 * (1.0 - a0)
                d_z[0, 1] = g1 * a1 * (1.0 - a1)
                s_column.dot(o_row, pairs_kk)
                pairs.dot(d_z, g_tensor)
                if regularize:
                    add(grad, multiply(params, lam, scratch), grad)
                multiply(grad, grad, scratch)
                add(acc, scratch, acc)
                sqrt(acc, scratch)
                add(scratch, eps, scratch)
                multiply(grad, lr, grad)
                divide(grad, scratch, grad)
                subtract(params, grad, params)

        return run


def _lookup_triples(triples, embeddings):
    subjects, objects_ = embeddings.pairs(triples)
    plausible = np.fromiter([t.label == PLAUSIBLE for t in triples], bool, len(triples))
    targets = np.where(plausible[:, None], (1.0, 0.0), (0.0, 1.0))  # one-hot gold
    return subjects, objects_, targets


def train(triples, embeddings, config: TrainConfig) -> TrainResult:
    """Fit a verb tensor model on a sequence of labeled triples with Adagrad.

    Examples are visited in a freshly shuffled order every epoch (seeded from
    the config and drawn by ``util.shuffle``, which permutes as
    ``random.Random.shuffle`` does), for the configured number of epochs,
    each epoch in one call of ``_Workspace.epoch_runner`` (see the module
    docstring for what the tests hold it to). The returned trace holds the
    full-data objective at initialization and after every epoch. A
    non-finite objective, or a non-finite Adagrad accumulator (after which
    every step is zero and the model stops moving), raises
    ``TrainingDiverged`` naming the epoch. A noun without an embedding
    raises ``DataError``.
    """
    subjects, objects_, targets = _lookup_triples(triples, embeddings)
    work = _Workspace(init_model(subjects.shape[1], config), config.l2_lambda)

    def epoch_objective(epoch):
        value = _objective_arrays(work.tensor, work.theta, subjects, objects_, targets,
                                  config.l2_lambda)
        if not np.isfinite(value):
            raise TrainingDiverged(f"objective became non-finite at epoch {epoch}")
        return value

    trace = [epoch_objective(0)]
    run_epoch = work.epoch_runner(config.learning_rate, config.adagrad_epsilon)
    # one row per example, shuffled in place: the order carries over between epochs
    rows = [(s, o, s[:, None], o[None], t0, t1)
            for s, o, (t0, t1) in zip(subjects, objects_, targets.tolist())]
    order_rng = random.Random(derive_seed(config.seed, "epoch-order"))

    for epoch in range(1, config.epochs + 1):
        shuffle(order_rng, rows)
        # an overflow in a step shows as a non-finite objective or accumulator below
        with np.errstate(over="ignore", invalid="ignore"):
            run_epoch(rows)
        trace.append(epoch_objective(epoch))
        if not np.isfinite(work.acc).all():
            raise TrainingDiverged(f"Adagrad accumulator became non-finite at epoch {epoch}")

    model = VerbTensorModel(tensor=work.tensor, theta=work.theta)
    return TrainResult(model=model, objective_trace=tuple(trace))


def predict(model: VerbTensorModel, n_s, n_o):
    """Label and plausibility probability for one pair of (K,) float arrays."""
    labels, p_plausible = predict_batch(model, n_s[None], n_o[None])
    return labels[0], float(p_plausible[0])


def predict_batch(model: VerbTensorModel, subjects, objects_):
    """Labels and plausibility probabilities for N pairs, one forward pass.

    ``subjects`` and ``objects_`` are (N, K) float arrays. Ties at exactly
    0.5 resolve to plausible; the probability doubles as the ranking score
    for AUC.
    """
    _, _, p = _forward(model.tensor, model.theta, subjects, objects_)
    p_plausible = p[:, PLAUSIBLE_INDEX]
    labels = [PLAUSIBLE if value >= 0.5 else IMPLAUSIBLE for value in p_plausible.tolist()]
    return labels, p_plausible


def save_model(path, model: VerbTensorModel) -> None:
    """Write ``model`` to ``path``: its tensor block, then its theta block."""
    with open_output(path, "wb") as handle:
        write_tvb(handle, model.tensor)
        write_tvb(handle, model.theta)


def load_model(path) -> VerbTensorModel:
    """Read a model file; a malformed block, bytes after the theta block, wrong
    shapes or a non-finite value raise ``DataError`` naming the file."""
    with open(path, "rb") as handle:
        try:
            tensor = read_tvb(handle)
            theta = read_tvb(handle)
        except ValueError as exc:
            raise DataError(f"malformed model file {path}: {exc}") from exc
        if handle.read(1):
            raise DataError(f"malformed model file {path}: bytes after the theta block")
    k = tensor.shape[0]
    if tensor.shape != (k, k, SENTENCE_DIM) or theta.shape != (2, SENTENCE_DIM + 1):
        raise DataError(
            f"malformed model file {path}: tensor {tensor.shape} and theta "
            f"{theta.shape} are not (K, K, {SENTENCE_DIM}) and (2, {SENTENCE_DIM + 1})"
        )
    if not (np.isfinite(tensor).all() and np.isfinite(theta).all()):
        raise DataError(f"malformed model file {path}: non-finite values")
    return VerbTensorModel(tensor=tensor, theta=theta)
