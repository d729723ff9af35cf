import math
import random
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import gold_dist, holdout_halves, planted_dataset
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from verbtensor import tensor_model
from verbtensor.corpus import Vocabulary
from verbtensor.data import IMPLAUSIBLE, PLAUSIBLE, LabeledTriple, VerbDataset
from verbtensor.evaluation import roc_auc
from verbtensor.tensor_model import (
    SENTENCE_DIM,
    TrainConfig,
    VerbTensorModel,
    _forward,
    _lookup_triples,
    _objective_arrays,
    _sigmoid,
    _split,
    _Workspace,
    init_model,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
)
from verbtensor.util import DataError, TrainingDiverged, derive_seed
from verbtensor.vectors import EmbeddingTable

ONE_HOT_TOP = np.array([1.0, 0.0])
ONE_HOT_BOT = np.array([0.0, 1.0])


# The N-example backward pass, the Adagrad update and the objective of a
# batch of (subject, object, target) examples: the oracle that
# ``epoch_runner`` is held to bit for bit. The finite-difference tests pin
# the oracle itself.

@dataclass(frozen=True)
class Gradients:
    tensor: np.ndarray
    theta: np.ndarray


class OracleWorkspace(_Workspace):
    def gradient(self, subjects, objects_, targets) -> None:
        """Regularized loss gradient summed over N examples, into ``grad``.

        Chain rule, layer by layer: dL/dlogit = p - t; the theta gradient is
        the product of that with (a, 1); dL/da flows back through
        theta's weight block; dL/dz scales by the sigmoid derivative a(1-a);
        and the tensor gradient is the rank-1 expansion (s[i] * o[j]) * dz[c].
        The L2 term adds lambda times every parameter.
        """
        _, a, p = _forward(self.tensor, self.theta, subjects, objects_)
        d_logit = p - targets
        np.dot(d_logit.T, a, out=self.g_theta)
        a = a[:, :SENTENCE_DIM]
        d_z = np.dot(d_logit, self.theta_w) * a * (1.0 - a)
        pairs = (subjects[:, :, None] * objects_[:, None, :]).reshape(len(subjects), -1)
        np.dot(pairs.T, d_z, out=self.g_tensor)
        if self.l2_lambda:
            self.grad += np.multiply(self.params, self.l2_lambda, out=self.scratch)


def adagrad_step(param, grad, accumulator, learning_rate, epsilon, scratch) -> None:
    """In-place Adagrad update: accumulate squared gradient, scale the step.

    ``grad`` is overwritten with the step taken. ``scratch``, an array shaped
    like ``param``, saves an allocation per call. The oracle's own update:
    the kernel inlines the same seven operations.
    """
    squared = np.multiply(grad, grad, out=scratch)
    accumulator += squared
    denominator = np.sqrt(accumulator, out=squared)
    denominator += epsilon
    grad *= learning_rate
    grad /= denominator
    param -= grad


def _batch_arrays(batch):
    subjects = np.asarray([np.asarray(s, dtype=np.float64) for s, _, _ in batch])
    objects_ = np.asarray([np.asarray(o, dtype=np.float64) for _, o, _ in batch])
    targets = np.asarray([np.asarray(t, dtype=np.float64) for _, _, t in batch])
    return subjects, objects_, targets


def objective(model: VerbTensorModel, batch, l2_lambda: float) -> float:
    """Summed cross entropy over the batch plus the L2 penalty.

    Raises when the value is non-finite, which indicates diverging
    parameters rather than a recoverable condition.
    """
    if not batch:
        raise ValueError("objective requires a non-empty batch")
    subjects, objects_, targets = _batch_arrays(batch)
    value = _objective_arrays(model.tensor, model.theta, subjects, objects_, targets, l2_lambda)
    if not np.isfinite(value):
        raise TrainingDiverged("objective is non-finite: parameters diverged")
    return value


def gradients(model: VerbTensorModel, example, l2_lambda: float) -> Gradients:
    """Exact gradients of one example's regularized loss (see ``OracleWorkspace.gradient``)."""
    subjects, objects_, targets = _batch_arrays([example])
    work = OracleWorkspace(model, l2_lambda)
    work.gradient(subjects, objects_, targets)
    d_tensor, d_theta = _split(work.grad, model.k)
    return Gradients(tensor=d_tensor, theta=d_theta)


def zero_model(k=2):
    return VerbTensorModel(np.zeros((k, k, 2)), np.zeros((2, 3)))


def random_model(rng, k=5, scale=0.5):
    return VerbTensorModel(
        rng.uniform(-scale, scale, (k, k, 2)), rng.uniform(-scale, scale, (2, 3))
    )


def copy_model(model):
    """An independent copy of a model's parameters."""
    return VerbTensorModel(model.tensor.copy(), model.theta.copy())


def forward(model, n_s, n_o):
    """Pre-activations ``z``, sigmoid outputs ``a`` and distribution ``p`` for one pair."""
    rows = [np.asarray(v, dtype=np.float64)[None, :] for v in (n_s, n_o)]
    z, a, p = _forward(model.tensor, model.theta, *rows)
    return SimpleNamespace(z=z[0], a=a[0, :2], p=p[0])


def random_example(rng, k=5):
    s = rng.standard_normal(k)
    o = rng.standard_normal(k)
    t = ONE_HOT_TOP if rng.random() < 0.5 else ONE_HOT_BOT
    return (s, o, t)


def finite_difference_grads(model, example, lam, h=1e-5):
    """Central differences of the single-example regularized objective."""

    def value(m):
        return objective(m, [example], lam)

    g_tensor = np.zeros_like(model.tensor)
    for idx in np.ndindex(*model.tensor.shape):
        plus, minus = copy_model(model), copy_model(model)
        plus.tensor[idx] += h
        minus.tensor[idx] -= h
        g_tensor[idx] = (value(plus) - value(minus)) / (2 * h)
    g_theta = np.zeros_like(model.theta)
    for idx in np.ndindex(*model.theta.shape):
        plus, minus = copy_model(model), copy_model(model)
        plus.theta[idx] += h
        minus.theta[idx] -= h
        g_theta[idx] = (value(plus) - value(minus)) / (2 * h)
    return g_tensor, g_theta


def random_batch(rng, n, k):
    """N random subject and object rows with random one-hot targets."""
    targets = np.zeros((n, 2))
    targets[np.arange(n), rng.integers(0, 2, n)] = 1.0
    return rng.standard_normal((n, k)), rng.standard_normal((n, k)), targets


def einsum_forward(tensor, theta, subjects, objects_):
    """Reference forward pass: three-operand einsum contraction, row softmax."""
    z = np.einsum("ni,ijc,nj->nc", subjects, tensor, objects_)
    a = 1.0 / (1.0 + np.exp(-z))
    logits = a @ theta[:, :2].T + theta[:, 2]
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return a, exp / exp.sum(axis=1, keepdims=True)


def einsum_objective(tensor, theta, subjects, objects_, targets, lam):
    _, p = einsum_forward(tensor, theta, subjects, objects_)
    losses = -np.log(p[np.arange(len(p)), np.argmax(targets, axis=1)])
    reg = 0.5 * lam * np.sum(tensor * tensor)
    reg += 0.5 * lam * np.sum(theta * theta)
    return float(losses.sum() + reg)


def einsum_batch_gradient(model, subjects, objects_, targets, lam):
    """Reference summed gradient over N examples, contracted with einsum."""
    tensor, theta = model.tensor, model.theta
    a, p = einsum_forward(tensor, theta, subjects, objects_)
    d_logit = p - targets
    d_theta = np.concatenate([d_logit.T @ a, d_logit.sum(axis=0)[:, None]], axis=1)
    d_theta += lam * theta
    d_z = (d_logit @ theta[:, :2]) * a * (1.0 - a)
    d_tensor = np.einsum("ni,nj,nc->ijc", subjects, objects_, d_z) + lam * tensor
    return d_tensor, d_theta


def reference_train(model, dataset, embeddings, config):
    """Stochastic training as a loop over one-row views: ``OracleWorkspace.gradient``
    on each (1, K) row, then ``adagrad_step``, in the seeded epoch order.

    Returns the trained workspace and the objective trace.
    """
    subjects, objects_, targets = _lookup_triples(dataset.triples, embeddings)
    work = OracleWorkspace(copy_model(model), config.l2_lambda)

    def value():
        return _objective_arrays(work.tensor, work.theta, subjects, objects_, targets,
                                 config.l2_lambda)

    trace = [value()]
    rows = [(subjects[i:i + 1], objects_[i:i + 1], targets[i:i + 1])
            for i in range(len(dataset.triples))]
    order_rng = random.Random(derive_seed(config.seed, "epoch-order"))
    for _ in range(config.epochs):
        order_rng.shuffle(rows)
        for example in rows:
            work.gradient(*example)
            adagrad_step(work.params, work.grad, work.acc, config.learning_rate,
                         config.adagrad_epsilon, work.scratch)
        trace.append(value())
    return work, tuple(trace)


def bits(array):
    """The raw 64-bit patterns of a float array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def max_relative_error(analytic, numeric):
    """Per-coordinate relative error, floored at 1e-4 of the gradient scale.

    The floor keeps coordinates that are orders of magnitude below the
    gradient's own scale from amplifying finite-difference rounding noise.
    """
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4 * scale)
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestForward:
    def test_symmetric_zero_model(self):
        trace = forward(zero_model(), [0.3, -0.7], [1.0, 2.0])
        np.testing.assert_allclose(trace.a, [0.5, 0.5])
        np.testing.assert_allclose(trace.p, [0.5, 0.5])

    def test_identical_class_parameters(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, k=3)
        model.theta[1] = model.theta[0]
        trace = forward(model, rng.standard_normal(3), rng.standard_normal(3))
        np.testing.assert_allclose(trace.p, [0.5, 0.5], atol=1e-12)

    def test_scalar_chain_oracle(self):
        model = VerbTensorModel(
            np.array([[[0.8, -1.2]]]), np.array([[0.5, -0.3, 0.1], [-0.2, 0.7, -0.4]])
        )
        s, o = 1.5, -0.6
        trace = forward(model, [s], [o])
        z0, z1 = s * 0.8 * o, s * -1.2 * o
        a0 = 1.0 / (1.0 + math.exp(-z0))
        a1 = 1.0 / (1.0 + math.exp(-z1))
        l0 = 0.5 * a0 - 0.3 * a1 + 0.1
        l1 = -0.2 * a0 + 0.7 * a1 - 0.4
        denominator = math.exp(l0) + math.exp(l1)
        np.testing.assert_allclose(trace.z, [z0, z1], atol=1e-14)
        np.testing.assert_allclose(trace.a, [a0, a1], atol=1e-14)
        np.testing.assert_allclose(
            trace.p, [math.exp(l0) / denominator, math.exp(l1) / denominator], atol=1e-14
        )

    def test_distribution_invariants(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            model = random_model(rng, k=4, scale=1.5)
            trace = forward(model, rng.standard_normal(4), rng.standard_normal(4))
            assert np.all(trace.a > 0) and np.all(trace.a < 1)
            assert np.all(trace.p > 0) and np.all(trace.p < 1)
            assert abs(trace.p.sum() - 1.0) < 1e-12


class TestSigmoid:
    @settings(max_examples=2000, deadline=None)
    @given(x=st.one_of(st.floats(), st.floats(-750.0, 40.0), st.floats(max_value=-709.79)))
    @example(x=-709.79)
    @example(x=-709.78)
    @example(x=math.inf)
    @example(x=-math.inf)
    @example(x=math.nan)
    def test_matches_expit_bit_for_bit(self, x):
        # the training kernel inlines _sigmoid on each pre-activation in place of expit
        got = np.float64(_sigmoid(x))
        assert bits(got) == bits(expit(np.float64(x)))
        if x <= -709.79:
            assert got == 0.0

    @settings(max_examples=500, deadline=None)
    @given(z=st.lists(st.one_of(st.floats(), st.floats(-750.0, 40.0),
                                st.floats(max_value=-709.79)), min_size=1, max_size=20))
    @example(z=[-709.79])
    @example(z=[-709.78, 0.0])
    @example(z=[math.inf, -math.inf, 3.5])
    @example(z=[math.nan, -0.0, -math.nan])
    def test_forward_columns_match_sigmoid_and_expit(self, z):
        # K = 1 with a tensor of ones: both pre-activations of row i are z[i]
        # (BLAS may turn -0.0 into 0.0, so the references start from _forward's z)
        n = len(z)
        subjects, objects_ = np.reshape(z, (n, 1)), np.ones((n, 1))
        with np.errstate(all="ignore"):
            got_z, a, _ = _forward(np.ones((1, 1, SENTENCE_DIM)), np.zeros((2, 3)),
                                   subjects, objects_)
        np.testing.assert_array_equal(got_z, np.repeat(subjects, SENTENCE_DIM, axis=1))
        want = [_sigmoid(value) for value in got_z.ravel().tolist()]
        assert np.array_equal(bits(a[:, :SENTENCE_DIM].ravel()), bits(want))
        assert np.array_equal(bits(a[:, :SENTENCE_DIM]), bits(expit(got_z)))
        assert np.array_equal(a[:, SENTENCE_DIM], np.ones(n))


class TestObjective:
    def test_zero_model_single_example(self):
        value = objective(zero_model(), [([1.0, 0.0], [0.0, 1.0], ONE_HOT_TOP)], 0.0)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_is_zero_loss(self):
        # enormous class margins drive -log p below any tolerance
        model = zero_model()
        model.theta[0] = [80.0, 80.0, 80.0]
        model.theta[1] = [-80.0, -80.0, -80.0]
        value = objective(model, [([1.0, 0.0], [0.0, 1.0], ONE_HOT_TOP)], 0.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_regularizer_additivity(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        batch = [random_example(rng) for _ in range(4)]
        lam = 0.37
        data_term = objective(model, batch, 0.0)
        full = objective(model, batch, lam)
        params_sq = float(np.sum(model.tensor**2) + np.sum(model.theta**2))
        assert full - data_term == pytest.approx(0.5 * lam * params_sq, rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            objective(zero_model(), [], 0.0)

    def test_non_finite_reported_as_divergence(self):
        model = zero_model()
        model.theta[0] = [1e308, 1e308, 1e308]
        model.theta[1] = [-1e308, -1e308, -1e308]
        with pytest.raises(TrainingDiverged):
            objective(model, [([1.0, 0.0], [0.0, 1.0], ONE_HOT_BOT)], 0.0)


class TestObjectiveOracle:
    @pytest.mark.parametrize("k", [2, 5, 20, 40])
    def test_matches_einsum_reference(self, k):
        rng = np.random.default_rng(100 + k)
        subjects, objects_, targets = random_batch(rng, 400, k)
        for scale in (0.01, 0.3):
            tensor = rng.uniform(-scale, scale, (k, k, 2))
            theta = rng.uniform(-1, 1, (2, 3))
            args = (tensor, theta, subjects, objects_, targets, 1e-4)
            assert _objective_arrays(*args) == pytest.approx(
                einsum_objective(*args), rel=1e-12, abs=0
            )


class TestGradients:
    def test_optimum_has_tiny_data_gradient(self):
        model = zero_model()
        model.theta[0] = [50.0, 50.0, 50.0]
        model.theta[1] = [-50.0, -50.0, -50.0]
        grads = gradients(model, ([1.0, 0.0], [0.0, 1.0], ONE_HOT_TOP), 0.0)
        assert np.max(np.abs(grads.tensor)) < 1e-12
        assert np.max(np.abs(grads.theta)) < 1e-12

    @pytest.mark.parametrize("k", [2, 5])
    def test_matches_finite_differences(self, k):
        rng = np.random.default_rng(42 + k)
        lam = 1e-4
        for _ in range(10):
            model = random_model(rng, k=k)
            example = random_example(rng, k=k)
            analytic = gradients(model, example, lam)
            fd_tensor, fd_theta = finite_difference_grads(model, example, lam)
            assert max_relative_error(analytic.tensor, fd_tensor) <= 1e-4
            assert max_relative_error(analytic.theta, fd_theta) <= 1e-4

    def test_regularizer_linearity(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        example = random_example(rng)
        lam = 0.25
        with_reg = gradients(model, example, lam)
        without_reg = gradients(model, example, 0.0)
        np.testing.assert_allclose(
            with_reg.tensor - without_reg.tensor, lam * model.tensor, atol=1e-12
        )
        np.testing.assert_allclose(
            with_reg.theta - without_reg.theta, lam * model.theta, atol=1e-12
        )

    def test_single_adagrad_step_decreases_loss(self):
        rng = np.random.default_rng(8)
        lam = 1e-4
        checked = 0
        for _ in range(20):
            model = random_model(rng, k=3)
            example = random_example(rng, k=3)
            grads = gradients(model, example, lam)
            norm = math.sqrt(float(np.sum(grads.tensor**2) + np.sum(grads.theta**2)))
            if norm < 1e-10:
                continue
            before = objective(model, [example], lam)
            stepped = copy_model(model)
            for param, grad in ((stepped.tensor, grads.tensor), (stepped.theta, grads.theta)):
                adagrad_step(param, grad, np.zeros_like(param), 1e-3, 1e-8, np.empty_like(param))
            after = objective(stepped, [example], lam)
            assert after < before
            checked += 1
        assert checked >= 10


class TestTrain:
    def test_learns_separable_data(self, planted):
        dataset, embeddings = planted
        config = TrainConfig(epochs=30, seed=5)
        result = train(dataset.triples, embeddings, config)
        assert result.objective_trace[-1] < result.objective_trace[0]
        correct = 0
        for t in dataset.triples:
            label, _ = predict(
                result.model, embeddings.vector(t.subject), embeddings.vector(t.object)
            )
            correct += label == t.label
        assert correct / len(dataset) >= 0.95

    def test_zero_learning_rate_is_identity(self, planted):
        dataset, embeddings = planted
        config = TrainConfig(learning_rate=0.0, epochs=3, seed=9)
        result = train(dataset.triples, embeddings, config)
        reference = init_model(embeddings.dim, config)
        np.testing.assert_array_equal(result.model.tensor, reference.tensor)
        np.testing.assert_array_equal(result.model.theta, reference.theta)

    def test_bit_identical_under_seed(self, planted):
        dataset, embeddings = planted
        config = TrainConfig(epochs=5, seed=21)
        a = train(dataset.triples, embeddings, config)
        b = train(dataset.triples, embeddings, config)
        assert a.objective_trace == b.objective_trace
        assert np.array_equal(a.model.tensor, b.model.tensor)
        assert np.array_equal(a.model.theta, b.model.theta)
        c = train(dataset.triples, embeddings, TrainConfig(epochs=5, seed=22))
        assert not np.array_equal(a.model.tensor, c.model.tensor)

    def test_final_objective_not_worse_than_init(self, planted):
        dataset, embeddings = planted
        config = TrainConfig(epochs=12, seed=2, l2_lambda=1e-3)
        result = train(dataset.triples, embeddings, config)
        assert result.objective_trace[-1] <= result.objective_trace[0]
        assert math.isfinite(result.objective_trace[-1])

    def test_divergence_reports_epoch(self, planted):
        dataset, embeddings = planted
        config = TrainConfig(init_scale=1e300, epochs=2, seed=1)
        with pytest.raises(TrainingDiverged, match="^objective became non-finite at epoch 0$"):
            train(dataset.triples, embeddings, config)

    def test_overflowing_accumulator_reports_epoch(self, planted):
        """A squared gradient that overflows makes every later step zero."""
        dataset, embeddings = planted
        config = TrainConfig(l2_lambda=1e308, epochs=3, seed=1)
        with pytest.raises(TrainingDiverged,
                           match="^Adagrad accumulator became non-finite at epoch 1$"):
            train(dataset.triples, embeddings, config)

    def test_missing_embedding_rejected(self, planted):
        dataset, embeddings = planted
        bad = dataset.triples + [LabeledTriple("ghost", "vex", "sp000", PLAUSIBLE)]
        with pytest.raises(DataError, match="^noun 'ghost' has no embedding$"):
            train(bad, embeddings, TrainConfig(epochs=1))


class TestTrainingStep:
    def test_one_epoch_is_gradients_plus_adagrad(self, planted):
        dataset, embeddings = planted
        triple = dataset.triples[0]
        config = TrainConfig(epochs=1, seed=4, l2_lambda=0.01)
        trained = train([triple], embeddings, config).model
        model = init_model(embeddings.dim, config)
        example = (embeddings.vector(triple.subject), embeddings.vector(triple.object),
                   gold_dist(triple))
        grads = gradients(model, example, config.l2_lambda)
        for param, grad in ((model.tensor, grads.tensor), (model.theta, grads.theta)):
            adagrad_step(param, grad, np.zeros_like(param),
                         config.learning_rate, config.adagrad_epsilon, np.empty_like(param))
        assert np.array_equal(trained.tensor, model.tensor)
        assert np.array_equal(trained.theta, model.theta)

    def test_batch_gradient_matches_einsum_reference(self):
        # the GEMM backward sums the N examples in another order than einsum
        rng = np.random.default_rng(31)
        k = 20
        subjects, objects_, targets = random_batch(rng, 400, k)
        model = random_model(rng, k=k, scale=0.05)
        work = OracleWorkspace(model, 0.01)
        work.gradient(subjects, objects_, targets)
        reference = einsum_batch_gradient(model, subjects, objects_, targets, 0.01)
        for got, want in zip(_split(work.grad, k), reference):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestExampleStep:
    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 40),
        tensor_scale=st.sampled_from([0.01, 0.5, 30.0, 1e3]),
        theta_scale=st.sampled_from([0.01, 1.0, 50.0, 1e3]),
        target=st.sampled_from([(1.0, 0.0), (0.0, 1.0)]),
        l2_lambda=st.sampled_from([0.0, 0.01]),
        lr=st.sampled_from([0.0, 0.05, 1, 7.5]),
        eps=st.sampled_from([1e-8, 1.0, 5e-324]),
        tie=st.booleans(),
        zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_gradient_plus_adagrad(self, k, tensor_scale, theta_scale, target,
                                           l2_lambda, lr, eps, tie, zeros, seed):
        # scales up to 1e3 saturate the sigmoid, past exp overflow; equal theta
        # rows tie the logits exactly; zeroed entries give both signed zeros.
        # The oracle takes lr and eps as Python numbers (1 an int, 5e-324 the
        # least subnormal), the kernel as the 0-d arrays it builds from them
        rng = np.random.default_rng(seed)
        model = VerbTensorModel(rng.uniform(-tensor_scale, tensor_scale, (k, k, 2)),
                                rng.uniform(-theta_scale, theta_scale, (2, 3)))
        if tie:
            model.theta[1] = model.theta[0]
        s, o = rng.standard_normal(k), rng.standard_normal(k)
        if zeros:
            s *= rng.random(k) < 0.5
            o *= rng.random(k) < 0.5
        accumulator = rng.uniform(0.0, 2.0, k * k * 2 + 6)

        oracle = OracleWorkspace(model, l2_lambda)
        oracle.acc[:] = accumulator
        oracle.gradient(s[None], o[None], np.array([target]))
        adagrad_step(oracle.params, oracle.grad, oracle.acc, lr, eps, oracle.scratch)

        work = _Workspace(model, l2_lambda)
        work.acc[:] = accumulator
        work.epoch_runner(lr, eps)([(s, o, s[:, None], o[None], *target)])

        assert np.array_equal(bits(work.params), bits(oracle.params))
        assert np.array_equal(bits(work.acc), bits(oracle.acc))

    @pytest.mark.parametrize("target", [(1.0, 0.0), (0.0, 1.0)])
    @pytest.mark.parametrize("z", [(-709.78, -709.79), (-709.79, -709.78)])
    def test_sigmoid_at_exp_overflow_edge(self, z, target):
        # K = 1 and s = o = (1.0,), so z is the tensor entry: math.exp(709.78)
        # is finite and math.exp(709.79) overflows, one class on each side.
        # No L2 term, an empty accumulator, lr 1 and the least subnormal eps
        # turn a subnormal gradient into a step of order 1, so a sigmoid of
        # 5e-324 in place of 0.0 moves the parameters
        model = VerbTensorModel(np.array([[z]]), np.array([[3.0, -2.0, 0.1], [-4.0, 5.0, 0.2]]))
        s, o = np.ones(1), np.ones(1)
        _, a, _ = _forward(model.tensor, model.theta, s[None], o[None])
        assert sorted(a[0, :SENTENCE_DIM] > 0.0) == [False, True]

        oracle = OracleWorkspace(model, 0.0)
        oracle.gradient(s[None], o[None], np.array([target]))
        adagrad_step(oracle.params, oracle.grad, oracle.acc, 1.0, 5e-324, oracle.scratch)
        work = _Workspace(model, 0.0)
        work.epoch_runner(1.0, 5e-324)([(s, o, s[:, None], o[None], *target)])

        assert np.array_equal(bits(work.params), bits(oracle.params))
        assert np.array_equal(bits(work.acc), bits(oracle.acc))

    @pytest.mark.parametrize("rows", [(1e308, 0.0), (0.0, 1e308), (-1e308, 0.0),
                                      (1e308, 1e308), (-1e308, -1e308)])
    def test_infinite_logits_match_softmax(self, rows):
        # a = (0.5, 0.5), so a row of 1e308 gives a logit of 2e308 = inf
        model = VerbTensorModel(np.zeros((3, 3, 2)),
                                np.array([[rows[0]] * 3, [rows[1]] * 3]))
        s, o = np.ones(3), np.ones(3)
        oracle = OracleWorkspace(model, 0.01)
        work = _Workspace(model, 0.01)
        with np.errstate(invalid="ignore", over="ignore"):
            oracle.gradient(s[None], o[None], np.array([[1.0, 0.0]]))
            adagrad_step(oracle.params, oracle.grad, oracle.acc, 0.05, 1e-8, oracle.scratch)
            work.epoch_runner(0.05, 1e-8)([(s, o, s[:, None], o[None], 1.0, 0.0)])
        np.testing.assert_array_equal(work.params, oracle.params)
        np.testing.assert_array_equal(work.acc, oracle.acc)

    @pytest.mark.parametrize("k", [2, 5, 20, 40])
    def test_training_matches_per_row_loop(self, k):
        dataset, embeddings = planted_dataset(k=k, n_triples=200, noise=0.35, seed=11)
        config = TrainConfig(epochs=3, seed=17)
        result = train(dataset.triples, embeddings, config)
        work, trace = reference_train(init_model(k, config), dataset,
                                      embeddings, config)
        assert result.objective_trace == trace
        assert np.array_equal(bits(result.model.tensor), bits(work.tensor))
        assert np.array_equal(bits(result.model.theta), bits(work.theta))

    def test_saturated_sigmoid_trains_like_per_row_loop(self, monkeypatch):
        # z = -960 for both classes: exp(-z) overflows, and _sigmoid gives 0.0 as expit does
        embeddings = EmbeddingTable(Vocabulary.from_words(["n0", "n1"]), np.full((2, 2), 2.0))
        dataset = VerbDataset("vex", [LabeledTriple("n0", "vex", "n1", PLAUSIBLE),
                                      LabeledTriple("n1", "vex", "n0", IMPLAUSIBLE)])
        config = TrainConfig(epochs=3, seed=5)
        start = VerbTensorModel(np.full((2, 2, 2), -60.0), init_model(2, config).theta)
        z, _, _ = _forward(start.tensor, start.theta, embeddings.matrix, embeddings.matrix)
        assert np.all(z == -960.0)
        monkeypatch.setattr(tensor_model, "init_model",
                            lambda k, config: copy_model(start))
        result = train(dataset.triples, embeddings, config)
        work, trace = reference_train(start, dataset, embeddings, config)
        assert all(math.isfinite(value) for value in result.objective_trace)
        assert result.objective_trace == trace
        assert np.array_equal(bits(result.model.tensor), bits(work.tensor))
        assert np.array_equal(bits(result.model.theta), bits(work.theta))


class TestPredict:
    def test_tie_breaks_plausible(self):
        label, p = predict(zero_model(), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert p == pytest.approx(0.5)
        assert label == PLAUSIBLE

    def test_swapping_theta_flips_probability(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, k=3)
        s, o = rng.standard_normal(3), rng.standard_normal(3)
        _, p = predict(model, s, o)
        swapped = copy_model(model)
        swapped.theta = swapped.theta[::-1].copy()
        _, p_swapped = predict(swapped, s, o)
        assert p_swapped == pytest.approx(1.0 - p, abs=1e-12)

    def test_nan_probability_is_implausible(self):
        # s T o sums 1e308 entries to inf - inf for the first pair only
        model = VerbTensorModel(np.full((2, 2, 2), 1e308), np.zeros((2, 3)))
        with np.errstate(over="ignore", invalid="ignore"):
            labels, p = predict_batch(model, np.array([[1.0, 1.0], [1.0, 0.0]]),
                                      np.array([[1.0, -1.0], [1.0, 0.0]]))
        assert math.isnan(p[0]) and p[1] == 0.5
        assert labels == [IMPLAUSIBLE, PLAUSIBLE]

    def test_held_out_auc_on_separable_data(self, planted):
        dataset, embeddings = planted
        pool, held = holdout_halves(dataset, seed=123)
        result = train(pool.triples, embeddings, TrainConfig(epochs=30, seed=7))
        scores = [
            predict(result.model, embeddings.vector(t.subject), embeddings.vector(t.object))[1]
            for t in held.triples
        ]
        assert roc_auc(scores, [t.label for t in held.triples]) > 0.9

    def test_implausible_label(self):
        model = zero_model()
        model.theta[1] = [3.0, 3.0, 3.0]  # push mass to the implausible class
        label, p = predict(model, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert label == IMPLAUSIBLE
        assert p < 0.5


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["learning_rate", "adagrad_epsilon", "l2_lambda",
                                      "init_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(adagrad_epsilon=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(l2_lambda=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(init_scale=0.0)
        with pytest.raises(ValueError, match="init_scale must leave 2 \\* init_scale finite"):
            TrainConfig(init_scale=1e308)


class TestModelIo:
    def test_round_trip(self, tmp_path, planted):
        dataset, embeddings = planted
        config = TrainConfig(epochs=2, seed=3)
        result = train(dataset.triples, embeddings, config)
        path = tmp_path / "vex_k5.tvbm"
        save_model(path, result.model)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.tensor, result.model.tensor)
        np.testing.assert_array_equal(loaded.theta, result.model.theta)
        assert [p.name for p in tmp_path.iterdir()] == ["vex_k5.tvbm"]
