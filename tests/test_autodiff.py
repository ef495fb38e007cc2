import numpy as np
import pytest

from banditseq.autodiff import (
    ShapeError,
    Tape,
    add,
    concat,
    constant,
    dot,
    embedding_lookup,
    exp,
    finite_difference_check,
    log,
    log_likelihood,
    logsumexp,
    matmul,
    matvec,
    mul,
    neg,
    parameter,
    pick,
    sigmoid,
    softmax,
    stack,
    stack_rows,
    step_sum,
    tanh,
    vsum,
)

from conftest import outer


def grad_of(build, params):
    with Tape() as tape:
        out = build()
    return tape.backward(out, params)


class TestMatmul:
    def test_identity(self):
        a = constant(np.eye(2))
        b = constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_small_product(self):
        a = constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = constant(np.array([[5.0], [6.0]]))
        assert np.array_equal(matmul(a, b).data, np.array([[17.0], [39.0]]))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 1\)"):
            matmul(constant(np.eye(2)), constant(np.zeros((3, 1))))

    def test_gradient_matches_finite_differences(self, rng):
        a = parameter("a", rng.normal(size=(3, 4)))
        b = parameter("b", rng.normal(size=(4, 2)))
        report = finite_difference_check(
            lambda p: vsum(matmul(p["a"], p["b"])), {"a": a, "b": b},
            step=1e-5, tolerance=1e-6)
        assert report.passed, report.max_rel_error


class TestElementwise:
    def test_tanh_at_zero(self):
        assert np.array_equal(tanh(constant(np.zeros(2))).data, np.zeros(2))

    def test_sigmoid_at_zero(self):
        assert float(sigmoid(constant(np.zeros(()))).data) == 0.5

    def test_square_derivative(self):
        x = parameter("x", np.array(3.0))
        g = grad_of(lambda: mul(x, x), {"x": x})
        assert g["x"] == pytest.approx(6.0, abs=1e-12)

    def test_scalar_broadcast_both_orders(self):
        t = constant(np.array([1.0, 2.0]))
        assert np.array_equal(mul(t, 3.0).data, np.array([3.0, 6.0]))
        assert np.array_equal(add(-1.0, t).data, np.array([0.0, 1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            add(constant(np.zeros(2)), constant(np.zeros(3)))

    def test_log_domain_error(self):
        with pytest.raises(ValueError, match="domain"):
            log(constant(np.array([1.0, 0.0])))

    def test_scalar_broadcast_gradient_reduces(self):
        s = parameter("s", np.array(2.0))
        v = parameter("v", np.array([1.0, 2.0, 3.0]))
        g = grad_of(lambda: vsum(mul(s, v)), {"s": s, "v": v})
        assert g["s"] == pytest.approx(6.0)
        assert np.allclose(g["v"], 2.0)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(constant(np.zeros(2))).data, [0.5, 0.5])

    def test_forced_values(self):
        out = softmax(constant(np.array([np.log(2.0), 0.0]))).data
        assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=7)
        a = softmax(constant(x)).data
        b = softmax(constant(x + 1e3)).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_sums_to_one_and_positive(self, rng):
        for _ in range(50):
            p = softmax(constant(rng.normal(size=5, scale=10))).data
            assert abs(p.sum() - 1.0) < 1e-12
            assert (p > 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax(constant(np.zeros(0)))


class TestEmbeddingLookup:
    def test_row_copy(self):
        row = embedding_lookup(constant(np.eye(3)), 1)
        assert np.array_equal(row.data, [0.0, 1.0, 0.0])

    def test_gradient_scatters_to_row(self):
        table = parameter("t", np.zeros((3, 2)))
        g = grad_of(lambda: vsum(embedding_lookup(table, 1)), {"t": table})
        expected = np.zeros((3, 2))
        expected[1] = 1.0
        assert np.array_equal(g["t"], expected)

    def test_repeated_lookup_accumulates(self):
        table = parameter("t", np.zeros((3, 2)))
        g = grad_of(
            lambda: add(vsum(embedding_lookup(table, 2)),
                        vsum(embedding_lookup(table, 2))),
            {"t": table})
        assert np.array_equal(g["t"][2], [2.0, 2.0])

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            embedding_lookup(constant(np.eye(3)), 3)


class TestBackward:
    def test_unused_parameter_gets_zeros(self):
        x = parameter("x", np.array([1.0, 2.0]))
        y = parameter("y", np.array([3.0]))
        g = grad_of(lambda: vsum(mul(x, x)), {"x": x, "y": y})
        assert np.array_equal(g["y"], np.zeros(1))

    def test_sum_gives_ones(self):
        x = parameter("x", np.arange(6.0).reshape(2, 3))
        g = grad_of(lambda: vsum(x), {"x": x})
        assert np.array_equal(g["x"], np.ones((2, 3)))

    def test_non_scalar_root_rejected(self):
        with Tape() as tape:
            x = parameter("x", np.array([1.0, 2.0]))
            y = mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y, {"x": x})

    def test_linearity(self, rng):
        x = parameter("x", rng.normal(size=4))
        params = {"x": x}

        def f():
            return vsum(mul(x, x))

        def g():
            return vsum(tanh(x))

        gf = grad_of(f, params)["x"]
        gg = grad_of(g, params)["x"]
        combined = grad_of(lambda: add(mul(2.5, f()), mul(-1.5, g())),
                           params)["x"]
        assert np.max(np.abs(combined - (2.5 * gf - 1.5 * gg))) < 1e-10

    def test_two_backwards_on_one_tape_are_independent(self):
        x = parameter("x", np.array([1.0, 2.0]))
        with Tape() as tape:
            shared = mul(x, x)
            a = vsum(shared)
            b = vsum(mul(shared, 2.0))
        ga = tape.backward(a, {"x": x})["x"]
        gb = tape.backward(b, {"x": x})["x"]
        assert np.allclose(gb, 2.0 * ga)

    def test_determinism_bit_identical(self, rng):
        vals = rng.normal(size=(3, 3))

        def run():
            x = parameter("x", vals.copy())
            g = grad_of(lambda: vsum(tanh(matmul(x, x))), {"x": x})
            return g["x"]

        assert np.array_equal(run(), run())


class TestFiniteDifferenceCheck:
    def test_sum_of_squares(self):
        x = parameter("x", np.array([1.0, 2.0]))
        report = finite_difference_check(
            lambda p: vsum(mul(p["x"], p["x"])), {"x": x},
            step=1e-5, tolerance=1e-8)
        assert report.passed

    def test_constant_function_zero_gradients(self):
        x = parameter("x", np.array([1.0, 2.0]))
        report = finite_difference_check(
            lambda p: constant(np.array(3.0)), {"x": x})
        assert report.max_rel_error == 0.0

    def test_step_must_be_positive(self):
        x = parameter("x", np.array([1.0]))
        with pytest.raises(ValueError):
            finite_difference_check(lambda p: vsum(p["x"]), {"x": x}, step=0.0)

    def test_non_finite_rejected(self):
        x = parameter("x", np.array([1.0]))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                finite_difference_check(
                    lambda p: vsum(exp(mul(p["x"], 1e4))), {"x": x})


# Builders for the randomized per-op sweep. Each returns (params, f) where
# f maps the parameter dict to a scalar output.
def _unary(op, positive=False):
    def build(rng):
        data = rng.uniform(0.5, 2.0, size=4) if positive \
            else rng.normal(size=4)
        x = parameter("x", data)
        return {"x": x}, lambda p: vsum(op(p["x"]))

    return build


def _binary(op):
    def build(rng):
        x = parameter("x", rng.normal(size=4))
        y = parameter("y", rng.normal(size=4))
        return {"x": x, "y": y}, lambda p: vsum(op(p["x"], p["y"]))

    return build


def _build_matmul(rng):
    a = parameter("a", rng.normal(size=(3, 2)))
    b = parameter("b", rng.normal(size=(2, 4)))
    return {"a": a, "b": b}, lambda p: vsum(matmul(p["a"], p["b"]))


def _build_matvec(rng):
    m = parameter("m", rng.normal(size=(3, 4)))
    v = parameter("v", rng.normal(size=4))
    return {"m": m, "v": v}, lambda p: vsum(matvec(p["m"], p["v"]))


def _build_dot(rng):
    a = parameter("a", rng.normal(size=5))
    b = parameter("b", rng.normal(size=5))
    return {"a": a, "b": b}, lambda p: dot(p["a"], p["b"])


def _build_softmax(rng):
    x = parameter("x", rng.normal(size=5))
    w = constant(rng.normal(size=5))
    return {"x": x}, lambda p: dot(softmax(p["x"]), w)


def _build_logsumexp(rng):
    x = parameter("x", rng.normal(size=5))
    return {"x": x}, lambda p: logsumexp(p["x"])


def _build_pick(rng):
    x = parameter("x", rng.normal(size=5))
    i = int(rng.integers(5))
    return {"x": x}, lambda p: mul(pick(p["x"], i), 2.0)


def _build_concat(rng):
    a = parameter("a", rng.normal(size=2))
    b = parameter("b", rng.normal(size=3))
    w = constant(rng.normal(size=5))
    return {"a": a, "b": b}, lambda p: dot(concat([p["a"], p["b"]]), w)


def _build_stack(rng):
    a = parameter("a", rng.normal(size=()))
    b = parameter("b", rng.normal(size=()))
    w = constant(rng.normal(size=2))
    return {"a": a, "b": b}, lambda p: dot(stack([p["a"], p["b"]]), w)


def _build_stack_rows(rng):
    a = parameter("a", rng.normal(size=3))
    b = parameter("b", rng.normal(size=3))
    w = constant(rng.normal(size=3))
    return {"a": a, "b": b}, \
        lambda p: vsum(matvec(stack_rows([p["a"], p["b"]]), w))


def _build_embedding(rng):
    t = parameter("t", rng.normal(size=(4, 3)))
    i = int(rng.integers(4))
    return {"t": t}, lambda p: vsum(embedding_lookup(p["t"], i))


def _build_log_likelihood(rng):
    steps = int(rng.integers(1, 4))
    x = parameter("x", rng.normal(size=(steps, 5)))
    tokens = [int(t) for t in rng.integers(5, size=steps)]
    negated_step = int(rng.integers(steps + 1))  # 0: no step negated
    return {"x": x}, lambda p: log_likelihood(p["x"], tokens, negated_step)


OP_BUILDERS = {
    "tanh": _unary(tanh),
    "sigmoid": _unary(sigmoid),
    "exp": _unary(exp),
    "log": _unary(log, positive=True),
    "neg": _unary(neg),
    "add": _binary(add),
    "mul": _binary(mul),
    "matmul": _build_matmul,
    "matvec": _build_matvec,
    "dot": _build_dot,
    "softmax": _build_softmax,
    "logsumexp": _build_logsumexp,
    "pick": _build_pick,
    "concat": _build_concat,
    "stack": _build_stack,
    "stack_rows": _build_stack_rows,
    "embedding_lookup": _build_embedding,
    "log_likelihood": _build_log_likelihood,
}


@pytest.mark.parametrize("name", sorted(OP_BUILDERS))
def test_every_op_matches_finite_differences(name):
    for seed in range(100):
        rng = np.random.default_rng([seed, hash(name) % (2 ** 32)])
        params, f = OP_BUILDERS[name](rng)
        report = finite_difference_check(f, params, step=1e-5, tolerance=1e-4)
        assert report.passed, f"{name} seed {seed}: {report.max_rel_error}"


def test_forward_values_stay_finite(rng):
    for _ in range(200):
        x = constant(rng.normal(scale=3.0, size=4))
        for op in (tanh, sigmoid, neg, softmax):
            assert np.isfinite(op(x).data).all()


def _step_loop(terms, inputs=None):
    """``acc += term`` per step, last step first: the order of the tape."""
    acc = None
    for t in reversed(range(len(terms))):
        term = terms[t] if inputs is None else outer(terms[t], inputs[t])
        acc = term.copy() if acc is None else acc + term
    return acc


def _step_case(rng):
    """Per-step terms and inputs whose sums round differently in every
    other order: magnitudes 1e-8 to 1e8, exact zeros, axes of size 1."""
    steps = int(rng.choice([1, rng.integers(1, 41)], p=[0.2, 0.8]))
    rows, cols = (int(rng.choice([1, 2, rng.integers(1, 301)]))
                  for _ in range(2))
    terms, inputs = (rng.standard_normal((steps, n))
                     * 10.0 ** rng.uniform(-8, 8, size=(steps, n))
                     for n in (rows, cols))
    terms[rng.random(terms.shape) < 0.1] = 0.0
    inputs[rng.random(inputs.shape) < 0.1] = 0.0
    return terms, inputs


_VIEWS = {
    "c": lambda a: a,
    "reversed": lambda a: a[::-1],
    "fortran": np.asfortranarray,
    "fortran reversed": lambda a: np.asfortranarray(a)[::-1],
}


class TestStepSum:
    """Weight gradients are summed over steps by ``step_sum``; it must add
    the steps in the tape's order, last to first, bit for bit."""

    @pytest.mark.parametrize("view", sorted(_VIEWS))
    def test_equals_per_step_loop(self, view):
        rng = np.random.default_rng(sorted(_VIEWS).index(view))
        shapes = set()
        for _ in range(600):
            terms, inputs = (_VIEWS[view](a) for a in _step_case(rng))
            shapes.add((len(terms) == 1, terms.shape[1] == 1,
                        inputs.shape[1] == 1))
            assert np.array_equal(step_sum(terms, inputs),
                                  _step_loop(terms, inputs))
            assert np.array_equal(step_sum(terms), _step_loop(terms))
        assert len(shapes) == 8

    def test_sums_higher_rank_terms(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            shape = [int(rng.integers(1, 41)), int(rng.choice([1, 8])),
                     int(rng.choice([1, 64]))]
            terms = rng.standard_normal(shape) * 10.0 ** rng.uniform(
                -8, 8, size=shape)
            terms[rng.random(shape) < 0.1] = 0.0
            assert np.array_equal(step_sum(terms), _step_loop(terms))

    def test_another_order_rounds_differently(self):
        """The cases above tell the orders apart: summing the steps first
        to last misses at least one of them."""
        rng = np.random.default_rng(0)
        cases = [_step_case(rng) for _ in range(200)]
        assert not all(np.array_equal(step_sum(t, x), _step_loop(t[::-1],
                                                                 x[::-1]))
                       for t, x in cases)

    def test_sign_of_zero_is_the_one_difference(self):
        terms = np.array([[-1.0], [-2.0]])
        inputs = np.zeros((2, 1))
        got, want = step_sum(terms, inputs), _step_loop(terms, inputs)
        assert np.array_equal(got, want)
        assert not np.signbit(got[0, 0]) and np.signbit(want[0, 0])
