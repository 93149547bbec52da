"""Gradient and forward checks for the autodiff core.

Every differentiable op is checked against central finite differences
(h = 1e-5, float64) on random inputs in [-1, 1]. conv_time and mix_agents
are also checked against the einsum code they replaced.
"""

import collections
import inspect
import sys
import weakref

import numpy as np
import pytest

from stgcvae import autodiff as ad
from stgcvae import evaluation, model, synthetic, training
from stgcvae.errors import ContractError, DimensionError, ParameterError


def finite_diff(f, x, h=1e-5):
    """Central finite differences of a scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def assert_grads_close(analytic, numeric, rel=1e-4, abs_floor=1e-7):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    small = np.abs(analytic) < 1e-4
    denom = np.maximum(np.abs(numeric), 1e-12)
    relerr = np.abs(analytic - numeric) / denom
    abserr = np.abs(analytic - numeric)
    ok = np.where(small, abserr < abs_floor * 1e3 + 1e-7 + rel * np.abs(numeric),
                  relerr < rel)
    assert np.all(ok | (abserr < 1e-9)), (
        f"max rel err {relerr.max():.3e}, max abs err {abserr.max():.3e}")


def check_op(build, inputs, rel=1e-4, seed=0):
    """Compare reverse-mode grads of sum(build(*leaves)) with finite diffs."""
    leaves = [ad.leaf(x) for x in inputs]
    loss = ad.sum_all(build(*leaves))
    grads = ad.backward(loss)
    for i, x in enumerate(inputs):
        def f(xi, i=i):
            args = [ad.leaf(v) for v in inputs]
            args[i] = ad.leaf(xi)
            return float(ad.sum_all(build(*args)).data)
        assert_grads_close(grads.get(leaves[i]), finite_diff(f, x.copy()), rel=rel)


rng = np.random.default_rng(1234)


class TestConvTime:
    def test_unit_kernel_identity(self):
        x = rng.uniform(-1, 1, (1, 6, 2))
        k = np.ones((1, 1, 1))
        out = ad.conv_time(ad.leaf(x), ad.leaf(k), ad.leaf(np.zeros(1)),
                           padding=0)
        np.testing.assert_allclose(out.data, x)

    def test_hand_case(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)
        k = np.ones((1, 1, 3))
        out = ad.conv_time(ad.leaf(x), ad.leaf(k), ad.leaf([0.5]), padding=1)
        np.testing.assert_allclose(out.data.ravel(), [3.5, 6.5, 5.5])

    def test_output_length(self):
        x = ad.leaf(np.zeros((2, 8, 3)))
        k = ad.leaf(np.zeros((4, 2, 3)))
        b = ad.leaf(np.zeros(4))
        assert ad.conv_time(x, k, b, padding=1).shape == (4, 8, 3)

    def test_kernel_too_long(self):
        with pytest.raises(DimensionError):
            ad.conv_time(ad.leaf(np.zeros((1, 3, 1))),
                         ad.leaf(np.zeros((1, 1, 6))), ad.leaf(np.zeros(1)),
                         padding=1)

    @pytest.mark.parametrize("shape", [(2,), (4,), (), (3, 1)])
    def test_bias_must_match_output_channels(self, shape):
        with pytest.raises(DimensionError, match="bias"):
            ad.conv_time(ad.leaf(np.zeros((2, 5, 3))),
                         ad.leaf(np.zeros((3, 2, 3))),
                         ad.leaf(np.zeros(shape)), padding=1)

    def test_gradient_vs_finite_diff(self):
        x = rng.uniform(-1, 1, (2, 7, 3))
        k = rng.uniform(-1, 1, (3, 2, 3))
        b = rng.uniform(-1, 1, 3)
        check_op(lambda x, k, b: ad.conv_time(x, k, b, padding=1), [x, k, b],
                 rel=1e-5)


class TestElementwise:
    def test_prelu_negative(self):
        x = np.array([-2.0, 2.0]).reshape(2, 1, 1)
        out = ad.prelu(ad.leaf(x), ad.leaf([0.25, 0.5]))
        np.testing.assert_array_equal(out.data.ravel(), [-0.5, 2.0])

    def test_dropout_rate_zero_identity(self):
        x = rng.uniform(-1, 1, (3, 4))
        factor = ad.dropout_factor(x.shape, 0.0, np.random.default_rng(0))
        out = ad.dropout(ad.leaf(x), factor)
        np.testing.assert_array_equal(out.data, x)

    def test_dropout_bad_rate(self):
        with pytest.raises(ParameterError):
            ad.dropout_factor((3,), 1.0, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            ad.dropout(ad.leaf(np.zeros(3)), np.ones(4))

    def test_dropout_scaling(self):
        x = np.ones((200, 50))
        factor = ad.dropout_factor(x.shape, 0.5, np.random.default_rng(3))
        out = ad.dropout(ad.leaf(x), factor)
        kept = out.data[out.data != 0]
        assert np.allclose(kept, 2.0)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_exp_gradient_at_zero(self):
        x = ad.leaf(0.0)
        grads = ad.backward(ad.sum_all(ad.exp(x)))
        assert grads.get(x) == pytest.approx(1.0)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(ad.leaf(np.zeros(3)), ad.leaf(np.zeros(4)))

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    def test_scalar_against_tensor_rejected(self, op):
        # operands must have equal shapes; nothing broadcasts
        with pytest.raises(DimensionError, match=r"\(\) and \(3,\)"):
            op(ad.leaf(2.0), ad.leaf(np.zeros(3)))
        with pytest.raises(DimensionError):
            op(ad.leaf(np.zeros(3)), ad.leaf(2.0))

    def test_prelu_scalar_slope_rejected(self):
        with pytest.raises(DimensionError, match="slope"):
            ad.prelu(ad.leaf(np.zeros((3, 4, 2))), ad.leaf(0.25))

    @pytest.mark.parametrize("build", [
        lambda x: ad.dropout(x, ad.dropout_factor(
            (3, 4, 2), 0.5, np.random.default_rng(1))),
        lambda x: ad.exp(ad.scale(x, 0.5)),
        lambda x: ad.mul(x, x),
        lambda x: ad.prelu(x, ad.leaf(np.full(3, 0.25))),
    ])
    def test_gradients_vs_finite_diff(self, build):
        x = rng.uniform(-1, 1, (3, 4, 2))
        check_op(build, [x])

    def test_prelu_channel_slope_gradient(self):
        x = rng.uniform(-1, 1, (3, 5, 2))
        s = rng.uniform(0.1, 0.5, 3)
        check_op(lambda x, s: ad.prelu(x, s), [x, s])

    def test_clamp_gradient_mask(self):
        x = ad.leaf(np.array([-2.0, 0.5, 2.0]))
        grads = ad.backward(ad.sum_all(ad.clamp(x, -1.0, 1.0)))
        np.testing.assert_array_equal(grads.get(x), [0.0, 1.0, 0.0])


class TestStructuralOps:
    def test_mix_agents_gradient(self):
        x = rng.uniform(-1, 1, (2, 4, 3))
        adj = rng.uniform(0, 1, (4, 3, 3))
        adj = (adj + adj.swapaxes(1, 2)) / 2
        check_op(lambda x: ad.mix_agents(x, adj), [x])

    def test_transpose_roundtrip(self):
        x = rng.uniform(-1, 1, (2, 5, 3))
        out = ad.transpose_ct(ad.transpose_ct(ad.leaf(x)))
        np.testing.assert_array_equal(out.data, x)

    def test_concat_and_slice_gradients(self):
        # the VJP slices the output gradient back into one per operand
        a = rng.uniform(-1, 1, (2, 4, 3))
        b = rng.uniform(-1, 1, (3, 4, 3))
        w = rng.uniform(-1, 1, (5, 4, 3))
        check_op(lambda a, b: ad.mul(ad.concat_channels(a, b), ad.Value(w)),
                 [a, b])

    def test_agent_axis_ops_gradients(self):
        a = rng.uniform(-1, 1, (2, 4, 3))
        b = rng.uniform(-1, 1, (2, 4, 2))
        w = rng.uniform(-1, 1, (2, 4, 6))
        # repeated indices: the gathered copies' gradients must add up
        check_op(lambda a, b: ad.mul(ad.take_agents(
            ad.concat_agents(a, b), [1, 4, 4, 2, 1, 3]), ad.Value(w)),
            [a, b])

    def test_add_bias_gradient(self):
        # conv_time with a 1x1 identity kernel is the per-channel bias add
        x = rng.uniform(-1, 1, (3, 4, 2))
        b = rng.uniform(-1, 1, 3)
        eye = np.eye(3)[:, :, None]
        check_op(lambda x, b: ad.conv_time(x, ad.leaf(eye), b), [x, b])


def symmetric_adjacency(t, n):
    adj = rng.uniform(0, 1, (t, n, n))
    return (adj + adj.swapaxes(1, 2)) / 2


class TestSegments:
    """Windows stacked along the agent axis, each one segment of the agent
    columns: mix_agents mixes each segment through its own adjacency
    block, and conv_time and prelu reduce their parameters' gradients over
    every column, so a stack's parameter gradient is the sum of its
    segments' own."""

    N = 5
    OPS = {
        "conv_time": (lambda x: ad.conv_time(
            x, ad.leaf(np.linspace(-1, 1, 18).reshape(3, 2, 3)),
            ad.leaf([0.5, -1.0, 0.25]), 1)),
        # a 1x1 identity kernel leaves only the bias add inside conv_time
        "add_bias": (lambda x: ad.conv_time(
            x, ad.leaf(np.eye(2)[:, :, None]), ad.leaf([0.5, -1.0]), 0)),
        "prelu": lambda x: ad.prelu(x, ad.leaf([0.25, 0.5])),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_one_segment_is_byte_equal_to_none(self, op):
        # a segment's columns of a stack hold, byte for byte, the output and
        # input gradient of the op over that segment alone
        x = rng.uniform(-1, 1, (2, 6, self.N))
        stacked = self.OPS[op](ad.leaf(x))
        g = rng.uniform(-1, 1, stacked.shape)
        gx = stacked.vjp(g)[0]
        for c in (slice(0, 2), slice(2, self.N)):
            alone = self.OPS[op](ad.leaf(x[:, :, c]))
            assert alone.data.tobytes() == \
                np.ascontiguousarray(stacked.data[:, :, c]).tobytes()
            gx1 = alone.vjp(np.ascontiguousarray(g[:, :, c]))[0]
            assert gx1.tobytes() == np.ascontiguousarray(gx[:, :, c]).tobytes()

    def test_mix_agents_one_block_is_byte_equal_to_none(self):
        x = ad.leaf(rng.uniform(-1, 1, (2, 6, self.N)))
        adj = symmetric_adjacency(6, self.N)
        plain = ad.mix_agents(x, adj)
        whole = ad.mix_agents(x, [adj])
        assert plain.data.tobytes() == whole.data.tobytes()
        g = rng.uniform(-1, 1, plain.shape)
        assert plain.vjp(g)[0].tobytes() == whole.vjp(g)[0].tobytes()

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_segment_gradients_are_each_segments_own(self, op):
        # the parameters' gradients of a stack: the sum of each segment's
        x = rng.uniform(-1, 1, (2, 6, self.N))
        g = rng.uniform(-1, 1, (3 if op == "conv_time" else 2, 6, self.N))
        _, *stacked = self.OPS[op](ad.leaf(x)).vjp(g)
        total = [0.0] * len(stacked)
        for c in (slice(0, 2), slice(2, self.N)):
            _, *alone = self.OPS[op](ad.leaf(x[:, :, c])).vjp(
                np.ascontiguousarray(g[:, :, c]))
            total = [t + gp for t, gp in zip(total, alone, strict=True)]
        for gp, want in zip(stacked, total, strict=True):
            assert gp.shape == want.shape
            np.testing.assert_allclose(gp, want, rtol=1e-12)

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("segments", [(0, 4), (0, 2, 4), (0, 3, 3, 6)])
    def test_gradient_rejects_segments_not_splitting_n(self, op, segments):
        # the op takes no segments; the agent mix after it rejects blocks
        # whose segments do not split its N columns, before any gradient
        out = self.OPS[op](ad.leaf(np.ones((2, 6, self.N))))
        blocks = [np.zeros((6, b - a, b - a))
                  for a, b in zip(segments, segments[1:])]
        with pytest.raises(DimensionError, match="mix_agents"):
            ad.mix_agents(out, blocks)

    def test_two_block_mix_agents_gradient(self):
        x = rng.uniform(-1, 1, (2, 4, self.N))
        blocks = [symmetric_adjacency(4, 2), symmetric_adjacency(4, 3)]
        check_op(lambda x: ad.mix_agents(x, blocks), [x])
        out = ad.mix_agents(ad.leaf(x), blocks).data
        for block, c in zip(blocks, (slice(0, 2), slice(2, self.N))):
            alone = ad.mix_agents(ad.leaf(x[:, :, c]), block).data
            np.testing.assert_allclose(out[:, :, c], alone, rtol=1e-12)

    @pytest.mark.parametrize("blocks, segments", [
        ([(4, 2, 2)], (0, 2, 5)),             # a block missing
        ([(4, 2, 2), (4, 2, 2)], (0, 2, 5)),  # a block of the wrong size
        ([(3, 2, 2), (4, 3, 3)], (0, 2, 5)),  # wrong frame count
        ([(4, 5, 5)], (0, 4)),                # a block wider than N
    ])
    def test_blocks_must_match_segments(self, blocks, segments):
        x = ad.leaf(np.zeros((2, 4, segments[-1])))
        with pytest.raises(DimensionError):
            ad.mix_agents(x, [np.zeros(b) for b in blocks])

    def test_whole_array_with_segments_rejected(self):
        # a whole array is one segment's square block: a (T, n, N) array
        # that would span the stack's other segments is not one
        with pytest.raises(DimensionError):
            ad.mix_agents(ad.leaf(np.zeros((2, 4, 5))), np.zeros((4, 2, 5)))

    @pytest.mark.parametrize("op", ["conv_time", "prelu"])
    @pytest.mark.parametrize("shape", [(2,), (2, 4), (2, 4, 3, 1)])
    def test_channel_ops_need_3d_input(self, op, shape):
        with pytest.raises(DimensionError):
            self.OPS[op](ad.leaf(np.zeros(shape)))


class TestReparameterize:
    def test_same_seed_same_sample(self):
        mu = ad.leaf(rng.uniform(-1, 1, (4, 3)))
        lv = ad.leaf(rng.uniform(-1, 1, (4, 3)))
        a = ad.reparameterize(mu, lv,
                              np.random.default_rng(7).standard_normal((4, 3)))
        b = ad.reparameterize(mu, lv,
                              np.random.default_rng(7).standard_normal((4, 3)))
        np.testing.assert_array_equal(a.data, b.data)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.reparameterize(ad.leaf(np.zeros(2)), ad.leaf(np.zeros(3)),
                              np.zeros(2))
        with pytest.raises(DimensionError):
            ad.reparameterize(ad.leaf(np.zeros(2)), ad.leaf(np.zeros(2)),
                              np.zeros(3))

    def test_monte_carlo_mean(self):
        # sample mean over 1e5 draws approaches mu within 3*sigma/sqrt(n)
        mu, lv = 0.7, np.log(0.5 ** 2) * 1.0
        g = np.random.default_rng(11)
        draws = np.array([
            ad.reparameterize(ad.leaf(mu), ad.leaf(lv),
                              g.standard_normal(())).data
            for _ in range(100)])
        # vectorized equivalent for the bulk of the draws
        eps = g.standard_normal(100_000 - 100)
        all_draws = np.concatenate([draws.ravel(), mu + 0.5 * eps])
        tol = 3 * 0.5 / np.sqrt(all_draws.size)
        assert abs(all_draws.mean() - mu) < tol

    def test_gradients_flow_to_mu_and_logvar(self):
        mu = rng.uniform(-1, 1, (3, 2))
        lv = rng.uniform(-1, 1, (3, 2))
        seed = 5

        def build(mu, lv):
            eps = np.random.default_rng(seed).standard_normal((3, 2))
            return ad.mul(ad.reparameterize(mu, lv, eps),
                          ad.reparameterize(mu, lv, eps))

        check_op(build, [mu, lv])


class TestBackward:
    def test_square_gradient(self):
        x = ad.leaf(3.0)
        grads = ad.backward(ad.mul(x, x))
        assert grads.get(x) == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(ad.leaf(np.zeros(3)))

    def test_disconnected_parameter_zero_grad(self):
        x, y = ad.leaf(2.0), ad.leaf(5.0)
        grads = ad.backward(ad.mul(x, x))
        assert grads.get(y) == pytest.approx(0.0)
        assert y not in grads

    def test_constants_get_no_gradient(self):
        # only leaves are kept; a constant input to conv_time gets none
        x, w, b = ad.leaf(np.ones((2, 3, 1))), ad.leaf(np.ones((1, 2, 1))), \
            ad.leaf(np.zeros(1))
        c = ad.Value(np.full((2, 3, 1), 2.0))
        out = ad.add(ad.conv_time(c, w, b), ad.conv_time(ad.exp(x), w, b))
        grads = ad.backward(ad.sum_all(out))
        assert len(grads) == 3 and c not in grads
        np.testing.assert_allclose(grads.get(w), np.full((1, 2, 1),
                                                          6 + 3 * np.e))
        np.testing.assert_array_equal(grads.get(x), np.full((2, 3, 1), np.e))

    def test_fanout_sums_both_paths(self):
        x = ad.leaf(np.array([1.5]))
        loss = ad.sum_all(ad.add(ad.mul(x, x), ad.scale(x, 3.0)))
        grads = ad.backward(loss)
        np.testing.assert_allclose(grads.get(x), [2 * 1.5 + 3.0])

    def test_idempotent(self):
        x = ad.leaf(np.array([2.0, -1.0]))
        loss = ad.sum_all(ad.exp(ad.mul(x, x)))
        g1 = ad.backward(loss).get(x)
        g2 = ad.backward(loss).get(x)
        np.testing.assert_array_equal(g1, g2)

    @staticmethod
    def watched_record():
        """(leaf, [loss], probe) of a record whose upstream node's vjp sets
        probe["alive"] to whether the data of the exp node downstream of it
        is still alive. Value takes no weak reference, its array does."""
        x = ad.leaf(np.array([0.5, -1.0]))
        probe = {}

        def vjp(g):
            probe["alive"] = watched() is not None
            return (g,)

        down = ad.exp(ad.Value(x.data * 2.0, (x,), vjp))
        watched = weakref.ref(down.data)
        return x, [ad.sum_all(down)], probe

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before CPython 3.11 a caller keeps its references to a "
               "call's arguments until the call returns, so backward does "
               "not hold the record's only reference")
    def test_handed_over_record_is_freed_as_walked(self):
        x, box, probe = self.watched_record()
        got = ad.backward(box.pop()).get(x)
        assert probe == {"alive": False}
        kept_x, kept, _ = self.watched_record()
        assert got.tobytes() == ad.backward(kept[0]).get(kept_x).tobytes()

    def test_kept_loss_keeps_the_record(self):
        x, box, probe = self.watched_record()
        g1 = ad.backward(box[0]).get(x)
        assert probe == {"alive": True}
        probe.clear()
        g2 = ad.backward(box[0]).get(x)
        assert probe == {"alive": True}
        assert g1.tobytes() == g2.tobytes()

    def test_tanh_linear_net_vs_finite_diff(self):
        # a 1x1 conv_time is an affine map over channels; exp is the
        # nonlinearity
        w = rng.uniform(-0.5, 0.5, (4, 3, 1))
        b = rng.uniform(-0.5, 0.5, 4)
        x = rng.uniform(-1, 1, (3, 2, 2))
        check_op(lambda w, b, x: ad.exp(ad.conv_time(x, w, b)), [w, b, x],
                 rel=1e-5)

    def test_forward_deterministic(self):
        x = rng.uniform(-1, 1, (3, 3, 2))
        w = rng.uniform(-1, 1, (3, 3, 1))
        bias = ad.leaf(rng.uniform(-1, 1, 3))
        a = ad.exp(ad.conv_time(ad.leaf(x), ad.leaf(w), bias)).data
        b = ad.exp(ad.conv_time(ad.leaf(x), ad.leaf(w), bias)).data
        np.testing.assert_array_equal(a, b)


class TestRecordingRule:
    """A result keeps its parents and vjp only when one of its operands
    needs a gradient."""

    def test_ops_over_constants_keep_no_record(self):
        x = ad.Value(np.array([1.0, -2.0]))
        y = ad.exp(ad.mul(x, x))
        assert y.parents == () and y.vjp is None and not y.needs_grad
        np.testing.assert_array_equal(y.data, np.exp(x.data * x.data))

    def test_op_with_a_leaf_among_its_inputs_records(self):
        c = ad.Value(np.array([3.0, 4.0]))
        x = ad.leaf(np.array([1.0, -2.0]))
        assert c.node is None
        y = ad.mul(c, x)
        assert y.parents == (c.node, x.node) and y.vjp is not None \
            and y.needs_grad
        # the constant operand's node is kept on it, without a record
        assert c.node.parents == () and c.node.vjp is None \
            and not c.needs_grad
        np.testing.assert_array_equal(
            ad.backward(ad.sum_all(y)).get(x), c.data)

    def test_backward_of_a_constant_loss_is_empty(self):
        x = ad.Value(2.0)
        grads = ad.backward(ad.mul(x, x))
        assert len(grads) == 0 and x not in grads and grads.get(x) == 0.0

    def test_sampling_and_prior_choice_decode_without_record(
            self, monkeypatch):
        outputs, decode = [], model.TrajCvae.decode
        monkeypatch.setattr(model.TrajCvae, "decode", lambda *a, **k:
                            outputs.append(decode(*a, **k)) or outputs[-1])
        m = model.TrajCvae(model.ModelConfig(), rng=np.random.default_rng(0))
        window = synthetic.make_window("turn", 3, np.random.default_rng(1))
        evaluation.sample_futures(m, window, np.random.default_rng(2), 4)
        sampled = len(outputs)
        assert sampled and all(o.raw.node is None for o in outputs)
        training.chunk_gradients(m, [window], 0, np.random.default_rng(3))
        # best_prior_samples' decode, then the one the gradients come from
        choice, recorded = outputs[sampled:]
        assert choice.raw.parents == () and choice.raw.vjp is None
        assert recorded.raw.needs_grad and recorded.raw.parents


class TestWhatTheRecordKeeps:
    """A node keeps no data, and each VJP only the arrays it reads, so an
    activation that no VJP reads is freed once the forward drops it."""

    ADJ = np.random.default_rng(7).uniform(0, 1, (4, 5, 5))

    @staticmethod
    def chain(conv_input):
        """(leaves, [loss], conv input, conv output) of a recorded
        conv_time -> mix_agents -> prelu chain; conv_input(x) builds the
        convolution's input from the leaf x."""
        gen = np.random.default_rng(5)
        x = ad.leaf(gen.uniform(-1, 1, (3, 4, 5)))
        w = ad.leaf(gen.uniform(-1, 1, (2, 3, 1)))
        b = ad.leaf(gen.uniform(-1, 1, 2))
        slope = ad.leaf(np.full(2, 0.25))
        h = conv_input(x)
        conv = ad.conv_time(h, w, b)
        loss = ad.sum_all(ad.prelu(ad.mix_agents(
            conv, TestWhatTheRecordKeeps.ADJ), slope))
        return (x, w, b, slope), [loss], h, conv

    def test_unread_activation_is_freed_in_the_forward(self):
        leaves, box, _, conv = self.chain(lambda x: x)
        watched = weakref.ref(conv.data)
        del conv  # mix_agents' VJP reads only the adjacency
        assert watched() is None
        got = ad.backward(box.pop())
        # the same chain with its convolution output kept alive
        kept_leaves, kept, _, kept_conv = self.chain(lambda x: x)
        want = ad.backward(kept[0])
        for a, b in zip(leaves, kept_leaves, strict=True):
            assert got.get(a).tobytes() == want.get(b).tobytes()

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="see TestBackward.test_handed_over_record_is_freed_as_walked")
    def test_convolution_input_lives_until_backward(self):
        _, box, h, conv = self.chain(lambda x: ad.add(x, x))
        watched = weakref.ref(h.data)
        del h, conv  # conv_time's VJP reads its input's array
        assert watched() is not None
        ad.backward(box.pop())
        assert watched() is None

    def test_no_vjp_of_a_training_record_keeps_a_value(self, monkeypatch):
        checked, backward = [], ad.backward

        def inspecting(loss):
            stack, nodes = [loss], {}
            while stack:
                node = stack.pop()
                if node.nid not in nodes:
                    nodes[node.nid] = node
                    stack.extend(node.parents)
            for node in nodes.values():
                for cell in getattr(node.vjp, "__closure__", None) or ():
                    held = cell.cell_contents
                    items = held if isinstance(held, (list, tuple)) \
                        else (held,)
                    assert not any(isinstance(v, ad.Value) for v in items), \
                        f"{node.vjp.__qualname__} keeps a Value"
                checked.append(node)
            return backward(loss)

        monkeypatch.setattr(ad, "backward", inspecting)
        m = model.TrajCvae(model.ModelConfig(), rng=np.random.default_rng(0))
        windows = [synthetic.make_window("turn", 3, np.random.default_rng(1)),
                   synthetic.make_window("stop", 2, np.random.default_rng(4))]
        training.chunk_gradients(m, windows, 0, np.random.default_rng(2))
        assert len(checked) > 100


def test_every_op_is_used(monkeypatch):
    """Every public autodiff function runs in a training step (over two
    stacked windows) or in best-of-K sampling, so an op the model stops
    using shows up here (the record-keeping functions leaf and backward
    aside)."""
    calls = collections.Counter()
    ops = [name for name, fn in vars(ad).items() if inspect.isfunction(fn)
           and fn.__module__ == ad.__name__ and not name.startswith("_")]
    for name in ops:
        def counted(*args, _name=name, _fn=getattr(ad, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ad, name, counted)

    m = model.TrajCvae(model.ModelConfig(), rng=np.random.default_rng(0))
    window = synthetic.make_window("turn", 3, np.random.default_rng(1))
    other = synthetic.make_window("stop", 2, np.random.default_rng(4))
    training.chunk_gradients(m, [window, other], 0, np.random.default_rng(2))
    evaluation.sample_futures(m, window, np.random.default_rng(3), 2)

    assert len(ops) > 15
    unused = set(ops) - set(calls) - {"leaf", "backward"}
    assert not unused, f"never called: {sorted(unused)}"


# ---------------------------------------------------------------------------
# fixed matmul contractions against the einsum code they replaced


def einsum_conv_time(x, kernel, bias, padding=0):
    """conv_time as written with np.einsum(optimize=True), the reference."""
    xp = np.pad(x.data, ((0, 0), (padding, padding), (0, 0)))
    k = kernel.data.shape[2]
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)
    out = np.einsum("oik,itnk->otn", kernel.data, win, optimize=True) \
        + bias.data.reshape(-1, 1, 1)
    t, t_out = x.data.shape[1], out.shape[1]

    def vjp(g):
        gk = np.einsum("otn,itnk->oik", g, win, optimize=True)
        gb = g.sum(axis=(1, 2))
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[:, j:j + t_out, :] += np.einsum(
                "otn,oi->itn", g, kernel.data[:, :, j], optimize=True)
        gx = gxp[:, padding:padding + t, :] if padding else gxp
        return gx, gk, gb

    return ad.Value(out, (x, kernel, bias), vjp)


def einsum_mix_agents(x, adj):
    """mix_agents as written with np.einsum(optimize=True), the reference
    (for one window: one (T, N, N) array, or a list of one block)."""
    (adj,) = [adj] if isinstance(adj, np.ndarray) else adj
    out = np.einsum("ctm,tmn->ctn", x.data, adj, optimize=True)
    return ad.Value(out, (x,), lambda g: (
        np.einsum("ctn,tmn->ctm", g, adj, optimize=True),))


# numpy 2.4's einsum(optimize=True) contracts each pair with one matmul, and
# conv_time / mix_agents issue those matmuls with the same operand layouts
BIT_EXACT = np.__version__.startswith("2.4.")


def assert_same(got, want):
    """Bit-identical where BIT_EXACT, else within rtol 1e-12."""
    assert got.shape == want.shape
    if BIT_EXACT:
        assert got.tobytes() == want.tobytes(), np.max(np.abs(got - want))
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))


def strided(a):
    """The values of a laid out as a transpose_ct output: axes 0 and 1
    swapped in memory."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1)).swapaxes(0, 1)


def channels_last(a):
    """The values of a (C, T, N) array laid out as a conv_time or
    mix_agents output: (T, N, C) in memory."""
    return np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1)


# conv_time copies an unpadded input only when it is neither C- nor
# F-contiguous, so each of these layouts takes its own path
LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray,
           "strided": strided, "channels-last": channels_last}


class TestEinsumEquivalence:
    """conv_time (forward, input and kernel gradients) and mix_agents
    (forward and gradient) equal the einsum reference bit for bit on the
    build they were measured on (numpy 2.4.6, OpenBLAS 0.3.31). Across
    numpy builds the two agree only within rtol 1e-12.

    Every combination of C_in, K, input layout (C- or F-contiguous,
    strided or channels-last) and contiguous or strided gradient runs at 5
    agent counts; together they cover N = 1..130.
    """

    C_IN = (2, 8, 20, 24, 48)
    # (K, padding, frame counts): the model's 1x1, TCN / TXP and
    # recognition-reduction kernels
    KERNELS = ((1, 0, (8, 20)), (3, 1, (8, 20, 24)), (13, 0, (20,)))

    def cases(self):
        grid = [(c_in, kernel, xs, gs) for c_in in self.C_IN
                for kernel in self.KERNELS
                for xs in LAYOUTS for gs in (False, True)]
        for i, (c_in, (k, padding, frames), xs, gs) in enumerate(grid):
            for n in range(1 + i % 26, 131, 26):
                yield c_in, k, padding, frames, n, xs, gs

    def test_grid_covers_every_agent_count(self):
        assert {case[4] for case in self.cases()} == set(range(1, 131))

    def test_bit_identical_to_einsum(self):
        gen = np.random.default_rng(5)
        for c_in, k, padding, frames, n, xs, gs in self.cases():
            t = int(gen.choice(frames))
            c_out = int(gen.choice([2, 5, 8, 20, 24]))
            x = gen.standard_normal((c_in, t, n))
            x = ad.leaf(LAYOUTS[xs](x))
            kernel = ad.leaf(gen.standard_normal((c_out, c_in, k)))
            bias = ad.leaf(gen.standard_normal(c_out))
            got = ad.conv_time(x, kernel, bias, padding)
            want = einsum_conv_time(x, kernel, bias, padding)
            assert_same(got.data, want.data)
            g = gen.standard_normal(got.shape)
            g = strided(g) if gs else g
            for a, b in zip(got.vjp(g), want.vjp(g)):
                assert_same(a, b)

            # mix_agents sees a conv_time output in the model
            adj = gen.uniform(0, 1, (got.shape[1], n, n))
            got_mix = ad.mix_agents(got, adj)
            assert_same(got_mix.data, einsum_mix_agents(want, adj).data)
            g = gen.standard_normal(got_mix.shape)
            g = strided(g) if gs else g
            assert_same(got_mix.vjp(g)[0],
                        einsum_mix_agents(want, adj).vjp(g)[0])

    @pytest.mark.parametrize("agents", [1, 2, 5, 12, 40])
    def test_model_outputs_match_einsum(self, monkeypatch, agents):
        """Training gradients and losses, and best-of-20 samples, come out
        as they did with the einsum ops."""
        m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                           rng=np.random.default_rng(3))
        window = synthetic.make_window("turn", agents,
                                       np.random.default_rng(agents))

        def outputs():
            grads, report = training.window_gradients(
                m, window, 40, np.random.default_rng(7))
            samples = evaluation.sample_futures(
                m, window, np.random.default_rng(11), 20, "full")
            return [np.array([report.total, report.rec, report.kl]),
                    samples, *(grads[name] for name in sorted(grads))]

        got = outputs()
        monkeypatch.setattr(ad, "conv_time", einsum_conv_time)
        monkeypatch.setattr(ad, "mix_agents", einsum_mix_agents)
        for a, b in zip(got, outputs()):
            assert_same(a, b)

    @pytest.mark.parametrize("k, padding", [(1, 0), (3, 1), (13, 0)])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_segment_gradients_equal_per_window_calls(self, k, padding,
                                                      layout):
        """Stacked windows' input gradients are, byte for byte, those of
        each window's own call on its agent columns, and their kernel and
        bias gradients the sum of the windows' own to rtol 1e-10. (The
        forward GEMM's bits may depend on its row count, so the outputs
        are not compared.)"""
        gen = np.random.default_rng(k)
        bounds = (0, 1, 4, 9, 15)
        x = LAYOUTS[layout](gen.standard_normal((24, 20, bounds[-1])))
        kernel = ad.leaf(gen.standard_normal((20, 24, k)))
        bias = ad.leaf(gen.standard_normal(20))
        stacked = ad.conv_time(ad.leaf(x), kernel, bias, padding)
        g = gen.standard_normal(stacked.shape)
        gx, gk, gb = stacked.vjp(g)
        gk_sum, gb_sum = 0.0, 0.0
        for a, b in zip(bounds, bounds[1:]):
            alone = ad.conv_time(ad.leaf(x[:, :, a:b]), kernel, bias,
                                 padding)
            gx1, gk1, gb1 = alone.vjp(g[:, :, a:b])
            assert gx1.tobytes() == gx[:, :, a:b].tobytes()
            gk_sum, gb_sum = gk_sum + gk1, gb_sum + gb1
        np.testing.assert_allclose(gk, gk_sum, rtol=1e-10)
        np.testing.assert_allclose(gb, gb_sum, rtol=1e-10)

    @pytest.mark.parametrize("k", [1, 13])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_unpadded_input_is_read_not_written(self, k, layout):
        """With padding 0, conv_time reads a contiguous input in place: it
        never writes to it, and no output or gradient shares its memory."""
        gen = np.random.default_rng(1)
        data = LAYOUTS[layout](gen.standard_normal((24, 20, 6)))
        before = data.tobytes()
        data.flags.writeable = False  # any write raises
        x = ad.leaf(data)
        assert x.data is data
        out = ad.conv_time(x, ad.leaf(gen.standard_normal((5, 24, k))),
                           ad.leaf(gen.standard_normal(5)))
        grads = out.vjp(gen.standard_normal(out.shape))
        assert data.tobytes() == before
        for a in (out.data, *grads):
            assert not np.shares_memory(a, data)


def old_prelu(x, slope):
    """prelu as written with bool masks, the reference for the min/max
    forward and the float-mask gradient."""
    s = slope.reshape(-1, 1, 1)
    pos = x > 0
    return x * (s * ~pos + pos), lambda g: (g * (s * ~pos + pos),
                                            (g * x * ~pos).sum(axis=(1, 2)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_prelu_edge_values_match_bool_mask_form(layout):
    """Forward, input and slope gradients keep the bytes of the bool-mask
    form for signed zeros, infinities, NaN and subnormals, at slopes of
    ±0, below 0, in (0, 1) and above 1."""
    gen = np.random.default_rng(2)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                      2.2e-308, -2.2e-308, 1e-300, -1e-300, 1e300, -1e300])
    slopes = np.array([-2.5, -0.3, -0.0, 0.0, 1e-310, 0.25, 0.7, 1.0,
                       3.0])
    for _ in range(20):
        shape = (slopes.size, *gen.integers(1, 9, 2))
        x, g = (np.where(gen.random(shape) < 0.6, gen.choice(edges, shape),
                         gen.standard_normal(shape)) for _ in range(2))
        x = LAYOUTS[layout](x)
        got = ad.prelu(ad.leaf(x), ad.leaf(slopes))
        want, want_vjp = old_prelu(x, slopes)
        assert got.data.tobytes() == want.tobytes()
        assert got.data.strides == want.strides
        for a, b in zip(got.vjp(g), want_vjp(g), strict=True):
            assert a.tobytes() == b.tobytes()
