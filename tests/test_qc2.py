import numpy as np
import pytest

from quag.qc2 import (
    GatePair,
    Qc2Params,
    apply_filtration,
    build_query_centric_repr,
    compute_gates,
    fuse_query_context,
)
from quag.tensor import ShapeError, Tensor, grad_check, sum_all


def rng(seed=0):
    return np.random.default_rng(seed)


def make_params(dim=4, heads=2, seed=0):
    return Qc2Params.create(rng(seed), dim, heads)


def full_qc2(fused_av, query, params):
    context = fuse_query_context(fused_av, query, params)
    gates = compute_gates(context, params)
    filtered = apply_filtration(fused_av, gates)
    return build_query_centric_repr(filtered, context, params)


class TestFuseQueryContext:
    def test_block_selection_ignores_query(self):
        params = make_params(dim=3, heads=1, seed=1)
        w = np.zeros((6, 3), dtype=np.float32)
        w[:3] = np.eye(3)
        params.fuse.weight.data = w
        params.fuse.bias.data[:] = 0.0
        stream = Tensor(rng(2).standard_normal((4, 3)).astype(np.float32))
        query = Tensor(rng(3).standard_normal(3).astype(np.float32))
        out = fuse_query_context(stream, query, params)
        np.testing.assert_allclose(out.data, stream.data, atol=1e-6)

    def test_broadcast_fills_every_row_with_query(self):
        params = make_params(dim=3, heads=1, seed=4)
        w = np.zeros((6, 3), dtype=np.float32)
        w[3:] = np.eye(3)
        params.fuse.weight.data = w
        params.fuse.bias.data[:] = 0.0
        stream = Tensor(rng(5).standard_normal((4, 3)).astype(np.float32))
        query = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        out = fuse_query_context(stream, Tensor(query), params)
        np.testing.assert_allclose(out.data, np.tile(query, (4, 1)), atol=1e-6)

    def test_dimension_mismatch(self):
        params = make_params(dim=3, heads=1)
        with pytest.raises(ShapeError):
            fuse_query_context(Tensor(np.zeros((4, 3), dtype=np.float32)),
                               Tensor(np.zeros(5, dtype=np.float32)), params)
        with pytest.raises(ShapeError):  # a stacked stream takes one [1, D] query per episode
            fuse_query_context(Tensor(np.zeros((2, 4, 3), dtype=np.float32)),
                               Tensor(np.zeros((2, 3), dtype=np.float32)), params)

    def test_stacked_episodes_fuse_as_each_alone(self):
        params = make_params(dim=3, heads=1, seed=16)
        stream = rng(17).standard_normal((2, 4, 3)).astype(np.float32)
        query = rng(18).standard_normal((2, 1, 3)).astype(np.float32)
        out = fuse_query_context(Tensor(stream), Tensor(query), params)
        for b in range(2):
            alone = fuse_query_context(Tensor(stream[b]), Tensor(query[b, 0]), params)
            np.testing.assert_array_equal(out.data[b], alone.data)

    def test_gradient(self):
        params = make_params(dim=4, heads=2, seed=6)
        stream = Tensor(rng(7).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        query = Tensor(rng(8).standard_normal(4).astype(np.float32), requires_grad=True)
        tensors = [stream, query, params.fuse.weight, params.fuse.bias]

        def f():
            out = fuse_query_context(stream, query, params)
            return sum_all(out * out)

        err = grad_check(f, tensors, h=1e-3, max_coords=5)
        assert err < 1e-4


class TestComputeGates:
    def test_zero_weights_give_half_gates(self):
        params = make_params(dim=4, heads=2, seed=9)
        params.gate_temporal.weight.data[:] = 0.0
        params.gate_channel.weight.data[:] = 0.0
        context = Tensor(rng(10).standard_normal((5, 4)).astype(np.float32))
        gates = compute_gates(context, params)
        np.testing.assert_allclose(gates.temporal.data, np.full((5, 1), 0.5), atol=1e-7)
        np.testing.assert_allclose(gates.channel.data, np.full((1, 4), 0.5), atol=1e-7)
        np.testing.assert_allclose(gates.combined.data, np.full((5, 4), 0.25), atol=1e-7)

    def test_outer_product_arithmetic(self):
        params = make_params(dim=2, heads=1, seed=11)
        params.gate_temporal.weight.data = np.array([[1.0]], dtype=np.float32)
        params.gate_temporal.bias.data[:] = 0.0
        params.gate_channel.weight.data = np.eye(2, dtype=np.float32)
        params.gate_channel.bias.data[:] = 0.0
        # row means [0, M] and column means [0, M] drive both gates to [0.5, ~1]
        m = 20.0
        context = Tensor(np.array([[-m, m], [m, m]], dtype=np.float32))
        gates = compute_gates(context, params)
        np.testing.assert_allclose(
            gates.combined.data, [[0.25, 0.5], [0.5, 1.0]], atol=1e-4
        )

    def test_gates_strictly_inside_unit_interval(self):
        for seed in range(20):
            params = make_params(dim=5, heads=1, seed=seed)
            context = Tensor(rng(seed + 50).standard_normal((7, 5)).astype(np.float32) * 30)
            gates = compute_gates(context, params)
            assert (gates.combined.data > 0).all()
            assert (gates.combined.data < 1).all()

    def test_combined_equals_outer_product(self):
        params = make_params(dim=6, heads=2, seed=12)
        context = Tensor(rng(13).standard_normal((4, 6)).astype(np.float32))
        gates = compute_gates(context, params)
        outer = gates.temporal.data @ gates.channel.data
        np.testing.assert_allclose(gates.combined.data, outer, atol=1e-6)

    def test_stacked_episodes_gate_as_each_alone(self):
        params = make_params(dim=4, heads=2, seed=19)
        context = rng(20).standard_normal((3, 5, 4)).astype(np.float32)
        gates = compute_gates(Tensor(context), params)
        assert gates.temporal.shape == (3, 5, 1) and gates.channel.shape == (3, 1, 4)
        for b in range(3):
            alone = compute_gates(Tensor(context[b]), params)
            for stacked, single in zip((gates.temporal, gates.channel, gates.combined),
                                       (alone.temporal, alone.channel, alone.combined)):
                np.testing.assert_array_equal(stacked.data[b], single.data)

    def test_temporal_gate_monotone_in_frame_mean(self):
        params = make_params(dim=4, heads=2, seed=14)
        params.gate_temporal.weight.data = np.array([[1.5]], dtype=np.float32)
        context = rng(15).standard_normal((5, 4)).astype(np.float32)
        base = compute_gates(Tensor(context), params).temporal.data.copy()
        bumped = context.copy()
        bumped[2] += 1.0
        new = compute_gates(Tensor(bumped), params).temporal.data
        assert new[2, 0] > base[2, 0]


class TestFiltration:
    def test_uniform_gate(self):
        stream = Tensor(rng(16).standard_normal((3, 4)).astype(np.float32))
        gates = GatePair(
            temporal=Tensor(np.full((3, 1), 0.5, dtype=np.float32)),
            channel=Tensor(np.full((1, 4), 0.5, dtype=np.float32)),
            combined=Tensor(np.full((3, 4), 0.25, dtype=np.float32)),
        )
        np.testing.assert_allclose(
            apply_filtration(stream, gates).data, 0.25 * stream.data, atol=1e-7
        )

    def test_zero_stream_annihilates(self):
        params = make_params(dim=4, heads=2, seed=17)
        gates = compute_gates(Tensor(rng(18).standard_normal((3, 4)).astype(np.float32)), params)
        out = apply_filtration(Tensor(np.zeros((3, 4), dtype=np.float32)), gates)
        np.testing.assert_allclose(out.data, np.zeros((3, 4)))

    def test_never_changes_sign_and_shrinks(self):
        params = make_params(dim=4, heads=2, seed=19)
        stream = rng(20).standard_normal((6, 4)).astype(np.float32)
        context = Tensor(rng(21).standard_normal((6, 4)).astype(np.float32))
        out = apply_filtration(Tensor(stream), compute_gates(context, params)).data
        nonzero = stream != 0
        assert (np.sign(out[nonzero]) == np.sign(stream[nonzero])).all()
        assert (np.abs(out[nonzero]) < np.abs(stream[nonzero])).all()

    def test_shape_mismatch(self):
        gates = GatePair(
            temporal=Tensor(np.full((3, 1), 0.5, dtype=np.float32)),
            channel=Tensor(np.full((1, 4), 0.5, dtype=np.float32)),
            combined=Tensor(np.full((3, 4), 0.25, dtype=np.float32)),
        )
        with pytest.raises(ShapeError):
            apply_filtration(Tensor(np.zeros((4, 4), dtype=np.float32)), gates)

    def test_gradient_through_gates_and_filtration(self):
        params = make_params(dim=4, heads=2, seed=22)
        stream = Tensor(rng(23).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        context = Tensor(rng(24).standard_normal((3, 4)).astype(np.float32), requires_grad=True)

        def f():
            return sum_all(apply_filtration(stream, compute_gates(context, params)))

        tensors = [stream, context] + [t for _, t in params.named_params("qc2")]
        err = grad_check(f, tensors, h=1e-3, max_coords=5)
        assert err < 1e-4


class TestQueryCentricRepr:
    def test_zero_injection_leaves_filtered_stream(self):
        params = make_params(dim=4, heads=2, seed=25)
        params.inject.wo.data[:] = 0.0
        filtered = Tensor(rng(26).standard_normal((3, 4)).astype(np.float32))
        context = Tensor(rng(27).standard_normal((3, 4)).astype(np.float32))
        out = build_query_centric_repr(filtered, context, params)
        np.testing.assert_allclose(out.data, filtered.data, atol=1e-6)

    def test_single_frame_hand_sum(self):
        params = make_params(dim=2, heads=1, seed=28)
        for w in (params.inject.wq, params.inject.wk, params.inject.wv, params.inject.wo):
            w.data = np.eye(2, dtype=np.float32)
        filtered = Tensor(np.array([[1.0, -2.0]], dtype=np.float32))
        context = Tensor(np.array([[0.5, 3.0]], dtype=np.float32))
        out = build_query_centric_repr(filtered, context, params)
        np.testing.assert_allclose(out.data, [[1.5, 1.0]], atol=1e-6)

    @pytest.mark.parametrize("n_frames", [1, 7, 64])
    def test_output_shape(self, n_frames):
        params = make_params(dim=4, heads=2, seed=29)
        stream = Tensor(rng(30).standard_normal((n_frames, 4)).astype(np.float32))
        query = Tensor(rng(31).standard_normal(4).astype(np.float32))
        assert full_qc2(stream, query, params).shape == (n_frames, 4)

    def test_full_stack_gradient(self):
        params = make_params(dim=8, heads=2, seed=32)
        stream = Tensor(rng(33).standard_normal((5, 8)).astype(np.float32), requires_grad=True)
        query = Tensor(rng(34).standard_normal(8).astype(np.float32), requires_grad=True)
        tensors = [stream, query] + [t for _, t in params.named_params("qc2")]
        err = grad_check(lambda: sum_all(full_qc2(stream, query, params)),
                         tensors, h=1e-3, max_coords=4)
        assert err < 1e-4

    def test_independent_of_query_when_block_zeroed(self):
        params = make_params(dim=4, heads=2, seed=35)
        params.fuse.weight.data[4:, :] = 0.0  # zero the query block of the fusion
        stream = Tensor(rng(36).standard_normal((3, 4)).astype(np.float32))
        out_a = full_qc2(stream, Tensor(np.zeros(4, dtype=np.float32)), params)
        out_b = full_qc2(stream, Tensor(rng(37).standard_normal(4).astype(np.float32) * 5), params)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-6)
