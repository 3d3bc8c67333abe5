import numpy as np
import pytest

from quag.data import BOS, EOS
from quag.heads import (
    CaptionDecoder,
    DecodeState,
    SpanDistribution,
    StepBoundaryState,
    decode_moment,
    decode_step_caption,
    predict_moment_span,
    predict_step_boundaries,
    step_distribution,
)
from quag import tensor
from quag.layers import LinearLayer, xavier_uniform
from quag.tensor import (ShapeError, Tensor, attention_core, embed_rows, gelu, masked_softmax,
                         no_grad, reshape, slice_rows, sum_all)


def rng(seed=0):
    return np.random.default_rng(seed)


def frames_tensor(n=8, d=4, seed=0):
    return Tensor(rng(seed).standard_normal((n, d)).astype(np.float32))


def head(d=4, seed=1):
    """A [d, 1] task head, drawn as the model draws one."""
    return Tensor(xavier_uniform(rng(seed), d, 1), requires_grad=True)


def biased_logits(frames, layer):
    """A task head's [N] frame logits as they were while each head was a
    ``LinearLayer`` [D -> 1] with a bias; kept as the reference the
    weight-only heads are held to."""
    return reshape(layer(frames), (frames.shape[0],))


def biased_moment_span(frames, start_layer, end_layer):
    """``predict_moment_span`` over biased heads."""
    return SpanDistribution(p_start=masked_softmax(biased_logits(frames, start_layer)),
                            p_end=masked_softmax(biased_logits(frames, end_layer)))


def marked_step_distribution(frames, state, step_layer, marker):
    """``step_distribution`` as it was with the learned boundary marker (and
    a biased head): the marker vector added at the rows of the committed
    boundaries, each of which ``frame_mask`` then hides. Kept as the
    reference the marker-free head must equal bit for bit."""
    if state.boundaries:
        flags = np.zeros((frames.shape[0], 1), dtype=np.float32)
        flags[state.boundaries] = 1.0
        frames = frames + Tensor(flags) * marker
    return masked_softmax(biased_logits(frames, step_layer), state.frame_mask())


def marked_step_boundaries(frames, span, step_layer, marker, max_steps):
    """``predict_step_boundaries`` as it was: one marked
    ``step_distribution`` per boundary."""
    state = StepBoundaryState(span=span, n_frames=frames.shape[0])
    end = span[1]
    for _ in range(max_steps):
        if state.last_boundary == end:
            break
        probs = marked_step_distribution(frames, state, step_layer, marker)
        state.commit(int(np.argmax(probs.data)))
    bounds = state.boundaries
    if not bounds or bounds[-1] != end:
        if len(bounds) < max_steps:
            bounds.append(end)
        else:
            bounds[-1] = end
    return bounds


class TestMomentSpan:
    def test_zero_heads_give_uniform(self):
        zero = Tensor(np.zeros((4, 1), dtype=np.float32))
        dist = predict_moment_span(frames_tensor(6), zero, zero)
        np.testing.assert_allclose(dist.p_start.data, np.full(6, 1 / 6), atol=1e-6)
        np.testing.assert_allclose(dist.p_end.data, np.full(6, 1 / 6), atol=1e-6)

    def test_one_frame_is_certain(self):
        # a one-frame episode loads, so its span must decode, to (0, 0)
        dist = predict_moment_span(frames_tensor(1), head(), head(seed=2))
        assert dist.p_start.data.tolist() == dist.p_end.data.tolist() == [1.0]
        assert decode_moment(dist) == (0, 0)

    def test_distributions_are_simplices_for_random_heads(self):
        for seed in range(10):
            dist = predict_moment_span(frames_tensor(7, seed=seed),
                                       head(seed=seed), head(seed=seed + 50))
            for p in (dist.p_start.data, dist.p_end.data):
                assert (p >= 0).all()
                assert abs(p.sum() - 1.0) < 1e-6


class TestDecodeMoment:
    def make(self, ps, pe):
        return SpanDistribution(p_start=Tensor(np.asarray(ps, dtype=np.float32)),
                                p_end=Tensor(np.asarray(pe, dtype=np.float32)))

    def test_argmax_extraction(self):
        dist = self.make([0.1, 0.7, 0.2], [0.1, 0.1, 0.8])
        assert decode_moment(dist) == (1, 2)

    def test_peaked_pair(self):
        ps = np.full(10, 0.02); ps[2] = 0.82
        pe = np.full(10, 0.02); pe[7] = 0.82
        assert decode_moment(self.make(ps, pe)) == (2, 7)

    def test_reversed_peaks_fall_back_to_joint_maximum(self):
        start, end = decode_moment(self.make([0.1, 0.2, 0.7], [0.6, 0.3, 0.1]))
        assert (start, end) == (2, 2)
        # brute-force oracle over all ordered pairs
        ps, pe = [0.1, 0.2, 0.7], [0.6, 0.3, 0.1]
        pairs = [(s, e) for s in range(3) for e in range(s, 3)]
        best = max(pairs, key=lambda p: (ps[p[0]] * pe[p[1]], p[1] - p[0], -p[0]))
        assert (start, end) == best

    def test_uniform_yields_widest_earliest_span(self):
        n = 9
        dist = self.make(np.full(n, 1 / n), np.full(n, 1 / n))
        assert decode_moment(dist) == (0, n - 1)

    @staticmethod
    def loop_decode(ps, pe):
        """The O(N^2) double loop the vectorised fallback replaced, kept as
        the reference; returns the span and whether the fallback ran."""
        start = int(np.argmax(ps))
        end = len(pe) - 1 - int(np.argmax(pe[::-1]))
        if end >= start:
            return (start, end), False
        best = None
        for s in range(len(ps)):
            for e in range(s, len(pe)):
                key = (ps[s] * pe[e], e - s, -s)
                if best is None or key > best[0]:
                    best = (key, (s, e))
        return best[1], True

    @pytest.mark.parametrize("kind", ["random", "tied", "zero"])
    def test_matches_loop_reference(self, kind):
        gen = rng(60)
        fallbacks = 0
        for trial in range(200):
            n = int(gen.integers(2, 24))
            if kind == "random":
                ps, pe = gen.random(n), gen.random(n)
            elif kind == "tied":
                ps, pe = gen.integers(0, 3, n) / 4.0, gen.integers(0, 3, n) / 4.0
            else:
                # Start mass after end mass, so every ordered pair's product is 0.
                cut = int(gen.integers(1, n))
                ps = np.where(np.arange(n) >= cut, gen.integers(0, 2, n), 0.0)
                pe = np.where(np.arange(n) < cut, gen.integers(0, 2, n), 0.0)
                ps[cut], pe[cut - 1] = 1.0, 1.0
                if trial % 2:
                    ps, pe = np.zeros(n), np.zeros(n)
            if trial % 3 == 0:
                ps, pe = np.sort(ps), np.sort(pe)[::-1].copy()  # push start after end
            dist = self.make(ps, pe)
            expected, fell_back = self.loop_decode(dist.p_start.data, dist.p_end.data)
            fallbacks += fell_back
            assert decode_moment(dist) == expected, (ps, pe)
        assert fallbacks >= 50


class TestStepBoundaries:
    def test_single_frame_span(self):
        out = predict_step_boundaries(frames_tensor(8), (3, 3), head())
        assert out == [3]

    def test_strictly_ascending_for_random_parameters(self):
        for seed in range(50):
            frames = frames_tensor(10, seed=seed)
            bounds = predict_step_boundaries(frames, (2, 8), head(seed=seed), max_steps=6)
            assert bounds == sorted(set(bounds))
            assert all(2 < b <= 8 for b in bounds)
            assert bounds[-1] == 8
            assert len(bounds) <= 6

    def test_masked_frames_get_zero_probability(self):
        frames = frames_tensor(10, seed=3)
        state = StepBoundaryState(span=(2, 8), n_frames=10, boundaries=[4])
        probs = step_distribution(frames, state, head(seed=4))
        mask = state.frame_mask()
        assert (probs.data[mask] == 0.0).all()
        assert abs(probs.data.sum() - 1.0) < 1e-6
        assert mask[:5].all() and mask[9] and not mask[5:9].any()

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            predict_step_boundaries(frames_tensor(8), (5, 12), head())

    def test_max_steps_validated(self):
        with pytest.raises(ValueError, match="max_steps"):
            predict_step_boundaries(frames_tensor(8), (1, 6), head(), max_steps=0)

    def test_max_steps_forces_final_boundary_to_end(self):
        for seed in range(20):
            bounds = predict_step_boundaries(frames_tensor(12, seed=seed), (0, 10),
                                             head(seed=seed + 7), max_steps=2)
            assert bounds[-1] == 10
            assert len(bounds) <= 2

    def test_state_commit_validation(self):
        state = StepBoundaryState(span=(2, 8), n_frames=10)
        state.commit(4)
        with pytest.raises(ValueError):
            state.commit(4)
        with pytest.raises(ValueError):
            state.commit(9)


class TestAgainstMarkedParent:
    """The marker-free segmentation head against the marked one it replaces,
    with a random nonzero marker (and the biased head's zero bias):
    ``frame_mask`` hides every row the marker touched, so the probabilities,
    the gradients and the decoded boundaries are bit-equal, and the marker
    itself never got a gradient."""

    @pytest.mark.parametrize("seed", range(6))
    def test_step_distribution_equals_marked(self, seed):
        g = rng(80 + seed)
        n, d = 12, 6
        span = (int(g.integers(0, 4)), int(g.integers(7, n)))
        steps = sorted(g.choice(np.arange(span[0] + 1, span[1]), size=3, replace=False).tolist())
        step_layer = LinearLayer.create(g, d, 1)
        marker = Tensor(g.standard_normal(d).astype(np.float32), requires_grad=True)
        data = g.standard_normal((n, d)).astype(np.float32)
        for i in range(len(steps) + 1):
            state = StepBoundaryState(span=span, n_frames=n, boundaries=steps[:i])
            upstream = Tensor(g.standard_normal(n).astype(np.float32))

            def run(marked):
                frames = Tensor(data.copy(), requires_grad=True)
                for p in (step_layer.weight, marker):
                    p.grad = None
                probs = marked_step_distribution(frames, state, step_layer, marker) if marked \
                    else step_distribution(frames, state, step_layer.weight)
                sum_all(probs * upstream).backward()
                return probs.data, frames.grad, step_layer.weight.grad

            for got, want in zip(run(False), run(True)):
                assert np.array_equal(got, want)
            assert marker.grad is None or not marker.grad.any()

    def test_boundaries_equal_marked(self):
        g = rng(90)
        for _ in range(200):
            n, d = int(g.integers(2, 20)), int(g.integers(1, 8))
            start = int(g.integers(0, n))
            span = (start, int(g.integers(start, n)))
            frames = Tensor(g.standard_normal((n, d)).astype(np.float32))
            step_layer = LinearLayer.create(g, d, 1)
            marker = Tensor(g.standard_normal(d).astype(np.float32))
            max_steps = int(g.integers(1, 8))
            with no_grad():
                assert predict_step_boundaries(frames, span, step_layer.weight,
                                               max_steps=max_steps) \
                    == marked_step_boundaries(frames, span, step_layer, marker, max_steps)


class TestAgainstBiasedParent:
    """The weight-only task heads against the biased ``LinearLayer`` heads
    they replace. Each head feeds a softmax over frames, which ignores a
    shift shared by every frame. With the zero bias every head was created
    with, the probabilities, the frame and weight gradients and the decoded
    boundaries (``TestAgainstMarkedParent``, whose reference head has that
    bias) are bit-equal. With a random nonzero bias the probabilities agree to
    float32 rounding, and the bias gets only rounding noise as its gradient:
    it could not learn."""

    @staticmethod
    def run(data, state, layers, upstreams, biased):
        """The start, end and step probabilities, then the frame and weight
        gradients of a random linear function of them, then the biases'."""
        frames = Tensor(data.copy(), requires_grad=True)
        for layer in layers:
            layer.weight.grad = layer.bias.grad = None
        start, end, step = layers
        if biased:
            span = biased_moment_span(frames, start, end)
            p_step = masked_softmax(biased_logits(frames, step), state.frame_mask())
        else:
            span = predict_moment_span(frames, start.weight, end.weight)
            p_step = step_distribution(frames, state, step.weight)
        probs = (span.p_start, span.p_end, p_step)
        total = probs[0] * upstreams[0] + probs[1] * upstreams[1] + probs[2] * upstreams[2]
        sum_all(total).backward()
        return ([p.data for p in probs] + [frames.grad] + [layer.weight.grad for layer in layers],
                [layer.bias.grad for layer in layers])

    @staticmethod
    def draw(g):
        n, d = int(g.integers(2, 65)), int(g.choice([16, 64, 256]))
        span = (int(g.integers(0, n - 1)), n - 1)
        state = StepBoundaryState(span=span, n_frames=n)
        layers = [LinearLayer.create(g, d, 1) for _ in range(3)]
        upstreams = [Tensor(g.standard_normal(n).astype(np.float32)) for _ in range(3)]
        return g.standard_normal((n, d)).astype(np.float32), state, layers, upstreams

    def test_zero_bias_is_bit_equal(self):
        g = rng(100)
        for _ in range(100):
            data, state, layers, upstreams = self.draw(g)
            got, _ = self.run(data, state, layers, upstreams, biased=False)
            want, _ = self.run(data, state, layers, upstreams, biased=True)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_nonzero_bias_is_ignored_up_to_rounding(self):
        g = rng(101)
        for _ in range(100):
            data, state, layers, upstreams = self.draw(g)
            got, _ = self.run(data, state, layers, upstreams, biased=False)
            for layer in layers:
                layer.bias.data[:] = g.uniform(-1.0, 1.0)
            want, bias_grads = self.run(data, state, layers, upstreams, biased=True)
            for a, b in zip(got[:3], want[:3]):
                np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-7)
            for layer, bias_grad in zip(layers, bias_grads):
                assert np.abs(bias_grad).max() <= 1e-6 * np.linalg.norm(layer.weight.grad)


def make_decoder(vocab=12, dim=8, heads=2, layers=1, max_pos=16, seed=0):
    return CaptionDecoder.create(rng(seed), vocab, dim, heads, layers, max_pos)


class TestCaptionDecoder:
    def test_forced_eos_gives_empty_caption(self):
        decoder = make_decoder(seed=1)
        decoder.out.bias.data[EOS] = 1e9
        out = decode_step_caption(frames_tensor(6, 8, seed=2), (1, 4), decoder, max_len=8)
        assert out == []

    @pytest.mark.parametrize("step_span", [(-1, 2), (3, 2), (4, 6), (6, 6)])
    def test_step_span_out_of_range_rejected(self, step_span):
        with pytest.raises(ShapeError, match="out of range"):
            decode_step_caption(frames_tensor(6, 8, seed=2), step_span, make_decoder(seed=1),
                                max_len=8)

    def test_teacher_forced_logit_shape(self):
        decoder = make_decoder(vocab=12, seed=3)
        memory = frames_tensor(5, 8, seed=4)
        logits = decoder.teacher_forced_logits(memory, [BOS, 5, 6, 7])
        assert logits.shape == (4, 12)

    def test_causality_under_token_perturbation(self):
        decoder = make_decoder(seed=5)
        memory = frames_tensor(5, 8, seed=6)
        base = decoder.teacher_forced_logits(memory, [BOS, 4, 5, 6]).data
        perturbed = decoder.teacher_forced_logits(memory, [BOS, 4, 5, 9]).data
        np.testing.assert_allclose(perturbed[:3], base[:3], atol=1e-5)
        assert not np.allclose(perturbed[3], base[3])

    def test_decode_respects_max_len(self):
        decoder = make_decoder(seed=7)
        decoder.out.bias.data[EOS] = -1e9  # never stop voluntarily
        out = decode_step_caption(frames_tensor(6, 8, seed=8), (0, 5), decoder, max_len=5)
        assert len(out) == 5

    def test_token_id_validation(self):
        decoder = make_decoder(vocab=12, seed=9)
        with pytest.raises(IndexError):
            decoder.teacher_forced_logits(frames_tensor(4, 8), [BOS, 12])

    def test_step_restriction_changes_output_memory(self):
        decoder = make_decoder(seed=10)
        frames = frames_tensor(8, 8, seed=11)
        restricted = decode_step_caption(frames, (0, 2), decoder, max_len=6,
                                         restrict_to_step=True)
        full = decode_step_caption(frames, (0, 2), decoder, max_len=6,
                                   restrict_to_step=False)
        assert isinstance(restricted, list) and isinstance(full, list)

    def test_beam_width_one_matches_greedy(self):
        decoder = make_decoder(seed=12)
        memory = frames_tensor(5, 8, seed=13)
        assert decoder.beam_decode([memory.data], 6, 1) == decoder.greedy_decode([memory.data], 6)

    def test_beam_decode_returns_valid_tokens(self):
        decoder = make_decoder(vocab=12, seed=14)
        memory = frames_tensor(5, 8, seed=15)
        [out] = decoder.beam_decode([memory.data], 6, 3)
        assert all(0 <= t < 12 for t in out)
        assert len(out) <= 6


def recompute_greedy(decoder, memory, max_len):
    """The greedy loop DecodeState replaced: the whole prefix for every token."""
    ids = [BOS]
    out = []
    with no_grad():
        while len(out) < max_len and len(ids) < decoder.max_positions:
            nxt = int(np.argmax(decoder.teacher_forced_logits(memory, ids).data[-1]))
            if nxt == EOS:
                break
            out.append(nxt)
            ids.append(nxt)
    return out


def recompute_beam(decoder, memory, max_len, beam_width):
    """The beam search DecodeState replaced: each beam recomputes its prefix."""
    beams = [(0.0, [BOS], False)]
    with no_grad():
        for _ in range(min(max_len, decoder.max_positions - 1)):
            if all(done for _, _, done in beams):
                break
            grown = []
            for score, ids, done in beams:
                if done:
                    grown.append((score, ids, done))
                    continue
                logits = decoder.teacher_forced_logits(memory, ids).data[-1]
                shifted = logits - logits.max()
                logp = shifted - np.log(np.exp(shifted).sum())
                for tok in np.argsort(logp)[::-1][:beam_width]:
                    tok = int(tok)
                    grown.append((score + float(logp[tok]), ids + [tok], tok == EOS))
            grown.sort(key=lambda b: b[0], reverse=True)
            beams = grown[:beam_width]
    ids = max(beams, key=lambda b: b[0])[1][1:]
    return ids[:-1] if ids and ids[-1] == EOS else ids


def count_steps(monkeypatch):
    calls = []
    step = DecodeState.step

    def counted(self, tokens):
        calls.append(len(tokens))
        return step(self, tokens)

    monkeypatch.setattr(DecodeState, "step", counted)
    return calls


class TestDecodeState:
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_ids_as_full_prefix_recompute(self, seed, heads, layers):
        decoder = make_decoder(heads=heads, layers=layers, seed=seed)
        memory = frames_tensor(2 + seed, 8, seed=100 + seed)
        assert decoder.greedy_decode([memory.data], 10) == [recompute_greedy(decoder, memory, 10)]
        assert decoder.beam_decode([memory.data], 10, 1) == [recompute_greedy(decoder, memory, 10)]
        for width in (2, 3, 4):
            assert decoder.beam_decode([memory.data], 10, width) == \
                [recompute_beam(decoder, memory, 10, width)]

    @pytest.mark.parametrize("heads,layers", [(1, 1), (2, 2), (4, 2)])
    def test_rows_follow_select(self, heads, layers):
        decoder = make_decoder(heads=heads, layers=layers, seed=20 + heads)
        memory = frames_tensor(5, 8, seed=21)
        pick = rng(22)
        state = DecodeState(decoder, [memory.data])
        prefixes = [[BOS]]
        for _ in range(decoder.max_positions):
            logits = state.step([p[-1] for p in prefixes])
            assert logits.shape == (len(prefixes), decoder.vocab_size)
            for row, prefix in zip(logits, prefixes):
                expected = decoder.teacher_forced_logits(memory, prefix).data[-1]
                np.testing.assert_allclose(row, expected, atol=1e-5)
            rows = pick.integers(0, len(prefixes), size=pick.integers(1, 5))
            state.select(rows)
            prefixes = [prefixes[r] + [int(pick.integers(0, decoder.vocab_size))]
                        for r in rows]
        with pytest.raises(ShapeError):
            state.step([p[-1] for p in prefixes])

    def test_step_checks_token_count(self):
        state = DecodeState(make_decoder(seed=23), [frames_tensor(3, 8, seed=24).data])
        with pytest.raises(ShapeError):
            state.step([BOS, BOS])

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_single_frame_memory(self, width):
        decoder = make_decoder(seed=25)
        frames = frames_tensor(6, 8, seed=26)
        reference = (recompute_greedy if width == 1 else
                     lambda d, m, n: recompute_beam(d, m, n, width))
        out = decode_step_caption(frames, (3, 3), decoder, max_len=8, beam_width=width)
        assert out == reference(decoder, slice_rows(frames, 3, 4), 8)

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_len", [6, 20])
    def test_positions_cap_decode_length(self, width, max_len):
        decoder = make_decoder(max_pos=6, seed=27)
        decoder.out.bias.data[EOS] = -1e9  # never stop voluntarily
        memory = frames_tensor(4, 8, seed=28)
        [out] = decoder.beam_decode([memory.data], max_len, width)
        assert len(out) == decoder.max_positions - 1
        if width > 1:
            assert out == recompute_beam(decoder, memory, max_len, width)
        else:
            assert out == recompute_greedy(decoder, memory, max_len)

    def test_beams_all_ending_early_stop_the_search(self, monkeypatch):
        decoder = make_decoder(seed=29)
        decoder.out.bias.data[EOS] = 3.0
        memory = frames_tensor(4, 8, seed=30)
        steps = count_steps(monkeypatch)
        [out] = decoder.beam_decode([memory.data], 12, 3)
        assert out == recompute_beam(decoder, memory, 12, 3)
        assert 1 < len(steps) < 12
        assert steps[-1] < 3  # finished beams gave up their rows

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_forced_eos_gives_empty_caption_at_every_width(self, width):
        decoder = make_decoder(seed=1)
        decoder.out.bias.data[EOS] = 1e9
        out = decode_step_caption(frames_tensor(6, 8, seed=2), (1, 4), decoder, max_len=8,
                                  beam_width=width)
        assert out == []

    def test_width_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_decoder(seed=31).beam_decode([frames_tensor(3, 8).data], 4, 0)


def mixed_memories(seed, lengths=(1, 3, 7)):
    return [frames_tensor(n, 8, seed=seed * 10 + n) for n in lengths]


def arrays(memories):
    """The memories' arrays, as the decoder takes them."""
    return [m.data for m in memories]


class TestRowsOfSeveralMemories:
    """One DecodeState row per memory, padded to the longest and masked."""

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_each_memory_gets_the_ids_of_its_own_reference(self, seed, heads, layers):
        decoder = make_decoder(heads=heads, layers=layers, seed=40 + seed)
        memories = mixed_memories(seed)
        assert decoder.greedy_decode(arrays(memories), 10) == \
            [recompute_greedy(decoder, m, 10) for m in memories]
        for width in (2, 3, 4):
            assert decoder.beam_decode(arrays(memories), 10, width) == \
                [recompute_beam(decoder, m, 10, width) for m in memories]

    @pytest.mark.parametrize("heads,layers", [(1, 1), (2, 2), (4, 2)])
    def test_rows_keep_their_memory_through_select(self, heads, layers):
        decoder = make_decoder(heads=heads, layers=layers, seed=50 + heads)
        memories = mixed_memories(51, (7, 1, 3))
        pick = rng(52)
        state = DecodeState(decoder, arrays(memories))
        assert state.mask.shape == (3, 1, 1, 7)
        rows = [(m, [BOS]) for m in memories]
        for _ in range(decoder.max_positions):
            logits = state.step([prefix[-1] for _, prefix in rows])
            for row, (memory, prefix) in zip(logits, rows):
                expected = decoder.teacher_forced_logits(memory, prefix).data[-1]
                np.testing.assert_allclose(row, expected, atol=1e-5)
            kept = pick.integers(0, len(rows), size=pick.integers(1, 6))
            state.select(kept)
            rows = [(rows[r][0], rows[r][1] + [int(pick.integers(0, decoder.vocab_size))])
                    for r in kept]

    def test_equal_lengths_need_no_mask(self):
        decoder = make_decoder(seed=53)
        assert DecodeState(decoder, arrays(mixed_memories(54, (4, 4)))).mask is None
        assert DecodeState(decoder, arrays(mixed_memories(54, (4,)))).mask is None

    def test_no_memory_rejected(self):
        with pytest.raises(ShapeError):
            DecodeState(make_decoder(seed=55), [])
        with pytest.raises(ShapeError, match="no positions"):
            DecodeState(make_decoder(seed=55),
                        arrays(mixed_memories(56, (3,)) + [frames_tensor(0, 8)]))

    def test_rows_that_end_drop_out(self, monkeypatch):
        decoder = make_decoder(seed=20)
        decoder.out.bias.data[EOS] = 1.0
        memories = mixed_memories(20)
        expected = [recompute_greedy(decoder, m, 12) for m in memories]
        lengths = [len(ids) for ids in expected]
        assert lengths == [5, 4, 2]  # each caption ends at its own step
        steps = count_steps(monkeypatch)
        assert decoder.greedy_decode(arrays(memories), 12) == expected
        assert steps == [sum(n >= t for n in lengths) for t in range(max(lengths) + 1)]
        steps.clear()
        assert decoder.beam_decode(arrays(memories), 12, 3) == \
            [recompute_beam(decoder, m, 12, 3) for m in memories]
        assert steps[-1] < steps[1]  # finished beams gave up their rows


def graph_attention(attn, x, keys, values, mask):
    """Cached attention for the graph step: the numpy core on ``x.data``,
    its result wrapped as a Tensor."""
    rows = x.shape[0]
    q = (x.data @ attn.wq.data).reshape(rows, attn.n_heads, 1, -1)
    ctx = attention_core(q, keys, values, mask)[0]
    return Tensor(ctx.reshape(rows, -1) @ attn.wo.data)


def graph_step(state, tokens):
    """The decoder step as Tensor ops under ``no_grad``, which the numpy
    ``DecodeState.step`` replaced, kept as its reference: token embedding,
    position add, residuals, layer norms, GELU and linears each build a
    Tensor. Returns the logits Tensor and the caches with this position's
    keys and values appended; ``state`` is left as it was."""
    dec = state.decoder
    caches = []
    with no_grad():
        x = embed_rows(dec.embed, tokens) + slice_rows(dec.pos, state.length, state.length + 1)
        for block, (past_k, past_v, mem_k, mem_v) in zip(dec.blocks, state.caches):
            attn = block.self_attn
            rows, heads = x.shape[0], attn.n_heads
            keys = np.concatenate(
                [past_k, (x.data @ attn.wk.data).reshape(rows, heads, -1, 1)], axis=-1)
            values = np.concatenate(
                [past_v, (x.data @ attn.wv.data).reshape(rows, heads, 1, -1)], axis=-2)
            h = block._sublayer(0, x, graph_attention(attn, x, keys, values, None))
            h = block._sublayer(1, h, graph_attention(block.cross_attn, h, mem_k, mem_v,
                                                      state.mask))
            x = block._sublayer(2, h, block.ffn_out(gelu(block.ffn_in(h))))
            caches.append((keys, values, mem_k, mem_v))
        return dec.out(x), caches


def random_vectors(decoder, seed):
    """Give the decoder's biases and layer-norm gains random values, so no
    gain of 1 or bias of 0 hides a difference."""
    g = rng(seed)
    for _, p in decoder.named_params("dec"):
        if p.ndim == 1:
            p.data = g.standard_normal(p.shape).astype(np.float32)
    return decoder


class TestStepAgainstGraphStep:
    """The numpy step does the graph step's float32 operations in the same
    order, so logits and caches are equal bit for bit."""

    @pytest.mark.parametrize("lengths", [(7, 1, 3), (5, 5)])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_bit_identical_through_select(self, heads, layers, lengths):
        decoder = random_vectors(make_decoder(dim=16, heads=heads, layers=layers,
                                              seed=60 + heads), seed=61)
        memories = [frames_tensor(n, 16, seed=62 + n) for n in lengths]
        pick = rng(63)
        state = DecodeState(decoder, arrays(memories))
        assert (state.mask is None) == (len(set(lengths)) == 1)
        tokens = [BOS] * len(memories)
        for _ in range(decoder.max_positions):
            expected, caches = graph_step(state, tokens)
            logits = state.step(tokens)
            assert type(logits) is np.ndarray and logits.dtype == np.float32
            assert np.array_equal(logits, expected.data)
            for got, want in zip(state.caches, caches):
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            kept = pick.integers(0, state.rows, size=pick.integers(1, 6))
            state.select(kept)
            tokens = [int(t) for t in pick.integers(0, decoder.vocab_size, size=len(kept))]


def test_decoding_builds_no_tensor(monkeypatch):
    decoder = make_decoder(heads=2, layers=2, seed=64)
    memories = mixed_memories(65)
    expected = (decoder.greedy_decode(arrays(memories), 10),
                decoder.beam_decode(arrays(memories), 10, 3))
    made = []
    init, node = Tensor.__init__, tensor._node

    def counted_init(self, *args, **kwargs):
        made.append("Tensor")
        init(self, *args, **kwargs)

    def counted_node(*args):
        made.append("_node")
        return node(*args)

    monkeypatch.setattr(Tensor, "__init__", counted_init)
    monkeypatch.setattr(tensor, "_node", counted_node)
    assert (decoder.greedy_decode(arrays(memories), 10),
            decoder.beam_decode(arrays(memories), 10, 3)) == expected
    assert made == []
    with no_grad():
        decoder.out(memories[0])  # the counters do see graph ops: one affine node
    assert made.count("Tensor") == made.count("_node") == 1
