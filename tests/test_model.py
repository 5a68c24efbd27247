import contextlib
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from test_kernels import densify, sparsify

from polydrive import augment, dataset, model, simworld as sw
from polydrive.dataset import N_NEIGHBORS, NavigationCommand
from polydrive.errors import DataFormatError, NumericalError
from polydrive.trajectory import GRID_T
from polydrive.model import (
    TrainConfig,
    adam_step,
    coeffs_to_points,
    eval_loss,
    eval_mae,
    featurize,
    forward_batch,
    init_adam_state,
    init_params,
    load_checkpoint,
    loss_and_grad,
    predict,
    save_checkpoint,
    train,
    zero_like_params,
)

FD_H = 1e-5
NO_ROWS = np.empty(0, dtype=np.intp)


@pytest.fixture(scope="module")
def town():
    return sw.build_town("train")


@pytest.fixture(scope="module")
def samples(town):
    log = sw.record_episode(town, seed=21, duration=20.0, n_cars=6, n_pedestrians=2)
    return dataset.extract_windows(log, town)


@pytest.fixture(scope="module")
def batch(samples):
    # sample a batch covering several navigation commands and neighbor counts
    picks, seen = [], set()
    for s in samples:
        key = (int(s.nc), int(s.v_mask.sum() > 0))
        if key not in seen or len(picks) < 8:
            picks.append(s)
            seen.add(key)
        if len(picks) == 8:
            break
    return featurize(picks)


def grads_of(params, feats, neighbor_loss=True):
    """The loss and its gradients, from loss_and_grad on a fresh buffer."""
    grads = zero_like_params(params)
    loss, _ = loss_and_grad(params, feats, grads, NO_ROWS, neighbor_loss)
    return loss, grads


def fd_grad(params, feats, key, idx, neighbor_loss=True):
    orig = params[key].flat[idx]
    params[key].flat[idx] = orig + FD_H
    lp, _ = grads_of(params, feats, neighbor_loss)
    params[key].flat[idx] = orig - FD_H
    lm, _ = grads_of(params, feats, neighbor_loss)
    params[key].flat[idx] = orig
    return (lp - lm) / (2 * FD_H)


class TestGradients:
    def test_all_blocks_match_finite_differences(self, batch):
        rng = np.random.default_rng(0)
        params = init_params(seed=1)
        _, grads = grads_of(params, batch)
        worst = 0.0
        for key in params:
            g = grads[key]
            for idx in rng.choice(g.size, size=min(6, g.size), replace=False):
                num = fd_grad(params, batch, key, int(idx))
                ana = g.flat[int(idx)]
                denom = max(abs(num), abs(ana), 1e-8)
                worst = max(worst, abs(num - ana) / denom)
        assert worst < 1e-4

    def test_unselected_heads_get_exactly_zero_grad(self, batch):
        params = init_params(seed=2)
        _, grads = grads_of(params, batch)
        used = set(int(v) for v in batch["nc"])
        for h in range(model.N_HEADS):
            for suffix in ("W0", "b0", "W1", "b1"):
                g = grads[f"head{h}.{suffix}"]
                if h not in used:
                    assert (g == 0.0).all()

    def test_single_nc_batch_isolates_one_head(self, samples):
        picks = [s for s in samples if s.nc == NavigationCommand.KEEP_LANE][:4]
        assert picks
        feats = featurize(picks)
        params = init_params(seed=3)
        _, grads = grads_of(params, feats)
        h_sel = int(NavigationCommand.KEEP_LANE)
        for h in range(model.N_HEADS):
            g = grads[f"head{h}.W1"]
            if h == h_sel:
                assert np.abs(g).max() > 0.0
            else:
                assert (g == 0.0).all()

    def test_neighbor_loss_flag_zeroes_neighbor_grads(self, batch):
        params = init_params(seed=4)
        _, grads = grads_of(params, batch, neighbor_loss=False)
        for key in grads:
            if key.startswith(("nbr_enc", "nbr_dec")):
                assert (grads[key] == 0.0).all()

    def test_masked_neighbors_contribute_nothing(self, samples):
        populated = [s for s in samples if s.v_mask.any()][:4]
        assert populated
        lonely = [
            dataclasses.replace(s, v_mask=np.zeros_like(s.v_mask)) for s in populated
        ]
        feats = featurize(lonely)
        params = init_params(seed=5)
        loss, grads = grads_of(params, feats)
        ego_loss, ego_grads = grads_of(params, feats, neighbor_loss=False)
        assert loss == ego_loss
        for key in grads:
            if key.startswith(("nbr_enc", "nbr_dec")):
                assert (grads[key] == 0.0).all()
            else:
                np.testing.assert_array_equal(grads[key], ego_grads[key])

    @pytest.mark.parametrize("neighbor_loss", [True, False])
    def test_loss_values_bitwise(self, samples, neighbor_loss, monkeypatch):
        # loss_and_grad divides the ego and the neighbor sums by the batch
        # size one at a time; eval_loss adds the sums of all chunks first.
        params = init_params(seed=3)
        chunks = [samples[i : i + 5] for i in range(0, 15, 5)]
        sums = []
        for chunk in chunks:
            feats = featurize(chunk)
            ego, nbr, _ = forward_batch(params, feats)
            se = np.sum((coeffs_to_points(ego) - feats["ye"]) ** 2)
            sv = np.sum(((coeffs_to_points(nbr) - feats["yv"]) ** 2) * feats["vmask"][:, :, None, None])
            sv = sv if neighbor_loss else 0.0
            assert grads_of(params, feats, neighbor_loss)[0] == float(se / 5) + float(sv / 5)
            sums.append(float(se) + float(sv))
        config = TrainConfig(neighbor_loss=neighbor_loss)
        monkeypatch.setattr(model, "EVAL_BATCH", 5)
        assert eval_loss(params, samples[:15], config) == (sums[0] + sums[1] + sums[2]) / 15

    def test_sparse_map_rows_match_dense_gradient(self, batch):
        # The map encoder reads and takes its first-layer gradient on the
        # batch's occupied rows only; the gradient must equal the dense
        # xm.T @ dz0 bit for bit.
        params = init_params(seed=6)
        _, _, cache = forward_batch(params, batch)
        dz1 = np.random.default_rng(6).standard_normal((len(batch["xm"]), 64))
        grads = zero_like_params(params)
        xm, rows = batch["xm"], cache["rows"]
        np.testing.assert_array_equal(rows, np.flatnonzero(xm.any(axis=0)))
        assert 0 < len(rows) < xm.shape[1]
        assert cache["map"][0].tobytes() == xm[:, rows].tobytes()
        dz0 = model._mlp2_backward(params, "map_enc", grads, dz1, cache["map"], rows)
        np.testing.assert_array_equal(grads["map_enc.W0"], xm.T @ dz0)

    def test_reused_buffer_matches_fresh_buffer(self, batch, samples):
        # One buffer over batches of different map occupancy: each call
        # zeroes the small arrays and the map rows the last call reported,
        # so every gradient is bitwise that of a fresh buffer.  The reported
        # rows are the batch's occupied map inputs.
        other = featurize(samples[-8:])
        occ_a, occ_b = batch["xm"].any(axis=0), other["xm"].any(axis=0)
        assert (occ_a & ~occ_b).any() and (occ_b & ~occ_a).any()
        params = init_params(seed=18)
        grads, rows = zero_like_params(params), NO_ROWS
        for feats, neighbor_loss in [(batch, True), (other, False), (batch, True), (other, True)]:
            loss, rows = loss_and_grad(params, feats, grads, rows, neighbor_loss)
            want_loss, want = grads_of(params, feats, neighbor_loss)
            assert loss == want_loss
            np.testing.assert_array_equal(rows, np.flatnonzero(feats["xm"].any(axis=0)))
            assert np.isin(np.flatnonzero(grads["map_enc.W0"].any(axis=1)), rows).all()
            for k in want:
                assert grads[k].tobytes() == want[k].tobytes(), k


class TestForward:
    def test_zero_params_give_zero_trajectories(self, samples):
        params = zero_like_params(init_params(0))
        ego = predict(params, samples[0])
        assert (ego.cx == 0.0).all() and (ego.cy == 0.0).all()
        _, nbr_coeffs, _ = forward_batch(params, featurize(samples[:1]))
        assert (nbr_coeffs == 0.0).all()

    def test_predict_matches_forward_batch_selected_head(self, samples):
        recorded = samples[::25]
        empty = dataclasses.replace(recorded[0], m=recorded[0].m.copy())
        empty.m["xy"] = 0.0
        rng = np.random.default_rng(9)
        crowded_map = rng.normal(0.0, 10.0, (13, 3, dataset.T_STEPS, 2 * dataset.K_WINDOW))
        crowded_map[rng.random(crowded_map.shape) < 0.6] = 0.0
        every_cell = np.ones(crowded_map.shape[:3], dtype=np.int64)
        crowded = dataclasses.replace(recorded[-1], m=sparsify(crowded_map, every_cell))
        assert np.count_nonzero(densify(empty.m)[0]) == 0
        assert np.count_nonzero(densify(crowded.m)[0]) >= 1000
        for seed in (4, 5, 6):
            params = init_params(seed=seed)
            # init_params zeroes the biases; set them so that a lost bias shows.
            for key in params:
                if ".b" in key:
                    params[key] = rng.normal(0.0, 0.1, params[key].shape)
            for s in [*recorded, empty, crowded]:
                for nc in NavigationCommand:
                    sample = dataclasses.replace(s, nc=nc)
                    ego_coeffs, _, _ = forward_batch(params, featurize([sample]))
                    ego = predict(params, sample)
                    got = np.concatenate([ego.cx, ego.cy])
                    assert got.tobytes() == ego_coeffs[0].tobytes()

    def test_nc_switch_changes_only_ego(self, samples):
        s = samples[len(samples) // 2]
        params = init_params(seed=6)
        feats_a = featurize([s])
        feats_b = featurize([s])
        feats_b["nc"][0] = (feats_a["nc"][0] + 1) % model.N_HEADS
        ego_a, nbr_a, _ = forward_batch(params, feats_a)
        ego_b, nbr_b, _ = forward_batch(params, feats_b)
        np.testing.assert_array_equal(nbr_a, nbr_b)
        assert not np.array_equal(ego_a, ego_b)

    def test_neighbor_slots_share_weights(self, samples):
        s = next(x for x in samples if x.v_mask.sum() >= 2)
        params = init_params(seed=7)
        feats = featurize([s])
        slots = [k for k in range(N_NEIGHBORS) if s.v_mask[k]][:2]
        a, b = slots
        # swapping two populated slots swaps their outputs exactly
        swapped = {k: v.copy() for k, v in feats.items()}
        swapped["xv"][0, [a, b]] = feats["xv"][0, [b, a]]
        swapped["yv"][0, [a, b]] = feats["yv"][0, [b, a]]
        _, nbr_orig, _ = forward_batch(params, feats)
        _, nbr_swap, _ = forward_batch(params, swapped)
        np.testing.assert_array_equal(nbr_swap[0, a], nbr_orig[0, b])
        np.testing.assert_array_equal(nbr_swap[0, b], nbr_orig[0, a])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_raises_named_error(self, samples):
        params = init_params(seed=8)
        feats = featurize([samples[0]])
        params["ego_enc.W0"] = params["ego_enc.W0"] * np.inf
        with pytest.raises(NumericalError):
            forward_batch(params, feats)

    def test_coeffs_to_points_matches_polyval(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=(3, 10))
        pts = coeffs_to_points(coeffs)
        t = GRID_T
        for i in range(3):
            np.testing.assert_allclose(pts[i, :, 0], np.polyval(coeffs[i, :5], t))
            np.testing.assert_allclose(pts[i, :, 1], np.polyval(coeffs[i, 5:], t))


def reference_adam_step(params, grads, state, config):
    """Textbook Adam on fresh arrays, the reference for the in-place adam_step."""
    state = {"m": dict(state["m"]), "v": dict(state["v"]), "t": state["t"] + 1}
    t = state["t"]
    b1, b2 = model.BETA1, model.BETA2
    new_params = {}
    for key, p in params.items():
        g = grads[key]
        m = b1 * state["m"][key] + (1 - b1) * g
        v = b2 * state["v"][key] + (1 - b2) * g * g
        state["m"][key] = m
        state["v"][key] = v
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_params[key] = p - config.learning_rate * m_hat / (np.sqrt(v_hat) + model.EPSILON)
    return new_params, state


ALL_ROWS = np.arange(model.LAYER_SIZES["map_enc"][0])


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = init_params(seed=9)
        before = {k: v.copy() for k, v in params.items()}
        grads = zero_like_params(params)
        state = init_adam_state(params)
        cfg = TrainConfig()
        new_params, _ = adam_step(params, grads, ALL_ROWS, state, cfg)
        for k in before:
            assert new_params[k].tobytes() == before[k].tobytes(), k

    def test_matches_reference_adam_bitwise(self, batch, samples):
        # Two batches with different map occupancy, alternated, so that rows
        # occupied only in one of them keep moving on their momentum while
        # the other batch is trained on.  adam_step reads the one buffer
        # and the rows that loss_and_grad reports, as train does.
        other = featurize(samples[-8:])
        occ_a, occ_b = batch["xm"].any(axis=0), other["xm"].any(axis=0)
        assert (occ_a != occ_b).any()
        batches = [batch, other] * 10
        cfg = TrainConfig(learning_rate=1e-3)
        init = init_params(seed=14)

        params = {k: v.copy() for k, v in init.items()}
        state = init_adam_state(params)
        grads, rows = zero_like_params(params), NO_ROWS
        ref = {k: v.copy() for k, v in init.items()}
        ref_state = {"m": zero_like_params(ref), "v": zero_like_params(ref), "t": 0}
        for feats in batches:
            _, rows = loss_and_grad(params, feats, grads, rows)
            params, state = adam_step(params, grads, rows, state, cfg)
            _, ref_grads = grads_of(ref, feats)
            ref, ref_state = reference_adam_step(ref, ref_grads, ref_state, cfg)

        for k in ref:
            np.testing.assert_array_equal(params[k], ref[k], err_msg=k)
            np.testing.assert_array_equal(state["m"][k], ref_state["m"][k], err_msg=k)
            np.testing.assert_array_equal(state["v"][k], ref_state["v"][k], err_msg=k)
        assert state["t"] == ref_state["t"] == len(batches)
        ever = occ_a | occ_b
        assert (~ever).any()
        w0, w0_init = params["map_enc.W0"], init["map_enc.W0"]
        np.testing.assert_array_equal(w0[~ever], w0_init[~ever])
        assert (w0[ever] != w0_init[ever]).any(axis=1).all()

    def test_dense_gradients_match_reference_bitwise(self):
        # Every element gets a gradient, so a row the update misses shows.
        rng = np.random.default_rng(15)
        cfg = TrainConfig(learning_rate=1e-3)
        params = init_params(seed=15)
        ref = {k: v.copy() for k, v in params.items()}
        state = init_adam_state(params)
        ref_state = {"m": zero_like_params(ref), "v": zero_like_params(ref), "t": 0}
        for _ in range(3):
            grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
            params, state = adam_step(params, grads, ALL_ROWS, state, cfg)
            ref, ref_state = reference_adam_step(ref, grads, ref_state, cfg)
        for k in ref:
            np.testing.assert_array_equal(params[k], ref[k], err_msg=k)
            np.testing.assert_array_equal(state["v"][k], ref_state["v"][k], err_msg=k)

    def test_scalar_hand_check(self):
        # One element of a small array and one of map_enc.W0, each 1.0 with
        # a gradient of 0.5; every other element stays put.
        cfg = TrainConfig(learning_rate=1e-3)
        params = init_params(seed=19)
        params["ctx_enc.b0"][3] = params["map_enc.W0"][700, 5] = 1.0
        before = {k: v.copy() for k, v in params.items()}
        grads = zero_like_params(params)
        grads["ctx_enc.b0"][3] = grads["map_enc.W0"][700, 5] = 0.5
        state = init_adam_state(params)
        new_params, state = adam_step(params, grads, np.array([700]), state, cfg)
        m = (1 - model.BETA1) * 0.5
        v = (1 - model.BETA2) * 0.25
        m_hat = m / (1 - model.BETA1)
        v_hat = v / (1 - model.BETA2)
        expect = 1.0 - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + model.EPSILON)
        np.testing.assert_allclose(new_params["ctx_enc.b0"][3], expect, rtol=1e-12)
        np.testing.assert_allclose(new_params["map_enc.W0"][700, 5], expect, rtol=1e-12)
        for k in before:
            moved = new_params[k] != before[k]
            assert moved.sum() == (k in ("ctx_enc.b0", "map_enc.W0")), k

    def test_determinism_over_steps(self, batch):
        def run():
            params = init_params(seed=10)
            state = init_adam_state(params)
            grads, rows = zero_like_params(params), NO_ROWS
            cfg = TrainConfig(learning_rate=1e-4)
            for _ in range(20):
                _, rows = loss_and_grad(params, batch, grads, rows)
                params, state = adam_step(params, grads, rows, state, cfg)
            return params

        a, b = run(), run()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


def _run_span_parity(params, grad_steps, cfg):
    """adam_step and reference_adam_step over the same (gradients, reported
    rows), compared bit for bit (so -0.0 differs from +0.0) after every step."""
    ref = {k: v.copy() for k, v in params.items()}
    state = init_adam_state(params)
    ref_state = {"m": zero_like_params(ref), "v": zero_like_params(ref), "t": 0}
    for step, (grads, rows) in enumerate(grad_steps, start=1):
        params, state = adam_step(params, grads, rows, state, cfg)
        ref, ref_state = reference_adam_step(ref, grads, ref_state, cfg)
        for k in ref:
            assert params[k].tobytes() == ref[k].tobytes(), (step, k, "p")
            assert state["m"][k].tobytes() == ref_state["m"][k].tobytes(), (step, k, "m")
            assert state["v"][k].tobytes() == ref_state["v"][k].tobytes(), (step, k, "v")
    return params, state


class TestAdamSpans:
    """adam_step updates only each ADAM_ROWS block's live span of map_enc.W0,
    widened from the reported rows, and every other array whole; these pin
    it bitwise to the update of every row on hand-built sparse gradients."""

    STEPS = 8
    # (step, key, rows, columns or None for the whole row, value): gradient
    # entries, on top of zero.  Each step reports the map_enc.W0 rows of its
    # entries.  map_enc.W0 has 4,680 = 18 x 256 + 72 rows.
    ENTRIES = [
        # block 2 (512-767): rows 600 and 610 at step 1, with gap rows
        # between; then the span widens below (520) and above (700) at step
        # 5, and gap row 605 gets its first gradient at step 6.
        (1, "map_enc.W0", [600, 610], None, 0.3),
        (3, "map_enc.W0", [600], None, -0.2),
        (5, "map_enc.W0", [520, 700], None, 0.7),
        (6, "map_enc.W0", [605], None, -1.1),
        # block 3: one row, non-zero in a single column only
        (2, "map_enc.W0", [900], [77], 0.9),
        # reported rows whose gradient is zero: block 4's rows of -0.0 at
        # every step, a -0.0 row inside block 2's span, and block 11's row
        # 3000 (-0.0 weights) with +0.0.  Each opens or sits in a span, and
        # its weights and zero moments keep their bits.
        *[(t, "map_enc.W0", list(range(1100, 1111)), None, -0.0) for t in range(1, 9)],
        (4, "map_enc.W0", [606], None, -0.0),
        (3, "map_enc.W0", [3000], None, 0.0),
        # block 5: empty until step 3, then its first and last rows at once
        (3, "map_enc.W0", [1280, 1535], None, 0.5),
        # block 6 starts at its first row, block 7 at its last; each widens
        # later into the rest of its block
        (1, "map_enc.W0", [1536], None, 0.45),
        (4, "map_enc.W0", [1600], None, -0.3),
        (1, "map_enc.W0", [2047], None, 0.35),
        (4, "map_enc.W0", [1800], None, 0.55),
        # block 18, the short last block (4608-4679): an inner row, then the
        # array's last row at step 5, then the block's first row
        (2, "map_enc.W0", [4650], None, 0.4),
        (5, "map_enc.W0", [4679], [0, 127], -0.6),
        (7, "map_enc.W0", [4608], None, 0.2),
        # arrays updated whole: a 1-D bias and a small weight
        (1, "map_enc.b0", [40], None, 0.25),
        (5, "map_enc.b0", [3, 127], None, -0.35),
        (2, "ctx_enc.W0", [5], None, 0.1),
        (4, "ctx_enc.W0", [0, 7], None, 0.15),
    ]
    # The bounding range of the rows each block of map_enc.W0 ever reported.
    SPANS = {
        2: [520, 701], 3: [900, 901], 4: [1100, 1111], 5: [1280, 1536], 6: [1536, 1601],
        7: [1800, 2048], 11: [3000, 3001], 18: [4608, 4680],
    }
    ZERO_ROWS = [*range(1100, 1111), 606, 3000]

    def _grad_steps(self, params):
        steps = [(zero_like_params(params), set()) for _ in range(self.STEPS)]
        for step, key, rows, cols, value in self.ENTRIES:
            g, reported = steps[step - 1][0][key], steps[step - 1][1]
            if cols is None:
                g[rows] = value
            else:
                g[np.ix_(rows, cols)] = value
            if key == "map_enc.W0":
                reported.update(rows)
        return [(grads, np.array(sorted(rows), dtype=np.intp)) for grads, rows in steps]

    def _params(self):
        params = init_params(seed=16)
        # -0.0 weights in rows that never get a non-zero gradient, and in a bias
        params["map_enc.W0"][1100:1104] = -0.0
        params["map_enc.W0"][3000, :5] = -0.0
        params["map_enc.b0"][64] = -0.0
        return params

    def test_matches_reference_bitwise_at_every_step(self):
        params = self._params()
        init = {k: v.copy() for k, v in params.items()}
        steps = self._grad_steps(params)
        params, state = _run_span_parity(params, steps, TrainConfig(learning_rate=1e-3))
        ever = {k: np.zeros(len(v), dtype=bool) for k, v in params.items()}
        for grads, _ in steps:
            for k, g in grads.items():
                ever[k] |= g.reshape(len(g), -1).any(axis=1)
        assert not ever["map_enc.W0"][self.ZERO_ROWS].any()
        for k in params:
            dead = ~ever[k]
            assert params[k][dead].tobytes() == init[k][dead].tobytes(), k
            zeros = np.zeros_like(params[k][dead]).tobytes()
            assert state["m"][k][dead].tobytes() == state["v"][k][dead].tobytes() == zeros, k
        live = ever["map_enc.W0"]
        assert (params["map_enc.W0"][live] != init["map_enc.W0"][live]).any(axis=1).all()

    def test_spans_bound_the_rows_ever_live(self):
        params = self._params()
        state = init_adam_state(params)
        for grads, rows in self._grad_steps(params):
            params, state = adam_step(params, grads, rows, state, TrainConfig())
        spans = state["spans"]
        assert len(spans) == 19
        for i, span in enumerate(spans):
            want = self.SPANS.get(i)
            if want is None:
                assert span[0] >= span[1], (i, span)
            else:
                assert span == want, (i, span)

    def test_dense_then_sparse(self):
        # Every span fills at the first step; later sparse gradients still
        # decay every row's moments, as the textbook update does.
        rng = np.random.default_rng(17)
        params = init_params(seed=17)
        dense = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        steps = [(dense, ALL_ROWS)] + self._grad_steps(params)[:4]
        _, state = _run_span_parity(params, steps, TrainConfig(learning_rate=1e-3))
        n = len(ALL_ROWS)
        starts = range(0, n, model.ADAM_ROWS)
        assert state["spans"] == [[s, min(s + model.ADAM_ROWS, n)] for s in starts]


def reference_train(train_samples, config):
    """train() without validation data as a textbook loop: a fresh zeroed
    gradient buffer at every step, and reference_adam_step over every row.
    Returns the parameters and each epoch's mean training loss."""
    rng = np.random.default_rng((config.seed, 0x7A))
    params = init_params(config.seed)
    state = {"m": zero_like_params(params), "v": zero_like_params(params), "t": 0}
    n, curve = len(train_samples), []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss, n_batches = 0.0, 0
        for i in range(0, n, config.batch_size):
            feats = featurize([train_samples[j] for j in order[i : i + config.batch_size]])
            loss, grads = grads_of(params, feats, config.neighbor_loss)
            params, state = reference_adam_step(params, grads, state, config)
            epoch_loss += loss
            n_batches += 1
        curve.append(epoch_loss / n_batches)
    return params, curve


@pytest.fixture(scope="module")
def dense_samples(samples):
    """A full, fraction-1.0 augmented set whose map inputs are nearly all
    occupied at some step, with a last batch of one sample."""
    cfg = augment.AugmentConfig(
        mode="full", fraction=1.0, sigma_long=0.1, sigma_lat=0.05, p_remove=0.1, p_add=0.02
    )
    out = augment.augment_samples(samples, cfg, seed=3)[:65]
    assert len(out) % 8 == 1
    return out


class TestTraining:
    def test_loss_decreases_on_small_set(self, samples):
        data = samples[:120]
        val = samples[120:150]
        cfg = TrainConfig(learning_rate=3e-4, epochs=8, seed=0)
        params, curve = train(data, val, cfg)
        assert curve[-1]["train_loss"] < curve[0]["train_loss"]
        assert set(curve[0]) >= {
            "train_loss", "val_loss", "val_ego", "val_ego_2s",
            "val_neighbors", "val_neighbors_2s",
        }

    def test_training_deterministic(self, samples):
        data, val = samples[:60], samples[60:80]
        cfg = TrainConfig(learning_rate=3e-4, epochs=3, seed=5)
        p1, c1 = train(data, val, cfg)
        p2, c2 = train(data, val, cfg)
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])
        assert c1 == c2

    def test_trained_params_digest(self, samples):
        # The sha256 of the trained parameters, re-recorded when the first
        # map layer of training came to read only the occupied inputs, which
        # reorders its sums (TestDenseMapReference pins the move).
        cfg = TrainConfig(learning_rate=3e-4, epochs=3, seed=5)
        params, _ = train(samples[:80], samples[80:100], cfg)
        h = hashlib.sha256()
        for k in sorted(params):
            h.update(params[k].tobytes())
        assert h.hexdigest() == "127542e3395c08871066736d8836ed5acde2ccfe0af53c5c0b4455213297fcbf"

    @pytest.mark.parametrize("case", ["sparse", "dense", "no-neighbor-loss"])
    def test_matches_textbook_loop_bitwise(self, samples, dense_samples, case):
        # train's one gradient buffer, its zeroing of the reported rows and
        # Adam's live spans against fresh gradients and every row updated.
        data = dense_samples if case == "dense" else samples[:80]
        cfg = TrainConfig(learning_rate=3e-4, epochs=3, seed=5, neighbor_loss=case != "no-neighbor-loss")
        params, curve = train(data, [], cfg)
        ref, ref_curve = reference_train(data, cfg)
        for k in ref:
            assert params[k].tobytes() == ref[k].tobytes(), k
        assert [row["train_loss"] for row in curve] == ref_curve

    def test_step_allocates_no_gradient(self, samples, monkeypatch):
        # One gradient buffer per run: what a training step allocates for a
        # while stays well under map_enc.W0's 4.8 MB gradient.  Each entry
        # is the peak above the current allocation since the last Adam step.
        peaks, step = [], model.adam_step

        def measured(*args):
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - current)
            tracemalloc.reset_peak()
            return step(*args)

        monkeypatch.setattr(model, "adam_step", measured)
        tracemalloc.start()
        try:
            train(samples[:80], [], TrainConfig(learning_rate=3e-4, epochs=2, seed=5))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 20
        assert max(peaks[1:]) <= 2.5e6, peaks

    def test_leakage_control(self, samples):
        # with a negligible learning rate the parameters stay put, so the
        # same data must score identically through both loss paths
        dup = samples[:8]
        cfg = TrainConfig(learning_rate=1e-15, epochs=2, seed=1, batch_size=8)
        _, curve = train(dup, dup, cfg)
        for row in curve:
            assert abs(row["train_loss"] - row["val_loss"]) < 1e-6 * max(
                1.0, row["train_loss"]
            )


@contextlib.contextmanager
def dense_map_layer():
    """Runs every first layer on all of its inputs, so that the map block
    computes the dense xm @ map_enc.W0 and its gradient xm.T @ dz0: the
    reference for the form that reads only the occupied inputs."""
    forward, backward = model._mlp2_forward, model._mlp2_backward
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_mlp2_forward", lambda params, prefix, x, *_: forward(params, prefix, x))
        mp.setattr(
            model, "_mlp2_backward",
            lambda params, prefix, grads, dz1, cache, *_: backward(params, prefix, grads, dz1, cache),
        )
        yield


class TestDenseMapReference:
    """Leaving the empty map inputs out of the first map layer reorders its
    sums, a declared float move; these pin it to the dense product."""

    @pytest.mark.parametrize("case", ["sparse", "dense", "empty"])
    def test_forward_matches_dense_product(self, batch, dense_samples, case):
        # Measured over init_params seeds 16-18: at most 8.9e-16 apart on the
        # sparse and dense batches, and bitwise equal on the empty map.
        feats = {
            "sparse": batch,
            "dense": featurize(dense_samples),
            "empty": {**batch, "xm": np.zeros_like(batch["xm"])},
        }[case]
        params = init_params(seed=16)
        ego, nbr, cache = forward_batch(params, feats)
        with dense_map_layer():
            dense_ego, dense_nbr, dense_cache = forward_batch(params, feats)
        xm, w0, b0 = feats["xm"], params["map_enc.W0"], params["map_enc.b0"]
        assert dense_cache["map"][1].tobytes() == np.tanh(xm @ w0 + b0).tobytes()
        assert len(cache["rows"]) == {"sparse": 136, "dense": 3802, "empty": 0}[case]
        np.testing.assert_allclose(ego, dense_ego, rtol=0, atol=1e-12)
        np.testing.assert_allclose(nbr, dense_nbr, rtol=0, atol=1e-12)
        if case == "empty":
            assert ego.tobytes() == dense_ego.tobytes()

    @pytest.mark.parametrize("case", ["sparse", "dense"])
    def test_training_matches_dense_product(self, samples, dense_samples, case):
        # Three epochs: the parameters were measured at most 5.6e-17 apart on
        # the sparse set and 7.1e-15 on the dense one.
        data = dense_samples if case == "dense" else samples[:80]
        cfg = TrainConfig(learning_rate=3e-4, epochs=3, seed=5)
        params, curve = train(data, samples[80:100], cfg)
        with dense_map_layer():
            dense, dense_curve = train(data, samples[80:100], cfg)
        for k in params:
            np.testing.assert_allclose(params[k], dense[k], rtol=0, atol=1e-13, err_msg=k)
        for key in ("train_loss", "val_loss"):
            np.testing.assert_allclose(
                [row[key] for row in curve], [row[key] for row in dense_curve], rtol=1e-12
            )


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        params = init_params(seed=11)
        cfg = TrainConfig(epochs=7, seed=3)
        path = tmp_path / "m.npz"
        save_checkpoint(params, path, cfg, extra={"note": "x"})
        back, meta = load_checkpoint(path)
        assert set(back) == set(params)
        for k in params:
            np.testing.assert_array_equal(back[k], params[k])
        assert meta["format_version"] == model.CKPT_FORMAT_VERSION
        assert meta["extra"]["note"] == "x"

    def test_rejects_bad_version(self, tmp_path):
        import json

        params = init_params(seed=12)
        path = tmp_path / "m.npz"
        save_checkpoint(params, path)
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(data["__meta__"]).decode())
        meta["format_version"] = 99
        data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(lambda p: p.update({"map_enc.W0": p["map_enc.W0"].T}), id="transposed"),
            pytest.param(lambda p: p.update({"head2.b1": p["head2.b1"][:-1]}), id="short"),
            pytest.param(lambda p: p.update({"ctx_enc.W0": p["ctx_enc.W0"][None]}), id="extra-axis"),
            pytest.param(lambda p: p.pop("nbr_dec.b0"), id="key-missing"),
            pytest.param(lambda p: p.update({"head9.W0": p["head0.W0"]}), id="key-extra"),
        ],
    )
    def test_rejects_wrong_layout(self, tmp_path, change):
        # eval-offline would die in matmul on such a file.
        params = init_params(seed=14)
        change(params)
        path = tmp_path / "m.npz"
        save_checkpoint(params, path)
        with pytest.raises(DataFormatError, match="shape|keys"):
            load_checkpoint(path)

    def test_eval_mae_keys(self, samples):
        params = init_params(seed=13)
        out = eval_mae(params, samples[:30])
        assert set(out) >= {"ego", "ego_2s", "neighbors", "neighbors_2s"}
        assert all(np.isfinite(v) for v in out.values())
