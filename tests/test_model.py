import dataclasses
import hashlib

import numpy as np
import pytest
from test_kernels import densify, sparsify

from polydrive import dataset, model, simworld as sw
from polydrive.dataset import N_NEIGHBORS, NavigationCommand
from polydrive.errors import DataFormatError, NumericalError
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


def fd_grad(params, feats, key, idx, neighbor_loss=True):
    orig = params[key].flat[idx]
    params[key].flat[idx] = orig + FD_H
    lp, _ = loss_and_grad(params, feats, neighbor_loss)
    params[key].flat[idx] = orig - FD_H
    lm, _ = loss_and_grad(params, feats, neighbor_loss)
    params[key].flat[idx] = orig
    return (lp - lm) / (2 * FD_H)


class TestGradients:
    def test_all_blocks_match_finite_differences(self, batch):
        rng = np.random.default_rng(0)
        params = init_params(seed=1)
        _, grads = loss_and_grad(params, batch)
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
        _, grads = loss_and_grad(params, batch)
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
        _, grads = loss_and_grad(params, feats)
        h_sel = int(NavigationCommand.KEEP_LANE)
        for h in range(model.N_HEADS):
            g = grads[f"head{h}.W1"]
            if h == h_sel:
                assert np.abs(g).max() > 0.0
            else:
                assert (g == 0.0).all()

    def test_neighbor_loss_flag_zeroes_neighbor_grads(self, batch):
        params = init_params(seed=4)
        _, grads = loss_and_grad(params, batch, neighbor_loss=False)
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
        loss, grads = loss_and_grad(params, feats)
        ego_loss, ego_grads = loss_and_grad(params, feats, neighbor_loss=False)
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
            assert loss_and_grad(params, feats, neighbor_loss)[0] == float(se / 5) + float(sv / 5)
            sums.append(float(se) + float(sv))
        config = TrainConfig(neighbor_loss=neighbor_loss)
        monkeypatch.setattr(model, "EVAL_BATCH", 5)
        assert eval_loss(params, samples[:15], config) == (sums[0] + sums[1] + sums[2]) / 15

    def test_sparse_map_rows_match_dense_gradient(self, batch):
        # The map encoder takes its first-layer gradient on occupied rows
        # only; it must equal the dense x.T @ dz0 bit for bit.
        params = init_params(seed=6)
        _, _, cache = forward_batch(params, batch)
        dz1 = np.random.default_rng(6).standard_normal((len(batch["xm"]), 64))
        grads = zero_like_params(params)
        dz0 = model._mlp2_backward(params, "map_enc", grads, dz1, cache["map"], sparse_rows=True)
        x = cache["map"][0]
        occ = x.any(axis=0)
        assert 0 < occ.sum() < occ.size
        np.testing.assert_array_equal(grads["map_enc.W0"], x.T @ dz0)


class TestForward:
    def test_zero_params_give_zero_trajectories(self, samples):
        params = zero_like_params(init_params(0))
        ego = predict(params, samples[0])
        assert (ego.cx == 0.0).all() and (ego.cy == 0.0).all()
        _, nbr_coeffs, _ = forward_batch(params, featurize(samples[:1]))
        assert (nbr_coeffs == 0.0).all()

    def test_predict_matches_forward_batch_selected_head(self, samples):
        # predict's map layer sums over the occupied inputs only, so it may
        # differ from the dense product in the last bits (4.4e-16 measured).
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
                    np.testing.assert_allclose(got, ego_coeffs[0], rtol=1e-12, atol=1e-12)

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
        t = model._T
        for i in range(3):
            np.testing.assert_allclose(pts[i, :, 0], np.polyval(coeffs[i, :5], t))
            np.testing.assert_allclose(pts[i, :, 1], np.polyval(coeffs[i, 5:], t))


def reference_adam_step(params, grads, state, config):
    """Textbook Adam on fresh arrays, the reference for the in-place adam_step."""
    state = {"m": dict(state["m"]), "v": dict(state["v"]), "t": state["t"] + 1}
    t = state["t"]
    b1, b2 = config.beta1, config.beta2
    new_params = {}
    for key, p in params.items():
        g = grads[key]
        m = b1 * state["m"][key] + (1 - b1) * g
        v = b2 * state["v"][key] + (1 - b2) * g * g
        state["m"][key] = m
        state["v"][key] = v
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_params[key] = p - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return new_params, state


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = init_params(seed=9)
        before = {k: v.copy() for k, v in params.items()}
        grads = zero_like_params(params)
        state = init_adam_state(params)
        cfg = TrainConfig()
        new_params, _ = adam_step(params, grads, state, cfg)
        for k in before:
            np.testing.assert_array_equal(new_params[k], before[k])

    def test_matches_reference_adam_bitwise(self, batch, samples):
        # Two batches with different map occupancy, alternated, so that rows
        # occupied only in one of them keep moving on their momentum while
        # the other batch is trained on.
        other = featurize(samples[-8:])
        occ_a, occ_b = batch["xm"].any(axis=0), other["xm"].any(axis=0)
        assert (occ_a != occ_b).any()
        batches = [batch, other] * 10
        cfg = TrainConfig(learning_rate=1e-3)
        init = init_params(seed=14)

        params = {k: v.copy() for k, v in init.items()}
        state = init_adam_state(params)
        ref = {k: v.copy() for k, v in init.items()}
        ref_state = {"m": zero_like_params(ref), "v": zero_like_params(ref), "t": 0}
        for feats in batches:
            _, grads = loss_and_grad(params, feats)
            params, state = adam_step(params, grads, state, cfg)
            _, grads = loss_and_grad(ref, feats)
            ref, ref_state = reference_adam_step(ref, grads, ref_state, cfg)

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
            params, state = adam_step(params, grads, state, cfg)
            ref, ref_state = reference_adam_step(ref, grads, ref_state, cfg)
        for k in ref:
            np.testing.assert_array_equal(params[k], ref[k], err_msg=k)
            np.testing.assert_array_equal(state["v"][k], ref_state["v"][k], err_msg=k)

    def test_scalar_hand_check(self):
        cfg = TrainConfig(learning_rate=1e-3)
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        state = init_adam_state(params)
        new_params, state = adam_step(params, grads, state, cfg)
        m = (1 - cfg.beta1) * 0.5
        v = (1 - cfg.beta2) * 0.25
        m_hat = m / (1 - cfg.beta1)
        v_hat = v / (1 - cfg.beta2)
        expect = 1.0 - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        np.testing.assert_allclose(new_params["w"][0], expect, rtol=1e-12)

    def test_determinism_over_steps(self, batch):
        def run():
            params = init_params(seed=10)
            state = init_adam_state(params)
            cfg = TrainConfig(learning_rate=1e-4)
            for _ in range(20):
                _, grads = loss_and_grad(params, batch)
                params, state = adam_step(params, grads, state, cfg)
            return params

        a, b = run(), run()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


def _run_span_parity(params, grad_steps, cfg):
    """adam_step and reference_adam_step over the same gradients, compared
    bit for bit (so -0.0 differs from +0.0) after every step."""
    ref = {k: v.copy() for k, v in params.items()}
    state = init_adam_state(params)
    ref_state = {"m": zero_like_params(ref), "v": zero_like_params(ref), "t": 0}
    for step, grads in enumerate(grad_steps, start=1):
        params, state = adam_step(params, grads, state, cfg)
        ref, ref_state = reference_adam_step(ref, grads, ref_state, cfg)
        for k in ref:
            assert params[k].tobytes() == ref[k].tobytes(), (step, k, "p")
            assert state["m"][k].tobytes() == ref_state["m"][k].tobytes(), (step, k, "m")
            assert state["v"][k].tobytes() == ref_state["v"][k].tobytes(), (step, k, "v")
    return params, state


class TestAdamSpans:
    """adam_step updates only each ADAM_ROWS block's live span; these pin it
    bitwise to the update of every row on hand-built sparse gradients."""

    STEPS = 8
    # (step, key, rows, columns or None for the whole row, value): gradient
    # entries, on top of zero.  map_enc.W0 has 4,680 = 18 x 256 + 72 rows.
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
        # block 4: rows of -0.0 at every step (the span stays empty), and
        # a -0.0 row inside block 2's span
        *[(t, "map_enc.W0", list(range(1100, 1111)), None, -0.0) for t in range(1, 9)],
        (4, "map_enc.W0", [606], None, -0.0),
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
        # a 1-D bias, widening on both sides
        (1, "map_enc.b0", [40], None, 0.25),
        (5, "map_enc.b0", [3, 127], None, -0.35),
        # a small weight, one block, whose rows arrive out of order
        (2, "ctx_enc.W0", [5], None, 0.1),
        (4, "ctx_enc.W0", [0, 7], None, 0.15),
    ]
    # The bounding range of the non-zero rows each block ever had.
    SPANS = {
        "map_enc.W0": {
            2: [520, 701], 3: [900, 901], 5: [1280, 1536], 6: [1536, 1601], 7: [1800, 2048],
            18: [4608, 4680],
        },
        "map_enc.b0": {0: [3, 128]},
        "ctx_enc.W0": {0: [0, 8]},
    }

    def _grad_steps(self, params):
        steps = [zero_like_params(params) for _ in range(self.STEPS)]
        for step, key, rows, cols, value in self.ENTRIES:
            g = steps[step - 1][key]
            if cols is None:
                g[rows] = value
            else:
                g[np.ix_(rows, cols)] = value
        return steps

    def _params(self):
        params = init_params(seed=16)
        # -0.0 weights in rows that never get a gradient, and in a bias
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
        for grads in steps:
            for k, g in grads.items():
                ever[k] |= g.reshape(len(g), -1).any(axis=1)
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
        for grads in self._grad_steps(params):
            params, state = adam_step(params, grads, state, TrainConfig())
        for key, p in params.items():
            spans = state["spans"][key]
            assert len(spans) == -(-len(p) // model.ADAM_ROWS), key
            for i, span in enumerate(spans):
                want = self.SPANS.get(key, {}).get(i)
                if want is None:
                    assert span[0] >= span[1], (key, i, span)
                else:
                    assert span == want, (key, i, span)
        assert len(state["spans"]["map_enc.W0"]) == 19

    def test_dense_then_sparse(self):
        # Every span fills at the first step; later sparse gradients still
        # decay every row's moments, as the textbook update does.
        rng = np.random.default_rng(17)
        params = init_params(seed=17)
        dense = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        steps = [dense] + self._grad_steps(params)[:4]
        _, state = _run_span_parity(params, steps, TrainConfig(learning_rate=1e-3))
        for key, p in params.items():
            starts = range(0, len(p), model.ADAM_ROWS)
            assert state["spans"][key] == [[s, min(s + model.ADAM_ROWS, len(p))] for s in starts]


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
        # The sha256 of the trained parameters, recorded before adam_step
        # skipped the rows outside its live spans; the skip is exact.
        cfg = TrainConfig(learning_rate=3e-4, epochs=3, seed=5)
        params, _ = train(samples[:80], samples[80:100], cfg)
        h = hashlib.sha256()
        for k in sorted(params):
            h.update(params[k].tobytes())
        assert h.hexdigest() == "3e6fc6324733263bc9ba86cd865a69c59819127410718ed2a827f2eac4b835b4"

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
