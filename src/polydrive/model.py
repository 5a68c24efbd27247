"""Branched trajectory predictor with analytic gradients.

Encoders (MLP blocks, tanh on the hidden layer and on the output):
  ego history   (T*K*2 -> 64 -> 32)
  neighbor histories, one shared block for all N slots (T*K*2 -> 64 -> 32)
  proximity map (flattened -> 128 -> 64)
  context scalars (8 -> 16)
Context vector C = [map encoding, ctx encoding].  Four goal-conditioned ego
heads ([C, ego] -> 64 -> 10) of which the branch matching the navigation
command is selected; one shared neighbor decoder ([C, nbr] -> 64 -> 10).
The 10 outputs are the polynomial coefficients (x_0..x_4, y_0..y_4); the
loss is the batch mean of the summed squared point errors on the 0.1 s
sampling grid, so coefficient scales never enter the objective.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import codec
from .dataset import K_WINDOW, MAP_SIZE, N_NEIGHBORS, T_STEPS, Sample
from .errors import DataFormatError, NumericalError
from .trajectory import VAND, PolyTrajectory2D

CKPT_FORMAT_VERSION = 1
N_HEADS = 4
POS_SCALE = 0.05
CTX_SCALE = np.array([1 / 50.0, 1.0, 1 / 50.0, 1 / 3.5, 1.0, 1 / 50.0, 1 / 8.0, 1 / 30.0])

# Block widths, input first (a history holds T * K points, a map cell K).
LAYER_SIZES = {
    "ego_enc": (T_STEPS * K_WINDOW * 2, 64, 32),
    "nbr_enc": (T_STEPS * K_WINDOW * 2, 64, 32),
    "map_enc": (MAP_SIZE * K_WINDOW * 2, 128, 64),
    "ctx_enc": (8, 16),
}
# C = [map encoding, ctx encoding]; a head reads [C, ego], nbr_dec [C, nbr].
CONTEXT_WIDTH = LAYER_SIZES["map_enc"][-1] + LAYER_SIZES["ctx_enc"][-1]
LAYER_SIZES["head"] = (CONTEXT_WIDTH + LAYER_SIZES["ego_enc"][-1], 64, 10)
LAYER_SIZES["nbr_dec"] = (CONTEXT_WIDTH + LAYER_SIZES["nbr_enc"][-1], 64, 10)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 8
    epochs: int = 30
    seed: int = 0
    neighbor_loss: bool = True


def _mlp_params(rng, sizes) -> dict[str, np.ndarray]:
    """Glorot-uniform weights and zero biases."""
    out = {}
    for i in range(len(sizes) - 1):
        bound = np.sqrt(6.0 / (sizes[i] + sizes[i + 1]))
        out[f"W{i}"] = rng.uniform(-bound, bound, size=(sizes[i], sizes[i + 1]))
        out[f"b{i}"] = np.zeros(sizes[i + 1])
    return out


def init_params(seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng((seed, 0x11))
    params: dict[str, np.ndarray] = {}
    for block in ("ego_enc", "nbr_enc", "map_enc", "ctx_enc", "nbr_dec"):
        for k, v in _mlp_params(rng, LAYER_SIZES[block]).items():
            params[f"{block}.{k}"] = v
    for h in range(N_HEADS):
        for k, v in _mlp_params(rng, LAYER_SIZES["head"]).items():
            params[f"head{h}.{k}"] = v
    return params


def zero_like_params(params) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


# -- featurization ------------------------------------------------------------


def featurize(samples: list[Sample]) -> dict[str, np.ndarray]:
    b = len(samples)
    feats = {
        "xe": np.empty((b, LAYER_SIZES["ego_enc"][0])),
        "xv": np.empty((b, N_NEIGHBORS, LAYER_SIZES["nbr_enc"][0])),
        "vmask": np.empty((b, N_NEIGHBORS)),
        "xm": np.zeros((b, LAYER_SIZES["map_enc"][0])),
        "xc": np.empty((b, 8)),
        "nc": np.empty(b, dtype=np.int64),
        "ye": np.empty((b, T_STEPS, 2)),
        "yv": np.empty((b, N_NEIGHBORS, T_STEPS, 2)),
    }
    for i, s in enumerate(samples):
        feats["xe"][i] = s.e.ravel() * POS_SCALE
        feats["xv"][i] = s.v.reshape(N_NEIGHBORS, -1) * POS_SCALE
        feats["vmask"][i] = s.v_mask.astype(np.float64)
        feats["xm"][i].reshape(MAP_SIZE, -1)[s.m["cell"]] = s.m["xy"] * POS_SCALE
        feats["xc"][i] = s.ctx * CTX_SCALE
        feats["nc"][i] = int(s.nc)
        feats["ye"][i] = s.ego_future
        feats["yv"][i] = s.neigh_future
    return feats


# -- forward / backward --------------------------------------------------------


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite activations in layer {name}")


def _block_forward(params, prefix, x, rows=slice(None)):
    """One MLP block of one or two layers: tanh after the hidden layer, and
    after the output in an encoder (``*_enc``).  The first layer reads only
    the inputs ``rows``, all by default; the inputs it leaves out must be 0.
    Returns the output and the cache (inputs read, hidden or None, output)."""
    x = x[:, rows]
    z = x @ params[f"{prefix}.W0"][rows] + params[f"{prefix}.b0"]
    a = None
    if f"{prefix}.W1" in params:
        a = np.tanh(z)
        z = a @ params[f"{prefix}.W1"] + params[f"{prefix}.b1"]
    _check_finite(prefix, z)
    out = np.tanh(z) if prefix.endswith("_enc") else z
    return out, (x, a, out)


def _block_backward(params, prefix, grads, d_out, cache, rows=slice(None)):
    """Accumulate the block's gradients from ``d_out``, the gradient at its
    output; returns dz, the first layer's pre-activation gradient.

    The first-layer weight gets its gradient only on the forward's ``rows``;
    its other inputs are 0, so every other row of the gradient stays 0.
    """
    x, a, out = cache
    dz = d_out * (1.0 - out * out) if prefix.endswith("_enc") else d_out
    if a is not None:
        grads[f"{prefix}.W1"] += a.T @ dz
        grads[f"{prefix}.b1"] += dz.sum(axis=0)
        dz = (dz @ params[f"{prefix}.W1"].T) * (1.0 - a * a)
    grads[f"{prefix}.W0"][rows] += x.T @ dz
    grads[f"{prefix}.b0"] += dz.sum(axis=0)
    return dz


def _encode(params, feats):
    """Shared trunk: the cache up to the context C and the heads' input
    [C, ego].  Most proximity-map cells are empty, so the map block reads
    only the batch's occupied inputs, its sorted ``rows``."""
    ego_a, ego_cache = _block_forward(params, "ego_enc", feats["xe"])
    rows = np.flatnonzero(feats["xm"].any(axis=0))
    map_a, map_cache = _block_forward(params, "map_enc", feats["xm"], rows)
    ctx_a, ctx_cache = _block_forward(params, "ctx_enc", feats["xc"])
    context = np.concatenate([map_a, ctx_a], axis=1)
    return {
        "ego": ego_cache,
        "map": map_cache,
        "ctx": ctx_cache,
        "rows": rows,
        "context": context,
        "he": np.concatenate([context, ego_a], axis=1),
    }


def forward_batch(params, feats):
    """Ego coefficients from the heads the commands select, each run once on
    its own rows; neighbor coefficients from one encoder and one decoder pass
    over all B * N slot rows (batch-major).  Returns both and the cache."""
    cache = _encode(params, feats)
    b = len(feats["nc"])
    ego_coeffs = np.empty((b, 10))
    cache["heads"] = []
    for h in range(N_HEADS):
        sel = feats["nc"] == h
        ego_coeffs[sel], h_cache = _block_forward(params, f"head{h}", cache["he"][sel])
        cache["heads"].append((sel, h_cache))
    nbr_a, cache["nbr_enc"] = _block_forward(params, "nbr_enc", feats["xv"].reshape(b * N_NEIGHBORS, -1))
    hv = np.concatenate([np.repeat(cache["context"], N_NEIGHBORS, axis=0), nbr_a], axis=1)
    nbr_coeffs, cache["nbr_dec"] = _block_forward(params, "nbr_dec", hv)
    return ego_coeffs, nbr_coeffs.reshape(b, N_NEIGHBORS, 10), cache


def coeffs_to_points(coeffs: np.ndarray) -> np.ndarray:
    """(..., 10) coefficient vectors -> (..., 20, 2) sampled points."""
    cx = coeffs[..., :5]
    cy = coeffs[..., 5:]
    px = cx @ VAND.T
    py = cy @ VAND.T
    return np.stack([px, py], axis=-1)


def _coeff_grad(g_pts: np.ndarray) -> np.ndarray:
    """Adjoint of coeffs_to_points: (B, 20, 2) point grads -> (B, 10)."""
    d = np.einsum("bti,tj->bji", g_pts, VAND)
    return np.concatenate([d[:, :, 0], d[:, :, 1]], axis=1)


def _squared_errors(pe, pv, feats, neighbor_loss: bool) -> tuple[float, float]:
    """Summed squared point errors of the ego and of the present neighbors
    (0.0 without the neighbor loss)."""
    ego = float(np.sum((pe - feats["ye"]) ** 2))
    if not neighbor_loss:
        return ego, 0.0
    return ego, float(np.sum(((pv - feats["yv"]) ** 2) * feats["vmask"][:, :, None, None]))


def loss_and_grad(params, feats, grads, rows, neighbor_loss: bool = True):
    """Batch-mean point L2 loss; writes its analytic gradients into ``grads``,
    one buffer per run (zero_like_params), of whose map_enc.W0 only ``rows``,
    the rows the last call returned (none at the first), may be non-zero.
    Zeroes those and every other array, then runs each block's backward once,
    on the rows its forward read.  Returns the loss and the map_enc.W0 rows
    this call wrote, sorted."""
    b = feats["xe"].shape[0]
    ego_coeffs, nbr_coeffs, cache = forward_batch(params, feats)
    pe = coeffs_to_points(ego_coeffs)
    pv = coeffs_to_points(nbr_coeffs)
    ego_sum, nbr_sum = _squared_errors(pe, pv, feats, neighbor_loss)
    loss = ego_sum / b + nbr_sum / b

    for key, g in grads.items():
        g[rows if key == "map_enc.W0" else ...] = 0.0
    # d loss / d coefficient vectors.
    ge_pts = 2.0 * (pe - feats["ye"]) / b  # (B, T, 2)
    d_ego = _coeff_grad(ge_pts)

    # Ego heads: each backward over the rows its command selects.
    d_he = np.zeros_like(cache["he"])
    for h, (sel, h_cache) in enumerate(cache["heads"]):
        dz0 = _block_backward(params, f"head{h}", grads, d_ego[sel], h_cache)
        d_he[sel] += dz0 @ params[f"head{h}.W0"].T
    d_context = np.zeros_like(cache["context"])
    d_context += d_he[:, :CONTEXT_WIDTH]

    # Neighbor decoder/encoder (shared blocks) over all B * N slot rows.
    if neighbor_loss:
        gv_pts = 2.0 * ((pv - feats["yv"]) * feats["vmask"][:, :, None, None]) / b
        d_nbr = _coeff_grad(gv_pts.reshape(b * N_NEIGHBORS, T_STEPS, 2))
        dz0 = _block_backward(params, "nbr_dec", grads, d_nbr, cache["nbr_dec"])
        d_hv = dz0 @ params["nbr_dec.W0"].T
        d_context += d_hv[:, :CONTEXT_WIDTH].reshape(b, N_NEIGHBORS, CONTEXT_WIDTH).sum(axis=1)
        _block_backward(params, "nbr_enc", grads, d_hv[:, CONTEXT_WIDTH:], cache["nbr_enc"])

    # Context vector backprop into the map and ctx encoders; the ego encoder.
    n_map = LAYER_SIZES["map_enc"][-1]
    _block_backward(params, "map_enc", grads, d_context[:, :n_map], cache["map"], cache["rows"])
    _block_backward(params, "ctx_enc", grads, d_context[:, n_map:], cache["ctx"])
    _block_backward(params, "ego_enc", grads, d_he[:, CONTEXT_WIDTH:], cache["ego"])
    return loss, cache["rows"]


def predict(params, sample: Sample) -> PolyTrajectory2D:
    """Ego trajectory of one sample, from the head its command selects.

    Only the trunk and that head run, on the shapes forward_batch gives them
    for a batch of one, so the result is bitwise forward_batch's selected
    row.  Neighbor futures need forward_batch.
    """
    feats = featurize([sample])
    he = _encode(params, feats)["he"]
    out, _ = _block_forward(params, f"head{int(sample.nc)}", he)
    return PolyTrajectory2D.from_coeff_vector(out[0])


# -- optimizer -----------------------------------------------------------------


# Adam's decay rates and denominator term (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
# Adam updates map_enc.W0 in slices of this many rows (256 KB per array), so
# that the 14 passes of the update stay in cache.
ADAM_ROWS = 256


def init_adam_state(params) -> dict:
    """Moments, step count, scratch buffers and an initially empty live span
    [lo, hi) per ADAM_ROWS block of map_enc.W0.  Gradients of +-0.0 only leave
    m = v = +0.0, and Adam then leaves a weight bit for bit: the step is
    +0.0 / (0 + eps) = +0.0, and p - 0.0 is p, -0.0 too.  So a row outside its
    span, and any row or array that never had a non-zero gradient, stays put."""
    w0 = params["map_enc.W0"]
    size = max([w0[:ADAM_ROWS].size] + [p.size for p in params.values() if p is not w0])
    return {
        "m": zero_like_params(params),
        "v": zero_like_params(params),
        "t": 0,
        "scratch": (np.empty(size), np.empty(size)),
        "spans": [[min(s + ADAM_ROWS, len(w0)), s] for s in range(0, len(w0), ADAM_ROWS)],
    }


def _adam_update(p, g, m, v, config: TrainConfig, t: int, scratch) -> None:
    """One Adam update of p, m and v in place.

    The operations run in the order of the expressions
    ``m = BETA1*m + (1-BETA1)*g``, ``v = BETA2*v + (1-BETA2)*g*g`` and
    ``p - lr*m_hat/(sqrt(v_hat)+EPSILON)``, so every element is bitwise what
    evaluating them on fresh arrays gives.
    """
    s1 = scratch[0][: p.size].reshape(p.shape)
    s2 = scratch[1][: p.size].reshape(p.shape)
    np.multiply(m, BETA1, out=m)
    np.multiply(g, 1 - BETA1, out=s1)
    np.add(m, s1, out=m)
    np.multiply(v, BETA2, out=v)
    np.multiply(g, 1 - BETA2, out=s1)
    np.multiply(s1, g, out=s1)
    np.add(v, s1, out=v)
    np.divide(v, 1 - BETA2**t, out=s1)
    np.sqrt(s1, out=s1)
    np.add(s1, EPSILON, out=s1)
    np.divide(m, 1 - BETA1**t, out=s2)
    np.multiply(s2, config.learning_rate, out=s2)
    np.divide(s2, s1, out=s2)
    np.subtract(p, s2, out=p)


def adam_step(params, grads, rows, state, config: TrainConfig):
    """Bias-corrected Adam (Kingma & Ba); updates params and state in place.
    Each ADAM_ROWS block of map_enc.W0 widens its live span to its ``rows``
    (sorted, a superset of the non-zero gradient rows, as loss_and_grad
    returns them) and updates it as one slice; other arrays are updated whole."""
    state["t"] += 1
    t, scratch = state["t"], state["scratch"]
    for key, p in params.items():
        if key != "map_enc.W0":
            _adam_update(p, grads[key], state["m"][key], state["v"][key], config, t, scratch)
    p, g, m, v = (d["map_enc.W0"] for d in (params, grads, state["m"], state["v"]))
    cut = np.searchsorted(rows, range(0, len(p) + ADAM_ROWS, ADAM_ROWS)).tolist()
    for span, a, b in zip(state["spans"], cut, cut[1:]):
        if a < b:
            span[:] = min(span[0], int(rows[a])), max(span[1], int(rows[b - 1]) + 1)
        if span[0] < span[1]:
            live = slice(*span)
            _adam_update(p[live], g[live], m[live], v[live], config, t, scratch)
    return params, state


# -- training ------------------------------------------------------------------


# Samples per forward pass in eval_mae and eval_loss.
EVAL_BATCH = 256


def eval_mae(params, samples: list[Sample]) -> dict[str, float]:
    """Offline MAE block: ego / ego@2s / neighbors / neighbors@2s."""
    ego_d, ego2_d, nbr_d, nbr2_d = [], [], [], []
    for i in range(0, len(samples), EVAL_BATCH):
        feats = featurize(samples[i : i + EVAL_BATCH])
        ego_coeffs, nbr_coeffs, _ = forward_batch(params, feats)
        pe = coeffs_to_points(ego_coeffs)
        pv = coeffs_to_points(nbr_coeffs)
        de = np.linalg.norm(pe - feats["ye"], axis=-1)  # (B, 20)
        ego_d.append(de.mean(axis=1))
        ego2_d.append(de[:, -1])
        mask = feats["vmask"].astype(bool)
        if mask.any():
            dv = np.linalg.norm(pv - feats["yv"], axis=-1)  # (B, N, 20)
            nbr_d.append(dv[mask].mean(axis=1))
            nbr2_d.append(dv[mask][:, -1])
    keys = ("ego", "ego_2s", "neighbors", "neighbors_2s")
    # Without a present neighbor the neighbor errors are NaN.
    return {k: float(np.mean(np.concatenate(d))) if d else float("nan")
            for k, d in zip(keys, (ego_d, ego2_d, nbr_d, nbr2_d))}


def eval_loss(params, samples, config: TrainConfig) -> float:
    total, n = 0.0, 0
    for i in range(0, len(samples), EVAL_BATCH):
        chunk = samples[i : i + EVAL_BATCH]
        feats = featurize(chunk)
        ego_coeffs, nbr_coeffs, _ = forward_batch(params, feats)
        pe, pv = coeffs_to_points(ego_coeffs), coeffs_to_points(nbr_coeffs)
        ego_sum, nbr_sum = _squared_errors(pe, pv, feats, config.neighbor_loss)
        total += ego_sum + nbr_sum
        n += len(chunk)
    return total / max(n, 1)


def train(
    train_samples: list[Sample],
    val_samples: list[Sample],
    config: TrainConfig,
    log_fn=None,
):
    """Seeded mini-batch training; retains the best-validation parameters."""
    if not train_samples:
        raise DataFormatError("empty training dataset")
    rng = np.random.default_rng((config.seed, 0x7A))
    params = init_params(config.seed)
    state = init_adam_state(params)
    grads, rows = zero_like_params(params), np.empty(0, dtype=np.intp)
    curve = []
    best = {k: v.copy() for k, v in params.items()}
    best_val = np.inf
    n = len(train_samples)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for i in range(0, n, config.batch_size):
            feats = featurize([train_samples[j] for j in order[i : i + config.batch_size]])
            loss, rows = loss_and_grad(params, feats, grads, rows, config.neighbor_loss)
            if not np.isfinite(loss):
                raise NumericalError(f"training diverged at epoch {epoch}")
            params, state = adam_step(params, grads, rows, state, config)
            epoch_loss += loss
            n_batches += 1
        val_loss = eval_loss(params, val_samples, config) if val_samples else np.nan
        mae_block = eval_mae(params, val_samples) if val_samples else {}
        rec = {
            "epoch": epoch,
            "train_loss": epoch_loss / max(n_batches, 1),
            "val_loss": val_loss,
            **{f"val_{k}": v for k, v in mae_block.items()},
        }
        curve.append(rec)
        if log_fn:
            log_fn(rec)
        if val_samples and val_loss < best_val:
            best_val = val_loss
            best = {k: v.copy() for k, v in params.items()}
    if not val_samples:
        best = params
    return best, curve


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(params, path, config: TrainConfig | None = None, extra=None):
    meta = {
        "format_version": CKPT_FORMAT_VERSION,
        "config": asdict(config) if config else None,
        "extra": extra or {},
        "keys": sorted(params),
    }
    arrays = {k.replace(".", "__"): params[k] for k in sorted(params)}
    # A file object, since np.savez appends ".npz" to a path that lacks it.
    with open(path, "wb") as f:
        np.savez(f, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path):
    """The parameters and metadata that save_checkpoint wrote; a file whose
    keys or array shapes differ from the init_params layout, or with an array
    that is not all finite float64, is refused."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise DataFormatError(f"{path}: not a checkpoint (an .npz archive)")
        with data:
            # save_checkpoint stores each array; flag bit 0 marks encryption.
            if any(i.compress_type or i.flag_bits & 1 for i in data.zip.infolist()):
                raise DataFormatError(f"{path}: a checkpoint member is compressed or encrypted")
            if "__meta__" not in data:
                raise DataFormatError(f"{path}: missing checkpoint metadata")
            meta = codec.loads(bytes(data["__meta__"]).decode())
            if not isinstance(meta, dict) or meta.get("format_version") != CKPT_FORMAT_VERSION:
                raise DataFormatError(f"{path}: unsupported checkpoint version")
            layout = {k: v.shape for k, v in init_params().items()}
            if meta.get("keys") != sorted(layout):
                raise DataFormatError(f"{path}: parameter keys differ from the model's")
            params = {}
            for key in meta["keys"]:
                arr_key = key.replace(".", "__")
                if arr_key not in data:
                    raise DataFormatError(f"{path}: missing array {key}")
                arr = params[key] = data[arr_key]
                if arr.shape != layout[key]:
                    raise DataFormatError(
                        f"{path}: array {key} has shape {arr.shape}, expected {layout[key]}"
                    )
                if arr.dtype != np.float64:
                    raise DataFormatError(f"{path}: array {key} has dtype {arr.dtype}, expected float64")
                if not np.isfinite(arr).all():
                    raise DataFormatError(f"{path}: array {key} holds {arr[~np.isfinite(arr)][0]}")
            return params, meta
    except (OSError, ValueError, NotImplementedError, zipfile.BadZipFile) as e:
        raise DataFormatError(f"{path}: unreadable checkpoint ({e})") from e
