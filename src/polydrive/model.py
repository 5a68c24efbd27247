"""Branched trajectory predictor with analytic gradients.

Encoders (MLPs, tanh hidden / identity output):
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
from dataclasses import dataclass

import numpy as np

from .dataset import MAP_SIZE, N_NEIGHBORS, Sample
from .errors import DataFormatError, NumericalError
from .trajectory import PolyTrajectory2D, sample_times

CKPT_FORMAT_VERSION = 1
N_HEADS = 4
POS_SCALE = 0.05
CTX_SCALE = np.array([1 / 50.0, 1.0, 1 / 50.0, 1 / 3.5, 1.0, 1 / 50.0, 1 / 8.0, 1 / 30.0])

_T = sample_times()
_VAND = np.vander(_T, 5)  # (20, 5), highest degree first

LAYER_SIZES = {
    "ego_enc": (120, 64, 32),
    "nbr_enc": (120, 64, 32),
    "map_enc": (4680, 128, 64),
    "ctx_enc": (8, 16),
    "head": (112, 64, 10),
    "nbr_dec": (112, 64, 10),
}


@dataclass
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 8
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 30
    seed: int = 0
    neighbor_loss: bool = True

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _mlp_params(rng, sizes) -> dict[str, np.ndarray]:
    out = {}
    for i in range(len(sizes) - 1):
        out[f"W{i}"] = _glorot(rng, sizes[i], sizes[i + 1])
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
        "xe": np.empty((b, 120)),
        "xv": np.empty((b, N_NEIGHBORS, 120)),
        "vmask": np.empty((b, N_NEIGHBORS)),
        "xm": np.zeros((b, 4680)),
        "xc": np.empty((b, 8)),
        "nc": np.empty(b, dtype=np.int64),
        "ye": np.empty((b, 20, 2)),
        "yv": np.empty((b, N_NEIGHBORS, 20, 2)),
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


def _mlp2_forward(params, prefix, x, rows=None):
    """Two-layer block; ``rows`` limits the first layer to those inputs.

    With ``rows`` the inputs outside it must be 0: their products are then
    left out of ``x @ W0``, which changes the order of its sums.
    """
    if rows is None:
        z0 = x @ params[f"{prefix}.W0"] + params[f"{prefix}.b0"]
    else:
        z0 = x[:, rows] @ params[f"{prefix}.W0"][rows] + params[f"{prefix}.b0"]
    a0 = np.tanh(z0)
    z1 = a0 @ params[f"{prefix}.W1"] + params[f"{prefix}.b1"]
    _check_finite(prefix, z1)
    return z1, (x, a0)


def _mlp2_tanh_forward(params, prefix, x, rows=None):
    z1, cache = _mlp2_forward(params, prefix, x, rows)
    return np.tanh(z1), cache + (np.tanh(z1),)


def _mlp2_backward(params, prefix, grads, dz1, cache, sparse_rows=False):
    """Accumulate the block's gradients; returns dz0, the first layer's.

    With ``sparse_rows`` the first-layer weight gets its gradient only on the
    rows whose input is non-zero somewhere in the batch; every other row of
    ``x.T @ dz0`` is a sum of zero products, so it stays exactly 0.
    """
    x, a0 = cache[0], cache[1]
    grads[f"{prefix}.W1"] += a0.T @ dz1
    grads[f"{prefix}.b1"] += dz1.sum(axis=0)
    da0 = dz1 @ params[f"{prefix}.W1"].T
    dz0 = da0 * (1.0 - a0 * a0)
    if sparse_rows:
        occ = np.flatnonzero(x.any(axis=0))
        grads[f"{prefix}.W0"][occ] += x[:, occ].T @ dz0
    else:
        grads[f"{prefix}.W0"] += x.T @ dz0
    grads[f"{prefix}.b0"] += dz0.sum(axis=0)
    return dz0


def _ctx_forward(params, x):
    z = x @ params["ctx_enc.W0"] + params["ctx_enc.b0"]
    _check_finite("ctx_enc", z)
    return np.tanh(z)


def _ctx_backward(params, grads, da, x, a):
    dz = da * (1.0 - a * a)
    grads["ctx_enc.W0"] += x.T @ dz
    grads["ctx_enc.b0"] += dz.sum(axis=0)


def _encode(params, feats, map_rows=None):
    """Shared trunk: the cache up to the context C and the heads' input [C, ego]."""
    ego_a, ego_cache = _mlp2_tanh_forward(params, "ego_enc", feats["xe"])
    map_a, map_cache = _mlp2_tanh_forward(params, "map_enc", feats["xm"], map_rows)
    ctx_a = _ctx_forward(params, feats["xc"])
    context = np.concatenate([map_a, ctx_a], axis=1)
    return {
        "ego": ego_cache,
        "map": map_cache,
        "ctx_a": ctx_a,
        "context": context,
        "he": np.concatenate([context, ego_a], axis=1),
        "map_a": map_a,
        "ego_a": ego_a,
    }


def forward_batch(params, feats):
    """All-branch forward; returns coefficient outputs and the cache."""
    cache = _encode(params, feats)
    context = cache["context"]
    head_out = []
    head_cache = []
    for h in range(N_HEADS):
        out, h_cache = _mlp2_forward(params, f"head{h}", cache["he"])
        head_out.append(out)
        head_cache.append(h_cache)
    b = feats["xe"].shape[0]
    nc = feats["nc"]
    ego_coeffs = np.stack(head_out, axis=0)[nc, np.arange(b)]

    nbr_coeffs = np.empty((b, N_NEIGHBORS, 10))
    nbr_caches = []
    for k in range(N_NEIGHBORS):
        enc_a, enc_cache = _mlp2_tanh_forward(params, "nbr_enc", feats["xv"][:, k])
        hv = np.concatenate([context, enc_a], axis=1)
        out, dec_cache = _mlp2_forward(params, "nbr_dec", hv)
        nbr_coeffs[:, k] = out
        nbr_caches.append((enc_cache, dec_cache))
    cache["heads"] = head_cache
    cache["nbr"] = nbr_caches
    return ego_coeffs, nbr_coeffs, cache


def coeffs_to_points(coeffs: np.ndarray) -> np.ndarray:
    """(..., 10) coefficient vectors -> (..., 20, 2) sampled points."""
    cx = coeffs[..., :5]
    cy = coeffs[..., 5:]
    px = cx @ _VAND.T
    py = cy @ _VAND.T
    return np.stack([px, py], axis=-1)


def _coeff_grad(g_pts: np.ndarray) -> np.ndarray:
    """Adjoint of coeffs_to_points: (B, 20, 2) point grads -> (B, 10)."""
    d = np.einsum("bti,tj->bji", g_pts, _VAND)
    return np.concatenate([d[:, :, 0], d[:, :, 1]], axis=1)


def _squared_errors(pe, pv, feats, neighbor_loss: bool) -> tuple[float, float]:
    """Summed squared point errors of the ego and of the present neighbors
    (0.0 without the neighbor loss)."""
    ego = float(np.sum((pe - feats["ye"]) ** 2))
    if not neighbor_loss:
        return ego, 0.0
    return ego, float(np.sum(((pv - feats["yv"]) ** 2) * feats["vmask"][:, :, None, None]))


def loss_and_grad(params, feats, neighbor_loss: bool = True):
    """Batch-mean point L2 loss and analytic gradients over all parameters."""
    b = feats["xe"].shape[0]
    ego_coeffs, nbr_coeffs, cache = forward_batch(params, feats)
    pe = coeffs_to_points(ego_coeffs)
    pv = coeffs_to_points(nbr_coeffs)
    mask = feats["vmask"]
    ego_sum, nbr_sum = _squared_errors(pe, pv, feats, neighbor_loss)
    loss = ego_sum / b + nbr_sum / b

    grads = zero_like_params(params)
    # d loss / d coefficient vectors.
    ge_pts = 2.0 * (pe - feats["ye"]) / b  # (B, 20, 2)
    d_ego = _coeff_grad(ge_pts)
    d_context = np.zeros_like(cache["context"])

    # Ego heads: each backward over the rows its command selects.
    d_he = np.zeros_like(cache["he"])
    for h in range(N_HEADS):
        sel = feats["nc"] == h
        if not sel.any():
            continue
        x_h, a0_h = cache["heads"][h]
        dz0 = _mlp2_backward(params, f"head{h}", grads, d_ego[sel], (x_h[sel], a0_h[sel]))
        d_he[sel] += dz0 @ params[f"head{h}.W0"].T
    d_context += d_he[:, :80]
    d_ego_a = d_he[:, 80:]

    # Neighbor decoder/encoder (shared blocks) over all present slots.
    if neighbor_loss:
        gv_pts = 2.0 * ((pv - feats["yv"]) * mask[:, :, None, None]) / b
        for k in range(N_NEIGHBORS):
            d_nbr = _coeff_grad(gv_pts[:, k])
            enc_cache, dec_cache = cache["nbr"][k]
            dz0 = _mlp2_backward(params, "nbr_dec", grads, d_nbr, dec_cache)
            d_hv = dz0 @ params["nbr_dec.W0"].T
            d_context += d_hv[:, :80]
            d_enc_a = d_hv[:, 80:]
            a1 = enc_cache[2]
            dz1 = d_enc_a * (1.0 - a1 * a1)
            _mlp2_backward(params, "nbr_enc", grads, dz1, enc_cache)

    # Context vector backprop into map / ctx encoders.
    d_map_a = d_context[:, :64]
    d_ctx_a = d_context[:, 64:]
    map_a = cache["map_a"]
    dz1_map = d_map_a * (1.0 - map_a * map_a)
    # Most proximity-map cells are empty, so most map inputs of a batch are 0.
    _mlp2_backward(params, "map_enc", grads, dz1_map, cache["map"], sparse_rows=True)
    _ctx_backward(params, grads, d_ctx_a, feats["xc"], cache["ctx_a"])

    # Ego encoder.
    ego_a = cache["ego_a"]
    dz1_ego = d_ego_a * (1.0 - ego_a * ego_a)
    _mlp2_backward(params, "ego_enc", grads, dz1_ego, cache["ego"])
    return loss, grads


def predict(params, sample: Sample) -> PolyTrajectory2D:
    """Ego trajectory of one sample, from the head its command selects.

    Only the trunk and that head run, and the first map layer reads only the
    rows of ``map_enc.W0`` whose input is non-zero.  A live sample occupies
    a few hundred of the 4,680 map inputs at most (238 over the closedloop
    benchmark's 720 ticks), and the gather stays cheaper up to about 1,250
    (one BLAS thread on a 2-vCPU Xeon: 1,200 gathered rows take 161 us, 238
    take 34 us, the dense product 169 us).  Leaving out the zero products
    reorders the sums, so the result matches forward_batch's selected row to
    about 1e-15, not bitwise.  Neighbor futures need forward_batch.
    """
    feats = featurize([sample])
    he = _encode(params, feats, np.flatnonzero(feats["xm"][0]))["he"]
    out, _ = _mlp2_forward(params, f"head{int(sample.nc)}", he)
    return PolyTrajectory2D.from_coeff_vector(out[0])


# -- optimizer -----------------------------------------------------------------


# Adam updates a weight in slices of this many rows (256 KB per array for
# map_enc.W0), so that the 14 passes of the update stay in cache.
ADAM_ROWS = 256


def init_adam_state(params) -> dict:
    """Moments, step count, scratch buffers and an initially empty live span
    [lo, hi) per ADAM_ROWS block of each parameter.  A row outside its span
    has had only zero gradients, so m = v = +0.0 there, and Adam leaves it
    bit for bit: the step is +0.0 / (0 + eps) = +0.0, and p - 0.0 is p, -0.0 too."""
    size = max(p[:ADAM_ROWS].size for p in params.values())
    return {
        "m": zero_like_params(params),
        "v": zero_like_params(params),
        "t": 0,
        "scratch": (np.empty(size), np.empty(size)),
        "spans": {k: [[min(s + ADAM_ROWS, len(p)), s] for s in range(0, len(p), ADAM_ROWS)]
                  for k, p in params.items()},
    }


def _adam_update(p, g, m, v, config: TrainConfig, t: int, scratch) -> None:
    """One Adam update of p, m and v in place.

    The operations run in the order of the expressions
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p - lr*m_hat/(sqrt(v_hat)+eps)``, so every element is bitwise what
    evaluating them on fresh arrays gives.
    """
    b1, b2 = config.beta1, config.beta2
    s1 = scratch[0][: p.size].reshape(p.shape)
    s2 = scratch[1][: p.size].reshape(p.shape)
    np.multiply(m, b1, out=m)
    np.multiply(g, 1 - b1, out=s1)
    np.add(m, s1, out=m)
    np.multiply(v, b2, out=v)
    np.multiply(g, 1 - b2, out=s1)
    np.multiply(s1, g, out=s1)
    np.add(v, s1, out=v)
    np.divide(v, 1 - b2**t, out=s1)
    np.sqrt(s1, out=s1)
    np.add(s1, config.epsilon, out=s1)
    np.divide(m, 1 - b1**t, out=s2)
    np.multiply(s2, config.learning_rate, out=s2)
    np.divide(s2, s1, out=s2)
    np.subtract(p, s2, out=p)


def adam_step(params, grads, state, config: TrainConfig):
    """Bias-corrected Adam (Kingma & Ba); updates params and state in place.
    Each block reads the gradient outside its live span, widens the span to
    the non-zero rows there and updates it as one slice: exact, see init_adam_state."""
    state["t"] += 1
    for key, p in params.items():
        g, m, v = grads[key], state["m"][key], state["v"][key]
        for start, span in zip(range(0, len(p), ADAM_ROWS), state["spans"][key]):
            (lo, hi), end = span, min(start + ADAM_ROWS, len(p))
            for a, b in ((start, lo), (max(lo, hi), end)) if lo > start or hi < end else ():
                live = np.flatnonzero(g[a:b].reshape(b - a, -1).any(axis=1)) if a < b else ()
                if len(live):
                    span[:] = min(span[0], a + int(live[0])), max(span[1], a + int(live[-1]) + 1)
            rows = slice(*span)
            if rows.start < rows.stop:
                _adam_update(p[rows], g[rows], m[rows], v[rows], config, state["t"], state["scratch"])
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
    out = {
        "ego": float(np.mean(np.concatenate(ego_d))),
        "ego_2s": float(np.mean(np.concatenate(ego2_d))),
    }
    if nbr_d:
        out["neighbors"] = float(np.mean(np.concatenate(nbr_d)))
        out["neighbors_2s"] = float(np.mean(np.concatenate(nbr2_d)))
    else:
        out["neighbors"] = float("nan")
        out["neighbors_2s"] = float("nan")
    return out


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
    curve = []
    best = {k: v.copy() for k, v in params.items()}
    best_val = np.inf
    n = len(train_samples)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for i in range(0, n, config.batch_size):
            batch = [train_samples[j] for j in order[i : i + config.batch_size]]
            feats = featurize(batch)
            loss, grads = loss_and_grad(params, feats, config.neighbor_loss)
            if not np.isfinite(loss):
                raise NumericalError(f"training diverged at epoch {epoch}")
            params, state = adam_step(params, grads, state, config)
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
        "config": config.to_dict() if config else None,
        "extra": extra or {},
        "keys": sorted(params),
    }
    arrays = {k.replace(".", "__"): params[k] for k in sorted(params)}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path):
    """The parameters and metadata that save_checkpoint wrote; a file whose
    keys or array shapes differ from the init_params layout is refused."""
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
            meta = json.loads(bytes(data["__meta__"]).decode())
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
                params[key] = data[arr_key]
                if params[key].shape != layout[key]:
                    raise DataFormatError(
                        f"{path}: array {key} has shape {params[key].shape}, "
                        f"expected {layout[key]}"
                    )
            return params, meta
    except (OSError, ValueError, NotImplementedError, zipfile.BadZipFile) as e:
        raise DataFormatError(f"{path}: unreadable checkpoint ({e})") from e
