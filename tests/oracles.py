"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way (explicit loops,
scalar arithmetic) and must stay free of the package's own fast paths.
"""

import numpy as np

from strokebench.errors import MetricError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64_scalar(z: int) -> int:
    """The three xor/multiply rounds on one Python int, mod 2^64."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix64_sequence(seed: int, n: int) -> list[int]:
    """Scalar splitmix64: state += gamma, then the three xor/multiply rounds."""
    state = seed & _MASK
    out = []
    for _ in range(n):
        state = (state + _GAMMA) & _MASK
        out.append(_mix64_scalar(state))
    return out


def derive_seed_scalar(seed: int, *salts: int) -> int:
    """Scalar salt folding: h = mix(seed + gamma), then h = mix((h ^ salt) + gamma)
    for each salt, every operand taken mod 2^64."""
    h = _mix64_scalar(seed + _GAMMA)
    for salt in salts:
        h = _mix64_scalar((h ^ (salt & _MASK)) + _GAMMA)
    return h


def conv3d_naive(x, weight, bias, stride, pad):
    """Direct 7-nested-loop 3D cross-correlation with zero padding."""
    n, c, t, h, w = x.shape
    f, _, kt, kh, kw = weight.shape
    to = (t + 2 * pad - kt) // stride + 1
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, t + 2 * pad, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + t, pad : pad + h, pad : pad + w] = x
    out = np.zeros((n, f, to, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for fi in range(f):
            for ti in range(to):
                for hi in range(ho):
                    for wi in range(wo):
                        acc = 0.0
                        for ci in range(c):
                            for dt in range(kt):
                                for dh in range(kh):
                                    for dw in range(kw):
                                        acc += (
                                            xp[ni, ci, ti * stride + dt,
                                               hi * stride + dh, wi * stride + dw]
                                            * weight[fi, ci, dt, dh, dw]
                                        )
                        out[ni, fi, ti, hi, wi] = acc + bias[fi]
    return out


def bilinear_scalar(frame, out_h, out_w):
    """Per-pixel bilinear resize with half-pixel centers and edge clamping."""
    h, w, ch = frame.shape
    out = np.zeros((out_h, out_w, ch), dtype=np.float64)
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            for ci in range(ch):
                top = frame[y0, x0, ci] * (1 - fx) + frame[y0, x1, ci] * fx
                bot = frame[y1, x0, ci] * (1 - fx) + frame[y1, x1, ci] * fx
                out[oy, ox, ci] = top * (1 - fy) + bot * fy
    return out


def cross_entropy_direct(logits, classes):
    """Textbook unstabilized evaluation: -log(exp(y_class) / sum exp(y_i)),
    summed over rows. Only valid at moderate magnitudes."""
    total = 0.0
    grads = np.zeros_like(logits, dtype=np.float64)
    for i in range(logits.shape[0]):
        exps = [float(np.exp(v)) for v in logits[i]]
        denom = sum(exps)
        total += -float(np.log(exps[classes[i]] / denom))
        for j in range(logits.shape[1]):
            grads[i, j] = exps[j] / denom - (1.0 if j == classes[i] else 0.0)
    return total, grads


def accuracy(pred: list[str], truth: list[str]) -> float:
    """The share of positions where the two label lists agree, the reference
    that a confusion matrix's diagonal accuracy is checked against."""
    if len(pred) != len(truth):
        raise MetricError(f"length mismatch: {len(pred)} predictions vs {len(truth)} truths")
    if not truth:
        raise MetricError("cannot compute accuracy of zero samples")
    return sum(p == t for p, t in zip(pred, truth)) / len(truth)


def _tiou_scalar(a_begin, a_end, b_begin, b_end):
    inter = max(0, min(a_end, b_end) - max(a_begin, b_begin))
    union = (a_end - a_begin) + (b_end - b_begin) - inter
    return inter / union


def average_precision_bruteforce(videos, threshold):
    """Point-by-point PR-curve walk over predictions ranked by score.

    `videos` maps video id -> (predictions, ground_truths) where a prediction
    is (begin, end, score) and a ground truth is (begin, end). Matching is
    greedy per the stated rules: per prediction, the unmatched ground truth of
    the same video with the highest tIoU (earliest begin on ties), a true
    positive iff that tIoU >= threshold, ground truth consumed only then.
    """
    ranked = []
    for vid in videos:
        for (b, e, s) in videos[vid][0]:
            ranked.append((-s, vid, b, e))
    ranked.sort()
    remaining = {vid: sorted(videos[vid][1]) for vid in videos}
    n_gt = sum(len(g) for _, g in videos.values())

    flags = []
    for negs, vid, b, e in ranked:
        best_iou = 0.0
        best = None
        for gt in remaining[vid]:
            iou = _tiou_scalar(b, e, gt[0], gt[1])
            if iou > best_iou:
                best_iou = iou
                best = gt
        if best is not None and best_iou >= threshold:
            remaining[vid].remove(best)
            flags.append(1)
        else:
            flags.append(0)

    if not flags:
        return 0.0
    precisions, recalls = [], []
    tp = 0
    for k, flag in enumerate(flags, start=1):
        tp += flag
        precisions.append(tp / k)
        recalls.append(tp / n_gt)
    ap = 0.0
    prev_recall = 0.0
    for k in range(len(flags)):
        if recalls[k] > prev_recall:
            envelope = max(precisions[k:])
            ap += (recalls[k] - prev_recall) * envelope
            prev_recall = recalls[k]
    return ap


def global_iou_frame_sets(videos):
    """Frame-wise |P∩G| / |P∪G| from Python sets of frame indices, the
    intersection and union summed over videos. `videos` is laid out as for
    `average_precision_bruteforce`."""
    inter = union = 0
    for preds, gts in videos.values():
        p = {f for b, e, _ in preds for f in range(b, e)}
        g = {f for b, e in gts for f in range(b, e)}
        inter += len(p & g)
        union += len(p | g)
    return inter / union


def maxpool3d_backward_flat(grad_out, winners, input_shape):
    """The earlier pool backward: one np.add.at into a flat (N, C, ...) buffer."""
    grad_input = np.zeros(int(np.prod(input_shape)), dtype=grad_out.dtype)
    np.add.at(grad_input, winners.ravel(), grad_out.ravel())
    return grad_input.reshape(input_shape)


def taps_to_winners(taps, input_shape, window):
    """The flat (N, C, T, H, W) index of each window's winning input element,
    from the index of its winning tap in (dt, dh, dw) window order."""
    n, c, t, h, w = input_shape
    to, ho, wo = taps.shape[2:]
    dt, dh, dw = np.unravel_index(taps.astype(np.int64), window)
    tt = np.arange(to).reshape(1, 1, to, 1, 1) * window[0] + dt
    hh = np.arange(ho).reshape(1, 1, 1, ho, 1) * window[1] + dh
    ww = np.arange(wo).reshape(1, 1, 1, 1, wo) * window[2] + dw
    nn = np.arange(n).reshape(n, 1, 1, 1, 1)
    cc = np.arange(c).reshape(1, c, 1, 1, 1)
    return ((((nn * c + cc) * t + tt) * h + hh) * w + ww).astype(np.int64)
