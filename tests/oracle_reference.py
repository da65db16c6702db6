"""Straight-line re-implementation of the network forward pass.

Pure Python scalar loops, no numpy, except ``build_adjacency``. This
exists only as a test oracle: it recomputes the whole pipeline from its
definition (width-3 padded cross-correlation, eval-mode batchnorm, leaky
rectifier, amplitude-graph convolution, softmax attention or mean
pooling, dense head, log-softmax) so the vectorized implementation can be
checked value-for-value against an independent transcription. Parameters
arrive as nested Python lists.

``build_adjacency`` is the dense edge-weight matrix in numpy: the outer
product h h^T times ``graphgen.reciprocal_distance``. Tests hold the
layers to it at tolerances down to 1e-15, set for this rounding, which
the scalar ``adjacency`` does not share.
"""

import math

import numpy as np

from hrrpgnn.graphgen import reciprocal_distance


def conv1d(x, kernels):
    """x: channels x N list-of-lists; kernels: out x in x 3; zero same-padding, no bias."""
    n = len(x[0])
    out = []
    for kern in kernels:
        row = []
        for p in range(n):
            acc = 0.0
            for c, taps in enumerate(kern):
                for k in range(3):
                    q = p + k - 1
                    if 0 <= q < n:
                        acc += taps[k] * x[c][q]
            row.append(acc)
        out.append(row)
    return out


def batchnorm_eval(x, gamma, beta, running_mean, running_var, eps):
    out = []
    for c, row in enumerate(x):
        scale = gamma[c] / math.sqrt(running_var[c] + eps)
        out.append([(v - running_mean[c]) * scale + beta[c] for v in row])
    return out


def leaky_relu(x, slope):
    return [[v if v >= 0.0 else slope * v for v in row] for row in x]


def adjacency(amps):
    n = len(amps)
    return [[amps[i] * amps[j] / (abs(i - j) + 1.0) for j in range(n)] for i in range(n)]


def build_adjacency(amplitudes):
    """Edge-weight matrix e[i, j] = h[i] h[j] / (|i - j| + 1) of a 1-D amplitude vector."""
    h = np.asarray(amplitudes, dtype=np.float64)
    return np.outer(h, h) * reciprocal_distance(h.shape[0])


def graph_conv(x, adj, w1, w2, bias):
    """out[g][i] = sum_d w1[g][d] x[d][i] + sum_d w2[g][d] (sum_j x[d][j] adj[j][i]) + bias[g][i]."""
    n = len(x[0])
    d_in = len(x)
    agg = [[sum(x[d][j] * adj[j][i] for j in range(n)) for i in range(n)] for d in range(d_in)]
    out = []
    for g in range(len(w1)):
        row = []
        for i in range(n):
            acc = bias[g][i] if len(bias[g]) > 1 else bias[g][0]
            for d in range(d_in):
                acc += w1[g][d] * x[d][i] + w2[g][d] * agg[d][i]
            row.append(acc)
        out.append(row)
    return out


def softmax(scores):
    m = max(scores)
    e = [math.exp(s - m) for s in scores]
    z = sum(e)
    return [v / z for v in e]


def attention_pool(x, w):
    n = len(x[0])
    scores = [sum(x[f][i] * w[f] for f in range(len(x))) for i in range(n)]
    alpha = softmax(scores)
    return [sum(x[f][i] * alpha[i] for i in range(n)) for f in range(len(x))]


def dense(v, w, b):
    return [b[c] + sum(w[c][f] * v[f] for f in range(len(v))) for c in range(len(w))]


def log_softmax(logits):
    m = max(logits)
    z = math.log(sum(math.exp(v - m) for v in logits))
    return [v - m - z for v in logits]


def mean_pool(x):
    return [sum(row) / len(row) for row in x]


def reference_log_probs(state, amps, leaky_slope, bn_eps, ablation="abc"):
    """Full-pipeline log probabilities for one amplitude vector.

    ``state`` holds the model tensors as nested lists under the same names
    the implementation uses for its checkpoints. ``ablation`` names the
    enabled modules: a disabled module drops out of the pipeline, and
    attention off means mean pooling.
    """
    x = [list(amps)]
    if "a" in ablation:
        x = conv1d(x, state["conv1.kernels"])
        x = batchnorm_eval(x, state["bn1.gamma"], state["bn1.beta"],
                           state["bn1.running_mean"], state["bn1.running_var"], bn_eps)
        x = leaky_relu(x, leaky_slope)
        x = conv1d(x, state["conv2.kernels"])
        x = batchnorm_eval(x, state["bn2.gamma"], state["bn2.beta"],
                           state["bn2.running_mean"], state["bn2.running_var"], bn_eps)
        x = leaky_relu(x, leaky_slope)
    if "b" in ablation:
        x = graph_conv(x, adjacency(amps), state["gconv.w1"], state["gconv.w2"],
                       state["gconv.bias"])
    if "c" in ablation:
        # with module b the score vector is the graph conv's
        pooled = attention_pool(x, state["gconv.score" if "b" in ablation else "att.w"])
    else:
        pooled = mean_pool(x)
    logits = dense(pooled, state["fc.w"], state["fc.b"])
    return log_softmax(logits)
