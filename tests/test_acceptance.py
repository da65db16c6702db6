"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line to the real terminal (capture
is suspended for that line) so the verdicts survive pytest's output
capturing. The checks:

1. gradient soundness: every layer and every module subset against finite
   differences, 20 seeds
2. forward correctness: the vectorized network against an independent
   scalar-loop transcription, 100 random inputs
3. adjacency construction invariants over 1000 random profiles
4. probability-simplex invariants of the head and the attention pooling
5. learning: a toy problem to perfection, the shipped benchmark to >= 90%
6. ablation sweep: all seven rows, losses that improve on the untrained
   baseline, full model competitive with the best row
7. determinism: bit-identical retraining, bit-exact artifact round trips
"""

import json
import math
import time

import numpy as np
import pytest

from hrrpgnn.data import (
    default_three_class_specs,
    load_csv,
    make_benchmark,
    save_csv,
    toy_two_class_specs,
)
from hrrpgnn.gradcheck import check_all_ablations, layer_suite, worst_error
from hrrpgnn.layers import AttentionPool, BatchNorm1d, LeakyReLU
from hrrpgnn.model import ABLATION_ORDER, GraphClassifier, ModelConfig
from hrrpgnn.trainkit import TrainConfig, evaluate, run_ablation_suite, train
from oracle_reference import build_adjacency

GRAD_TOL = 1e-4
EXACT_TOL = 1e-12


@pytest.fixture
def report(capfd):
    def _print(line):
        with capfd.disabled():
            print(line, flush=True)

    return _print


def _verdict(report, criterion, ok, detail):
    report(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- 1. gradient soundness ----------------------------------------------------------


def test_criterion_1_gradients(report):
    started = time.monotonic()
    worst = 0.0
    for seed in range(20):
        worst = max(worst, worst_error(layer_suite(seed=seed)))
        worst = max(
            worst,
            worst_error(
                check_all_ablations(n_cells=8, n_classes=3, d_out=4, g_out=4, seed=seed)
            ),
        )
    elapsed = time.monotonic() - started
    ok = worst <= GRAD_TOL and elapsed < 60.0
    _verdict(
        report,
        "criterion 1 gradient soundness",
        ok,
        f"worst relative error {worst:.3e} (tol {GRAD_TOL:.0e}) over 20 seeds, "
        f"all layers and all 7 configs, {elapsed:.1f}s",
    )


# -- 2. forward correctness against an independent transcription ---------------------


def test_criterion_2_forward_oracle(report):
    from oracle_reference import reference_log_probs

    started = time.monotonic()
    config = ModelConfig(n_cells=4, n_classes=2, d_out=2, g_out=3, seed=0)
    model = GraphClassifier(config)
    # pin every tensor (including BN running stats) to arbitrary values
    rng = np.random.default_rng(2024)
    for name, arr in sorted(model.state_arrays().items()):
        if name.endswith("running_var"):
            arr[...] = rng.uniform(0.5, 1.5, size=arr.shape)
        else:
            arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)

    state = {name: arr.tolist() for name, arr in model.state_arrays().items()}
    worst = 0.0
    for _ in range(100):
        amps = np.abs(rng.normal(0.0, 1.0, size=4))
        got = model.forward_batch(amps[None, :], training=False)[0]
        want = reference_log_probs(state, amps.tolist(), LeakyReLU.SLOPE, BatchNorm1d.EPS)
        worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
    elapsed = time.monotonic() - started
    ok = worst <= EXACT_TOL and elapsed < 5.0
    _verdict(
        report,
        "criterion 2 forward vs straight-line oracle",
        ok,
        f"max |diff| {worst:.3e} over 100 random inputs (tol 1e-12), {elapsed:.2f}s",
    )


# -- 3. adjacency invariants ----------------------------------------------------------


def test_criterion_3_adjacency_invariants(report):
    rng = np.random.default_rng(7)
    sizes = [int(rng.integers(1, 64)) for _ in range(968)] + [501] * 32
    worst_rank1 = worst_scale = 0.0
    checked = 0
    for n in sizes:
        h = rng.normal(0.0, 1.0, size=n)
        e = build_adjacency(h)
        assert np.array_equal(e, e.T), "adjacency not exactly symmetric"
        assert np.array_equal(np.diag(e), h * h), "diagonal is not h squared"
        idx = np.arange(n, dtype=np.float64)
        dist = np.abs(idx[:, None] - idx[None, :]) + 1.0
        outer = np.outer(h, h)
        denom = np.maximum(np.abs(outer), 1.0)
        worst_rank1 = max(worst_rank1, float(np.max(np.abs(e * dist - outer) / denom)))
        c = float(rng.uniform(0.1, 10.0))
        e_scaled = build_adjacency(c * h)
        denom = np.maximum(np.abs(e_scaled), 1.0)
        worst_scale = max(
            worst_scale, float(np.max(np.abs(e_scaled - c * c * e) / denom))
        )
        checked += 1
    ok = checked == 1000 and worst_rank1 <= EXACT_TOL and worst_scale <= EXACT_TOL
    _verdict(
        report,
        "criterion 3 adjacency invariants",
        ok,
        f"{checked} profiles incl. 501-cell: symmetry exact, diag exact, "
        f"rank-1 residual {worst_rank1:.3e}, scaling residual {worst_scale:.3e} (tol 1e-12)",
    )


# -- 4. probability-simplex invariants -----------------------------------------------


def test_criterion_4_simplex_invariants(report):
    rng = np.random.default_rng(11)
    worst_prob = worst_alpha = 0.0
    hull_ok = True
    for seed in range(10):
        config = ModelConfig(
            n_cells=int(rng.integers(4, 24)),
            n_classes=int(rng.integers(2, 6)),
            d_out=int(rng.integers(2, 6)),
            g_out=int(rng.integers(2, 6)),
            seed=seed,
        )
        model = GraphClassifier(config)
        # trained-ish weights: random perturbation away from the tame init
        for _, p, _ in model.tensors():
            p += rng.normal(0.0, 0.3, size=p.shape)
        amps = np.abs(rng.normal(0.0, 1.0, size=(8, config.n_cells)))
        log_probs = model.forward_batch(amps)
        worst_prob = max(worst_prob, float(np.max(np.abs(np.exp(log_probs).sum(axis=1) - 1.0))))

        x = rng.normal(size=(8, config.head_dim, config.n_cells))
        # the model's score vector, which the graph conv holds in row abc, on its own pooling
        att = AttentionPool(config.head_dim, np.random.default_rng(seed))
        att.w[...] = model.gconv.score
        pooled = att.forward(x)
        alpha = att.alpha
        worst_alpha = max(worst_alpha, float(np.max(np.abs(alpha.sum(axis=1) - 1.0))))
        hull_ok = hull_ok and bool(
            np.all(pooled >= x.min(axis=2) - EXACT_TOL)
            and np.all(pooled <= x.max(axis=2) + EXACT_TOL)
        )
    ok = worst_prob <= EXACT_TOL and worst_alpha <= EXACT_TOL and hull_ok
    _verdict(
        report,
        "criterion 4 probability simplex",
        ok,
        f"exp(log_probs) sum residual {worst_prob:.3e}, attention sum residual "
        f"{worst_alpha:.3e} (tol 1e-12), pooled output inside per-coordinate hull: {hull_ok}",
    )


# -- 5. learning ----------------------------------------------------------------------


def test_criterion_5_toy_problem(report):
    started = time.monotonic()
    train_ds, val_ds = make_benchmark(toy_two_class_specs(32), per_class=50, n_cells=32, seed=0)
    model = GraphClassifier(ModelConfig(n_cells=32, n_classes=2, seed=0))

    reached = {"epoch": None}

    def stop_at_perfect(row):
        if row["epoch"] == 0:
            return False
        if evaluate(model, val_ds).accuracy >= 100.0:
            reached["epoch"] = row["epoch"]
            return True
        return False

    train(model, train_ds, TrainConfig(epochs=30, batch_size=32), epoch_callback=stop_at_perfect)
    elapsed = time.monotonic() - started
    ok = reached["epoch"] is not None and elapsed < 30.0
    _verdict(
        report,
        "criterion 5a toy 2-class",
        ok,
        f"100% validation accuracy at epoch {reached['epoch']} "
        f"(limit 30), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_5_shipped_benchmark(report):
    started = time.monotonic()
    train_ds, test_ds = make_benchmark(
        default_three_class_specs(501), per_class=300, n_cells=501, seed=0
    )
    model = GraphClassifier(ModelConfig(n_cells=501, n_classes=3, seed=0))

    best = {"acc": 0.0, "epoch": None}

    def stop_at_target(row):
        if row["epoch"] == 0 or row["epoch"] % 5 != 0:
            return False
        acc = evaluate(model, test_ds).accuracy
        if acc > best["acc"]:
            best["acc"] = acc
            best["epoch"] = row["epoch"]
        return acc >= 90.0

    train(model, train_ds, TrainConfig(epochs=100, batch_size=32), epoch_callback=stop_at_target)
    if best["acc"] < 90.0:  # no early exit: score the final model
        best["acc"] = evaluate(model, test_ds).accuracy
        best["epoch"] = 100
    elapsed = time.monotonic() - started
    ok = best["acc"] >= 90.0 and elapsed < 600.0
    _verdict(
        report,
        "criterion 5b shipped 3-class benchmark",
        ok,
        f"test accuracy {best['acc']:.2f}% at epoch {best['epoch']} "
        f"(need >= 90% within 100), {elapsed:.0f}s (limit 600s)",
    )


# -- 6. ablation sweep ----------------------------------------------------------------


def test_criterion_6_ablation_sweep(report):
    """Reduced-scale rendition of the shipped benchmark: same generator and
    model family, 128 cells and 30 epochs so five seeds of seven configs fit
    in the test budget."""
    started = time.monotonic()
    train_ds, test_ds = make_benchmark(
        default_three_class_specs(128), per_class=150, n_cells=128, seed=0, test_per_class=60
    )
    results = run_ablation_suite(
        train_ds,
        test_ds,
        ModelConfig(n_cells=128, n_classes=3, seed=0),
        TrainConfig(epochs=30, batch_size=32),
        seeds=[0, 1, 2, 3, 4],
    )
    elapsed = time.monotonic() - started

    order_ok = [r["flags"] for r in results] == list(ABLATION_ORDER)
    clean = all(r["error"] is None for r in results)
    losses_improve = all(
        ef < e0 for r in results for e0, ef in zip(r["epoch0_loss"], r["final_loss"])
    )
    means = {r["flags"]: float(np.mean(r["accuracy"])) for r in results}
    best_flags = max(means, key=means.get)
    margin = means[best_flags] - means["abc"]
    full_competitive = margin <= 2.0

    ok = order_ok and clean and losses_improve and full_competitive
    _verdict(
        report,
        "criterion 6 ablation sweep",
        ok,
        f"7 configs in order {order_ok}, all final losses < epoch-0 baseline "
        f"{losses_improve}, full model {means['abc']:.2f}% vs best row "
        f"{best_flags}={means[best_flags]:.2f}% (margin {margin:.2f} <= 2.0), "
        f"5 seeds, {elapsed:.0f}s",
    )


# -- 7. determinism and round trips ----------------------------------------------------


def test_criterion_7_determinism(report, tmp_path):
    train_ds, test_ds = make_benchmark(toy_two_class_specs(24), per_class=30, n_cells=24, seed=3)

    def run_once(out):
        model = GraphClassifier(ModelConfig(n_cells=24, n_classes=2, d_out=4, g_out=6, seed=9))
        train(model, train_ds, TrainConfig(epochs=3, batch_size=16, shuffle_seed=4))
        model.save(out)
        return evaluate(model, test_ds).to_dict()

    metrics_a = run_once(tmp_path / "a.json")
    metrics_b = run_once(tmp_path / "b.json")
    same_checkpoint = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    same_metrics = metrics_a == metrics_b

    # checkpoint round trip: load and re-save reproduces the bytes
    clone = GraphClassifier.load(tmp_path / "a.json")
    clone.save(tmp_path / "a2.json")
    ckpt_roundtrip = (tmp_path / "a.json").read_bytes() == (tmp_path / "a2.json").read_bytes()

    # CSV round trip: save, load, save again
    save_csv(train_ds, tmp_path / "d.csv")
    loaded = load_csv(tmp_path / "d.csv")
    csv_values_exact = np.array_equal(loaded.amplitude_matrix(), train_ds.amplitude_matrix())
    save_csv(loaded, tmp_path / "d2.csv")
    csv_roundtrip = (tmp_path / "d.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    ok = same_checkpoint and same_metrics and ckpt_roundtrip and csv_values_exact and csv_roundtrip
    _verdict(
        report,
        "criterion 7 determinism",
        ok,
        f"retrain bitwise-identical checkpoint {same_checkpoint}, identical metrics "
        f"{same_metrics}, checkpoint round trip {ckpt_roundtrip}, CSV values exact "
        f"{csv_values_exact}, CSV round trip {csv_roundtrip}",
    )
