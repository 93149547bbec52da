"""Release checklist, one numbered criterion per test.

Each test prints a single `criterion N: PASS/FAIL` line (straight to the
real stdout so it survives pytest capture) and then asserts, so the suite
output doubles as the checklist. Criteria:

 1. end-to-end finite-difference gradient check over every parameter
 2. closed-form loss values (NLL at the mean, unit KL, annealing origin)
 3. ADE/FDE against constant-offset geometry and a naive-loop oracle
 4. variable agent counts + agent-permutation equivariance
 5. overfit smoke run on a 16-window synthetic corpus (best-of-20 ADE)
 6. KL stays positive after epoch 50; annealing weight follows the line
 7. parameter-count corridor and strict ordering over latent lengths
 8. single-inference latency
 9. long-running benchmark reproduction script exists (not gating)
10. bit-exact determinism of training checkpoints and evaluation
"""

import hashlib
import math
import py_compile
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from stgcvae import autodiff as ad
from stgcvae import evaluation, graph, losses, model, synthetic, training
from stgcvae.data import to_displacements

OBS, SEQ = 8, 20


def announce(n, ok, detail=""):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    conftest.checklist.append((n, line))
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def _toy_loss(m, disp, adj, eps):
    """Deterministic training-shaped loss: NLL + 0.005 * KL with a frozen
    reparameterization draw, so finite differences are well defined."""
    p = m.traced_params()
    v_full = ad.leaf(disp)
    v_obs = ad.leaf(disp[:, :OBS, :])
    prior = m.prior_forward(p, v_obs, adj[:OBS])
    post = m.recog_forward(p, v_full, adj)
    sigma = ad.exp(ad.scale(post.logvar, 0.5))
    z = ad.add(post.mu, ad.mul(sigma, ad.Value(eps)))
    pred = m.decode(p, z, m.observe(p, v_obs, adj[:OBS]))
    nll = losses.bivariate_nll(pred, disp)
    kl = losses.kl_diag_gaussians(post, prior)
    return ad.add(nll, ad.scale(kl, 0.005)), p


def test_criterion_1_gradient_check():
    t0 = time.perf_counter()
    # narrow config so exhaustive coverage of every scalar fits the budget;
    # all three networks and every layer type are still present
    cfg = model.ModelConfig(embed_channels=6, latent_len=4)
    m = model.TrajCvae(cfg, rng=np.random.default_rng(0))
    rng = np.random.default_rng(3)
    # shift all parameters (biases included) off their init values: with
    # zero biases the frame-0 PReLU pre-activations sit exactly on the
    # kink, where central differences measure the wrong one-sided slope
    for name in m.params.names():
        m.params[name] = m.params[name] + rng.normal(
            0, 0.05, m.params[name].shape)

    pos = np.cumsum(rng.normal(0.1, 0.2, (SEQ, 2, 2)), axis=0)
    disp = to_displacements(pos).values
    adj = graph.normalized_adjacency(pos)
    lat = (cfg.latent_len, OBS, 2)
    eps = np.random.default_rng(9).standard_normal(lat)

    total, p = _toy_loss(m, disp, adj, eps)
    grads = ad.backward(total)
    analytic = {n: grads.get(leaf) for n, leaf in p.items()}

    h = 1e-5
    worst_rel, checked = 0.0, 0
    for name in m.params.names():
        arr, g = m.params[name], analytic[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = float(_toy_loss(m, disp, adj, eps)[0].data)
            arr[idx] = orig - h
            lm = float(_toy_loss(m, disp, adj, eps)[0].data)
            arr[idx] = orig
            fd = (lp - lm) / (2 * h)
            a = float(g[idx])
            scale = max(abs(a), abs(fd))
            checked += 1
            if scale < 1e-4:
                # both near zero: relative error is meaningless there,
                # require agreement at finite-difference noise level
                assert abs(a - fd) < 1e-7, (name, idx, a, fd)
            else:
                worst_rel = max(worst_rel, abs(a - fd) / scale)
    elapsed = time.perf_counter() - t0
    announce(1, worst_rel < 1e-4 and elapsed < 120.0,
             f"{checked} params, worst rel err {worst_rel:.2e}, "
             f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 2: loss analytics


def test_criterion_2_loss_analytics():
    raw = np.zeros((5, 1, 1))
    nll = float(losses.bivariate_nll(
        model.BivariateGaussianSeq(ad.leaf(raw)), np.zeros((2, 1, 1))).data)
    ok_nll = abs(nll - math.log(2 * math.pi)) < 1e-9

    q = model.LatentGaussian(ad.leaf(np.ones((1, 1, 1))),
                             ad.leaf(np.zeros((1, 1, 1))))
    p = model.LatentGaussian(ad.leaf(np.zeros((1, 1, 1))),
                             ad.leaf(np.zeros((1, 1, 1))))
    kl = float(losses.kl_diag_gaussians(q, p).data)
    ok_kl = abs(kl - 0.5) < 1e-12

    kl_self = float(losses.kl_diag_gaussians(q, q).data)
    ok_self = kl_self == 0.0

    ok_w = losses.anneal_weight(0) == 0.0
    announce(2, ok_nll and ok_kl and ok_self and ok_w,
             f"nll@mean={nll:.9f}, unit KL={kl:.12f}, "
             f"KL(q,q)={kl_self!r}, w(0)={losses.anneal_weight(0)!r}")


# ---------------------------------------------------------------------------
# criterion 3: metric oracles


def test_criterion_3_metric_oracles():
    truth = np.random.default_rng(0).normal(size=(12, 3, 2))
    pred = truth + np.array([0.3, 0.4])
    ok_const = (abs(evaluation.ade(pred, truth) - 0.5) < 1e-12
                and abs(evaluation.fde(pred, truth) - 0.5) < 1e-12)

    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        t_frames, n = int(rng.integers(1, 15)), int(rng.integers(1, 8))
        a = rng.normal(size=(t_frames, n, 2))
        b = rng.normal(size=(t_frames, n, 2))
        acc = 0.0
        for t in range(t_frames):
            for i in range(n):
                acc += math.hypot(a[t, i, 0] - b[t, i, 0],
                                  a[t, i, 1] - b[t, i, 1])
        loop_ade = acc / (t_frames * n)
        loop_fde = np.mean([math.hypot(*(a[-1, i] - b[-1, i]))
                            for i in range(n)])
        worst = max(worst, abs(evaluation.ade(a, b) - loop_ade),
                    abs(evaluation.fde(a, b) - loop_fde))
    announce(3, ok_const and worst < 1e-12,
             f"constant-offset exact, loop-oracle max diff {worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 4: variable agent counts + permutation equivariance


def test_criterion_4_variable_agents():
    m = model.TrajCvae(model.ModelConfig(), rng=np.random.default_rng(0))
    rng = np.random.default_rng(5)

    for n in (1, 2, 5, 12):
        w = synthetic.make_window("const-velocity", n, rng)
        grads, report = training.window_gradients(m, w, epoch=10, rng=rng)
        assert np.isfinite(report.total), f"N={n} produced non-finite loss"
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    # permutation equivariance: shuffling agents permutes every network's
    # output and changes nothing else
    n = 5
    w = synthetic.make_window("turn", n, rng)
    disp = to_displacements(w.positions).values
    adj = graph.normalized_adjacency(w.positions)
    perm = np.random.default_rng(6).permutation(n)
    disp_p = disp[:, :, perm]
    adj_p = adj[:, perm][:, :, perm]

    def outputs(d, a):
        p = m.traced_params()
        v_full, v_obs = ad.leaf(d), ad.leaf(d[:, :OBS, :])
        prior = m.prior_forward(p, v_obs, a[:OBS])
        post = m.recog_forward(p, v_full, a)
        pred = m.decode(p, prior.mu, m.observe(p, v_obs, a[:OBS]))
        return (prior.mu.data, prior.logvar.data, post.mu.data,
                post.logvar.data, pred.raw.data)

    base = outputs(disp, adj)
    permuted = outputs(disp_p, adj_p)
    worst = max(np.max(np.abs(b[..., perm] - q))
                for b, q in zip(base, permuted))
    announce(4, worst < 1e-9,
             f"N in (1,2,5,12) fwd/bwd ok, equivariance err {worst:.1e}")


# ---------------------------------------------------------------------------
# criteria 5 + 6: overfit smoke run (shared training run)


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    corpus = (synthetic.make_corpus("const-velocity", 1, 8, seed=11)
              + synthetic.make_corpus("turn", 1, 8, seed=22))
    cfg = model.ModelConfig(feature_scale=4.0)
    m = model.TrajCvae(cfg, rng=np.random.default_rng(0))
    # flat lr 0.01 throughout; batch size 1 maximizes SGD steps in the
    # fixed 300-epoch budget
    tc = training.TrainConfig(epochs=300, batch_size=1, lr_initial=0.01,
                              lr_after=0.01, lr_switch_epoch=150, seed=0)
    state = training.TrainState(params=m.params,
                                rng=np.random.default_rng(tc.seed))
    log_path = tmp_path_factory.mktemp("overfit") / "loss.csv"
    log = losses.MetricsLog(log_path)
    t0 = time.perf_counter()
    for _ in range(tc.epochs):
        state = training.train_epoch(state, m, corpus, tc, log=log)
    wall = time.perf_counter() - t0

    report = evaluation.evaluate_dataset(m, corpus, k=20, seed=1)
    rows = []
    with open(log_path) as fh:
        next(fh)
        for line in fh:
            epoch, step, total, rec, kl, w_kl = line.strip().split(",")
            rows.append((int(epoch), float(kl), float(w_kl)))
    return {"corpus": corpus, "model": m, "report": report,
            "rows": rows, "wall": wall}


def test_criterion_5_overfit_smoke(overfit_run):
    report = overfit_run["report"]
    turn_ade = report.per_scene["turn"]["ade"]
    cv_base = np.mean([evaluation.constant_velocity_baseline(w)[0]
                       for w in overfit_run["corpus"] if w.scene == "turn"])
    wall = overfit_run["wall"]
    ok = (report.ade < 0.10 and turn_ade < cv_base and wall < 600.0)
    announce(5, ok,
             f"best-of-20 ADE {report.ade:.3f} (target < 0.10), turn "
             f"{turn_ade:.3f} vs const-velocity baseline {cv_base:.3f}, "
             f"{wall:.0f}s")


def test_criterion_6_kl_behavior(overfit_run):
    rows = overfit_run["rows"]
    late = [kl for epoch, kl, _ in rows if epoch > 50]
    ok_pos = bool(late) and min(late) > 0.0
    ok_sched = all(w == losses.anneal_weight(epoch)
                   for epoch, _, w in rows)
    announce(6, ok_pos and ok_sched,
             f"min KL after epoch 50 = {min(late):.4f}, "
             f"w_KL linear schedule exact: {ok_sched}")


# ---------------------------------------------------------------------------
# criterion 7: parameter-count corridor


def test_criterion_7_param_corridor():
    counts = {L: model.TrajCvae(model.ModelConfig(latent_len=L),
                                rng=np.random.default_rng(0)).count_params()
              for L in (10, 20, 30)}
    ok = (15_000 <= counts[20] <= 35_000
          and counts[10] < counts[20] < counts[30])
    announce(7, ok, f"L=10/20/30 -> {counts[10]}/{counts[20]}/{counts[30]}")


# ---------------------------------------------------------------------------
# criterion 8: latency


def test_criterion_8_latency():
    m = model.TrajCvae(model.ModelConfig(), rng=np.random.default_rng(0))
    w = synthetic.make_window("const-velocity", 12, np.random.default_rng(2))
    stats = evaluation.benchmark_inference(m, w, repetitions=100)
    announce(8, stats.mean < 0.010,
             f"single inference (N=12) mean {stats.mean * 1e3:.2f} ms, "
             f"p95 {stats.p95 * 1e3:.2f} ms")


# ---------------------------------------------------------------------------
# criterion 9: benchmark reproduction script (not gating on its numbers)


def test_criterion_9_reproduction_script():
    script = Path(__file__).resolve().parents[1] / "scripts" \
        / "reproduce_benchmark.py"
    ok = script.is_file()
    if ok:
        py_compile.compile(str(script), doraise=True)
    announce(9, ok, f"{script.name} present and compiles "
                    "(long-running, result not gating)")


# ---------------------------------------------------------------------------
# criterion 10: determinism


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_criterion_10_determinism(tmp_path):
    corpus = synthetic.make_corpus("turn", 2, 4, seed=3)
    cfg = model.ModelConfig(embed_channels=6, latent_len=4)
    tc = training.TrainConfig(epochs=5, batch_size=2, lr_switch_epoch=2,
                              seed=7)

    digests = []
    for run in range(2):
        m = model.TrajCvae(cfg, rng=np.random.default_rng(tc.seed))
        state = training.TrainState(params=m.params,
                                    rng=np.random.default_rng(tc.seed))
        for _ in range(tc.epochs):
            state = training.train_epoch(state, m, corpus, tc)
        path = tmp_path / f"run{run}.stgc"
        training.checkpoint(state, m, path, config=tc)
        digests.append(_digest(path))
    ok_train = digests[0] == digests[1]

    m = model.TrajCvae(cfg, rng=np.random.default_rng(0))
    r1 = evaluation.evaluate_dataset(m, corpus, k=5, seed=9)
    r2 = evaluation.evaluate_dataset(m, corpus, k=5, seed=9)
    ok_eval = (r1.ade == r2.ade) and (r1.fde == r2.fde)
    announce(10, ok_train and ok_eval,
             f"checkpoint digests equal: {ok_train}, "
             f"evaluation bit-identical: {ok_eval}")
