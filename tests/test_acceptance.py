"""End-to-end acceptance checks for the training and analysis pipeline.

One test per released guarantee, in order: analytic gradients, the ranking
metric, aggregation algebra, meta-update reductions, hierarchy collapse,
parallel determinism, the OP label ceiling and the two personalization gains
on heterogeneous data, data-quality weighting, activity divergence, and
artifact hygiene. Heavy tests also pin their runtime budgets.
"""

import json
import logging
import time

import numpy as np
import pytest

from hierfed.cli import main
from hierfed.data.ingest import ingest
from hierfed.data.grouping import group_by_demographic
from hierfed.data.partition import make_folds
from hierfed.data.records import Dataset, StudentRecord
from hierfed.fed.aggregate import (
    aggregate_attention,
    aggregate_average,
    attention_weights,
)
from hierfed.fed.checkpoint import load_checkpoint, save_checkpoint
from hierfed.fed.clients import build_client_data, meta_update
from hierfed.fed.engine import RunContext, train_strategy
from hierfed.fed.irt import irt_confidence, irt_interpolate
from hierfed.fed.strategy import parse_strategy
from hierfed.keys import GLOBAL_MODEL, GroupKey
from hierfed.metrics import activity_heatmap, auc
from hierfed.models.encoding import Encoding, Vocab
from hierfed.models.task import KT, OP
from hierfed.nn.layers import PROB_CLAMP
from hierfed.nn.params import axpy_params, clip_grad_norm
from hierfed.runner import ExperimentConfig, cmd_train
from hierfed.synth.archetypes import ENGAGEMENT_CAP, GenConfig, build_archetypes
from hierfed.synth.generate import PRESETS, generate, preset
from gradcheck import finite_diff_grad, grad_rel_error
from rowwise import events_of
from stepwise import forum, kt_entry, op_entry, video

VOCAB = Vocab(("c0", "c1"), ("v0", "v1", "v2", "v3"))


def kt_client_data(rng, n_students, prefix="s"):
    seqs = {}
    for i in range(n_students):
        L = int(rng.integers(3, 8))
        items = [(int(rng.integers(2)), int(rng.integers(5))) for _ in range(L)]
        sid = f"{prefix}{i:02d}"
        seqs[sid] = kt_entry(items, [int(rng.integers(2)) for _ in range(L)],
                             VOCAB)
    return build_client_data(KT, Encoding(VOCAB.kt_input_dim, seqs), sorted(seqs))


def op_client_data(rng, n_students, prefix="s"):
    seqs = {}
    for i in range(n_students):
        L = int(rng.integers(2, 9))
        steps = []
        for _ in range(L):
            if rng.random() < 0.7:
                resp = int(rng.integers(2)) if rng.random() < 0.5 else None
                steps.append(video(int(rng.integers(2)),
                                   int(rng.integers(5)), resp))
            else:
                steps.append(forum(int(rng.integers(2)),
                                   int(rng.integers(3))))
        sid = f"{prefix}{i:02d}"
        seqs[sid] = op_entry(steps, int(rng.integers(2)), VOCAB)
    return build_client_data(OP, Encoding(VOCAB.op_input_dim, seqs), sorted(seqs))


def forward_loss(task, x, lengths, targets):
    """The training loss rebuilt from forward-only scores: the clamped
    negative log-probability of each observed label, summed."""
    def loss(params):
        scores, labels = task.predict(x, lengths, targets, params)
        picked = np.where(labels == 1, scores, 1.0 - scores)
        return float(-np.log(np.clip(picked, PROB_CLAMP, 1.0 - PROB_CLAMP)).sum())
    return loss


def test_analytic_gradients_match_finite_differences():
    started = time.monotonic()
    worst = {"KT": 0.0, "OP": 0.0}
    for seed in range(20):
        for task, client_data, data_seed in ((KT, kt_client_data, seed),
                                             (OP, op_client_data, 1000 + seed)):
            rng = np.random.default_rng(data_seed)
            data = client_data(rng, 2)
            params = task.init(VOCAB, 8, rng)
            x, lengths, targets = data.batch(data.ids)
            _, analytic = task.loss_grad(x, lengths, targets, params)
            numeric = finite_diff_grad(forward_loss(task, x, lengths, targets),
                                       params)
            worst[task.name] = max(worst[task.name],
                                   grad_rel_error(analytic, numeric))
    elapsed = time.monotonic() - started
    assert worst["KT"] <= 1e-4, f"interaction model gradients off: {worst['KT']:.3e}"
    assert worst["OP"] <= 1e-4, f"outcome model gradients off: {worst['OP']:.3e}"
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"


def pair_count_auc(scores, labels):
    wins = 0.0
    pairs = 0
    for sp, lp in zip(scores, labels):
        if lp != 1:
            continue
        for sn, ln in zip(scores, labels):
            if ln != 0:
                continue
            pairs += 1
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / pairs if pairs else None


def test_auc_equals_pairwise_brute_force_exactly():
    started = time.monotonic()
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        # a coarse integer grid forces score ties on most draws
        scores = rng.integers(0, 7, size=n).astype(float)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        expect = pair_count_auc(scores, labels)
        assert auc(scores, labels) == expect
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 200
    assert elapsed < 5.0, f"ranking checks took {elapsed:.1f}s"


def test_aggregation_algebra_identities():
    rng = np.random.default_rng(17)
    shapes = {"a.W": (4, 3), "a.b": (3,), "out.W": (3, 2)}

    def random_params():
        return {k: rng.normal(size=s) for k, s in shapes.items()}

    clients = {GroupKey(f"c{i}"): random_params() for i in range(4)}
    mean = aggregate_average(clients, dict.fromkeys(clients, 0.25))
    for name in shapes:
        stack = np.stack([p[name] for p in clients.values()])
        assert np.abs(mean[name] - stack.mean(axis=0)).max() <= 1e-12

    server = random_params()
    copies = {GroupKey(f"c{i}"): {n: a.copy() for n, a in server.items()}
              for i in range(3)}
    for mode in ("layerwise", "scalar"):
        fixed = aggregate_attention(server, copies, eps=0.7, mode=mode)
        assert all(np.array_equal(fixed[n], server[n]) for n in shapes)

    spread = {GroupKey(f"c{i}"): random_params() for i in range(5)}
    scalar = attention_weights(server, spread, mode="scalar")
    assert abs(scalar.sum() - 1.0) <= 1e-12
    layerwise = attention_weights(server, spread, mode="layerwise")
    for name in shapes:
        assert abs(layerwise[name].sum() - 1.0) <= 1e-12

    same = random_params()
    blended = irt_interpolate(same, same)
    assert all(np.array_equal(blended[n], same[n]) for n in shapes)


class QuadraticClient:
    """A client whose loss on any batch is w^2 / 2, so its gradient is w."""

    def loss_grad(self, ids, params):
        w = params["w"]
        return float(w @ w) / 2.0, {"w": w.copy()}


def test_meta_update_reduces_to_sgd_and_the_quadratic_value():
    # f(w) = w^2/2: adapting w=1 by 0.5 then stepping by 0.1 on the adapted
    # gradient lands exactly on 1 - 0.1 * 0.5 = 0.95 in double precision
    params = {"w": np.array([1.0])}
    out, loss = meta_update(QuadraticClient(), params, ([], []), eta=0.1,
                            beta=0.5, clip=5.0)
    assert out["w"][0] == 0.95
    assert loss == 0.125    # f(0.5), the loss on D' at the adapted w

    rng = np.random.default_rng(5)
    data = kt_client_data(rng, 10)
    init = KT.init(VOCAB, 6, rng)
    d, d_prime = data.ids[:4], data.ids[4:8]
    meta, meta_loss = meta_update(data, init, (d, d_prime), eta=0.3, beta=0.0,
                                  clip=5.0)
    loss, grads = data.loss_grad(d_prime, init)
    sgd = axpy_params(-0.3, clip_grad_norm(grads, 5.0), init)
    assert all(np.array_equal(arr, sgd[name]) for name, arr in meta.items())
    assert meta_loss == loss


def test_degenerate_hierarchy_collapses_to_one_level():
    rng = np.random.default_rng(42)
    data = kt_client_data(rng, 12)
    init = KT.init(VOCAB, 8, rng)
    rounds = []

    def keep(k, models):
        rounds.append(models[GLOBAL_MODEL])

    one = parse_strategy("sc1-P-AT").with_overrides(rounds=10, batch_size=4)
    train_strategy(RunContext(strategy=one, master_seed=7, rep=0, fold=0,
                              init_params=init,
                              clients={GroupKey("c0"): data}),
                   callback=keep)
    flat = list(rounds)
    rounds.clear()

    key = GroupKey("c0", "gender", "F")
    two = parse_strategy("sc2-P-AT-B").with_overrides(rounds=10, batch_size=4)
    train_strategy(RunContext(strategy=two, master_seed=7, rep=0, fold=0,
                              init_params=init, clients={key: data},
                              course_pools={"c0": data}),
                   callback=keep)

    assert len(flat) == len(rounds) == 10
    for k, (p1, p2) in enumerate(zip(flat, rounds)):
        gap = max(np.abs(arr - p2[name]).max() for name, arr in p1.items())
        assert gap <= 1e-10, f"round {k} diverged by {gap:.2e}"


def test_parallel_training_is_bitwise_deterministic(tmp_path, monkeypatch):
    monkeypatch.delenv("HIERFED_SEED", raising=False)
    cfg = {"dataset": "balanced-small", "task": "kt", "strategy": "sc2-P-AT-B",
           "demographic": "gender", "folds": [0, 1], "repetitions": 4,
           "seed": 7}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    started = time.monotonic()
    for workers in ("1", "8"):
        rc = main(["train", "--config", str(cfg_path), "--workers", workers,
                   "--out", str(tmp_path / f"w{workers}")])
        assert rc == 0
    elapsed = time.monotonic() - started
    report_1 = (tmp_path / "w1" / "report.json").read_bytes()
    report_8 = (tmp_path / "w8" / "report.json").read_bytes()
    assert report_1 == report_8
    for fold in (0, 1):
        for rep in range(4):
            name = f"checkpoint_f{fold}_r{rep}.json"
            assert ((tmp_path / "w1" / name).read_bytes()
                    == (tmp_path / "w8" / name).read_bytes())
    assert elapsed < 120.0, f"determinism runs took {elapsed:.1f}s"


def _auc_stats(task: str, strategy: str, demographic):
    config = ExperimentConfig(dataset="heterogeneous-3course", task=task,
                              strategy=strategy, demographic=demographic,
                              folds=(0,), repetitions=5, seed=101)
    report = cmd_train(config, workers=5)
    means, stds = [], []
    for run in report["runs"]:
        vals = [v for v in run["test_auc"].values() if v is not None]
        means.append(float(np.mean(vals)))
        stds.append(float(np.std(vals)))
    return float(np.mean(means)), float(np.mean(stds))


def _op_score_ceiling(demographic: str) -> dict:
    """Per-group test AUC of the generator's own OP score, fold 0, seed 101.

    The OP label is frac_correct + 0.1 * min(1, n_forum / ENGAGEMENT_CAP)
    against a pass threshold, with a few labels flipped. Inside a subgroup
    the threshold is constant, so ranking by that score is the best any
    model can do there; only the flipped labels keep it below 1.
    """
    ds = generate(preset("heterogeneous-3course"))
    test_ids = set().union(*make_folds(ds, 101)[0].test.values())
    by_student = events_of(ds)
    out = {}
    for key, ids in group_by_demographic(ds, demographic,
                                         student_ids=test_ids).items():
        scores, labels = [], []
        for sid in sorted(ids):
            events = by_student[sid]
            if not events:
                continue
            responses = [ev.response for ev in events
                         if ev.kind == "quiz_response"]
            n_forum = sum(ev.kind == "forum" for ev in events)
            frac = float(np.mean(responses)) if responses else 0.0
            scores.append(frac + 0.1 * min(1.0, n_forum / ENGAGEMENT_CAP))
            labels.append(ds.students[sid].outcome)
        out[key.label()] = auc(np.array(scores), np.array(labels))
    return out


def test_op_score_ceiling_caps_the_subgroup_gain():
    """The figures quoted by the subgroup personalization test hold."""
    ceiling = _op_score_ceiling("age")
    assert len(ceiling) == 9 and None not in ceiling.values()
    assert ceiling["c0|age|90~"] == pytest.approx(0.800, abs=5e-4)
    assert np.mean(list(ceiling.values())) == pytest.approx(0.978, abs=5e-4)


def test_subgroup_personalization_raises_and_evens_auc():
    """Subgroup personalization raises and evens per-subgroup AUC.

    OP is held to parity, not to the +0.05 of KT. Its pass threshold is
    constant inside a subgroup, so the generator's own score is already the
    best within-subgroup ranking: on the fold-0 test sets it averages 0.978
    over the nine subgroups (c0|90~ 0.800; `_op_score_ceiling`), short of
    the 0.992 that +0.05 over the global model's 0.942 would need.
    """
    started = time.monotonic()
    problems = []
    for task, min_gap in (("KT", 0.05), ("OP", 0.0)):
        p_mean, p_std = _auc_stats(task, "sc2-P-AT-B", "age")
        g_mean, g_std = _auc_stats(task, "sc2-G-AT-T", "age")
        gap = p_mean - g_mean
        if gap < min_gap:
            problems.append(f"{task}: mean gap {gap:+.4f} (personalized "
                            f"{p_mean:.4f} vs global {g_mean:.4f}) is "
                            f"{min_gap - gap:.4f} short of {min_gap}")
        if p_std > g_std + 0.02:
            problems.append(f"{task}: personalized std {p_std:.4f} exceeds "
                            f"global {g_std:.4f} + 0.02 by "
                            f"{p_std - g_std - 0.02:.4f}")
    elapsed = time.monotonic() - started
    assert elapsed <= 900.0, f"personalization runs took {elapsed:.1f}s"
    assert not problems, "; ".join(problems)


def test_course_personalization_beats_global_models():
    """Course personalization beats the federated global model on KT.

    OP has nothing course-specific to learn. Its label is
    frac + bonus > base(course) + tau * pattern(subgroup), and per-course AUC
    ignores the constant course base, so one rule shared by all courses is
    the best per-course ranking. The guard below fails if the generator ever
    gives OP labels course-specific structure, at which point OP belongs in
    this test. OP personalization is held to parity by the subgroup test.
    """
    archetypes = build_archetypes(preset("heterogeneous-3course"))
    courses = sorted({course for course, _ in archetypes})
    subgroups = sorted({subgroup for _, subgroup in archetypes})
    for course in courses[1:]:
        gaps = [archetypes[(course, g)].pass_threshold
                - archetypes[(courses[0], g)].pass_threshold for g in subgroups]
        assert np.allclose(gaps, gaps[0], rtol=0.0, atol=1e-12), (
            f"OP pass threshold gap {course} - {courses[0]} differs across "
            f"subgroups: {gaps}")

    p_mean, _ = _auc_stats("KT", "sc1-P-AT", None)
    g_mean, _ = _auc_stats("KT", "sc1-G-AT", None)
    assert p_mean - g_mean >= 0.03, (
        f"KT: personalized {p_mean:.4f} vs global {g_mean:.4f} "
        f"(gap {p_mean - g_mean:+.4f}, need >= 0.03)")


def rasch_triplets(rng, n_students, n_items, flip, tag):
    abilities = rng.normal(0.0, 1.0, n_students)
    difficulties = np.linspace(-1.5, 1.5, n_items)
    out = []
    for i in range(n_students):
        for j in range(n_items):
            p = 1.0 / (1.0 + np.exp(-(abilities[i] - difficulties[j])))
            r = int(rng.random() < p)
            if rng.random() < flip:
                r = 1 - r
            out.append((f"{tag}{i:02d}", f"q{j}", r))
    return out


def test_confidence_weights_favor_the_low_noise_subgroup():
    low = GroupKey("c0", "gender", "F")
    high = GroupKey("c0", "gender", "M")
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        conf = irt_confidence({
            low: rasch_triplets(rng, 30, 10, flip=0.05, tag="f"),
            high: rasch_triplets(rng, 30, 10, flip=0.40, tag="m"),
        })
        assert abs(sum(conf.values()) - 1.0) <= 1e-12
        if conf[low] > conf[high]:
            wins += 1
    assert wins >= 9, f"low-noise subgroup won only {wins}/10 seeds"


def test_cross_subgroup_divergence_dominates_sampling_noise():
    order = ("~80", "80~90", "90~")
    cross_means, within_means = [], []
    for trial in range(10):
        cfg = GenConfig(name="heat", courses=("c0",), students_per_course=1800,
                        videos_per_course=16, shared_videos=0,
                        demographic="age", subgroup_labels=order,
                        subgroup_shares=(0.34, 0.33, 0.33), tau=0.8,
                        undisclosed_fraction=0.0, label_noise=0.02,
                        seed=7000 + trial)
        ds = generate(cfg)
        groups = group_by_demographic(ds, "age", False)
        by_sub = {k.subgroup: sorted(groups[k]) for k in groups}
        for i in range(3):
            for j in range(i + 1, 3):
                grid = activity_heatmap(ds, by_sub[order[i]], by_sub[order[j]],
                                        t_bins=50)
                cross_means.append(grid.mean())
        rng = np.random.default_rng(trial)
        for lab in order:
            ids = by_sub[lab]
            perm = rng.permutation(len(ids))
            half = len(ids) // 2
            grid = activity_heatmap(ds, [ids[x] for x in perm[:half]],
                                    [ids[x] for x in perm[half:]], t_bins=50)
            within_means.append(grid.mean())
    ratio = np.mean(cross_means) / np.mean(within_means)
    assert ratio >= 2.0, (
        f"cross-subgroup divergence {np.mean(cross_means):.4f} is only "
        f"{ratio:.2f}x the split noise {np.mean(within_means):.4f}")


def test_pipeline_hygiene_round_trips(tmp_path, caplog):
    # every preset must survive its own export/ingest cycle silently
    for name in sorted(PRESETS):
        out = tmp_path / name
        generate(preset(name), out_dir=out)
        with caplog.at_level(logging.WARNING, logger="hierfed"):
            ds = ingest(out / "events.csv", out / "students.csv")
        assert not caplog.records, [r.message for r in caplog.records]
        assert len(ds.students) > 0

    for trial in range(50):
        rng = np.random.default_rng(5000 + trial)
        students = {}
        for c in range(int(rng.integers(1, 4))):
            for i in range(int(rng.integers(5, 31))):
                sid = f"c{c}-s{i:03d}"
                students[sid] = StudentRecord(sid, f"c{c}")
        ds = Dataset(students)
        folds = make_folds(ds, seed=trial)
        assert len(folds) == 5
        for course, ids in ds.students_by_course().items():
            everyone = set(ids)
            tests = [folds[i].test[course] for i in range(5)]
            assert set.union(*tests) == everyone
            assert sum(len(t) for t in tests) == len(everyone)
            for f in folds:
                train, val, test = f.train[course], f.val[course], f.test[course]
                assert train | val | test == everyone
                assert not (train & val or train & test or val & test)
                assert len(val) == len(everyone - test) // 5

    rng = np.random.default_rng(99)
    models = {
        "global": KT.init(VOCAB, 5, rng),
        "course:c0|none|all": {"w": rng.normal(size=(3, 4))[::2].copy(),
                               "b": rng.normal(size=4)},
    }
    path = tmp_path / "ck.json"
    save_checkpoint(path, models, "a" * 64, extra={"fold": 1, "rep": 2})
    loaded, chash, extra = load_checkpoint(path)
    assert chash == "a" * 64 and extra == {"fold": 1, "rep": 2}
    for name, params in models.items():
        assert list(loaded[name]) == list(params)
        for lname, arr in params.items():
            assert np.array_equal(loaded[name][lname], arr)
