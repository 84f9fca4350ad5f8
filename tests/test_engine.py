"""Training engines and evaluation-time adaptation.

Runs use tiny hand-built clients (a dozen short sequences, hidden width 4)
so every engine finishes in well under a second.
"""

import gc
import logging
import weakref

import numpy as np
import pytest

from hierfed.errors import NumericsError
from hierfed.fed.aggregate import aggregate_attention, aggregate_average
from hierfed.fed.clients import (
    ClientData,
    apply_updates,
    build_client_data,
    meta_batches,
)
from hierfed.fed.engine import (
    RunContext,
    adapted_params,
    evaluate_adapted,
    train_strategy,
)
from hierfed.fed.strategy import parse_strategy
from hierfed.keys import GLOBAL_MODEL, GroupKey
from hierfed.models.encoding import Encoding, Vocab
from hierfed.models.task import KT
from hierfed.nn.params import axpy_params
from stepwise import kt_entry

VOCAB = Vocab(("c0", "c1"), ("v0", "v1", "v2", "v3"))


def make_sequences(rng, sids, course=0, bias=0.5):
    seqs = {}
    for sid in sids:
        L = int(rng.integers(3, 7))
        items = [(course, int(rng.integers(5))) for _ in range(L)]
        responses = [int(rng.random() < bias) for _ in range(L)]
        seqs[sid] = kt_entry(items, responses, VOCAB)
    return seqs


def make_client(rng, n=8, prefix="s", course=0, bias=0.5):
    sids = [f"{prefix}{i:02d}" for i in range(n)]
    seqs = make_sequences(rng, sids, course=course, bias=bias)
    return build_client_data(KT, Encoding(VOCAB.kt_input_dim, seqs), sids)


def empty_client():
    """A client with no students."""
    return ClientData(KT, Encoding(VOCAB.kt_input_dim, {}))


def init_params(rng, hidden=4):
    return KT.init(VOCAB, hidden, rng)


def two_level_world(rng, per_sub=5):
    """Two courses, each split into two gender subgroups."""
    clients, course_pools = {}, {}
    for ci, c in enumerate(("c0", "c1")):
        pooled = {}
        for g in ("F", "M"):
            sids = [f"{c}-{g}{i}" for i in range(per_sub)]
            seqs = make_sequences(rng, sids, course=ci, bias=0.3 + 0.4 * ci)
            pooled.update(seqs)
            key = GroupKey(c, "gender", g)
            clients[key] = build_client_data(
                KT, Encoding(VOCAB.kt_input_dim, seqs), sids)
        course_pools[c] = build_client_data(
            KT, Encoding(VOCAB.kt_input_dim, pooled), sorted(pooled))
    return clients, course_pools


def params_equal(a, b):
    return all(np.array_equal(arr, b[name]) for name, arr in a.items())


def max_param_diff(a, b):
    return max(np.abs(arr - b[name]).max() for name, arr in a.items())


def capture_models(store):
    return lambda k, models: store.append(models)


def model_map(theta_g=None, models=()):
    """The model map of a global (unless None) and GroupKey-keyed models."""
    out = {key.model_name(): params for key, params in dict(models).items()}
    if theta_g is not None:
        out[GLOBAL_MODEL] = theta_g
    return out


def names(*keys):
    return {key.model_name() for key in keys}


# ---------------------------------------------------------------------------
# Hierarchy collapse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("one_level,two_level", [
    ("sc1-P-AT", "sc2-P-AT-B"),
    ("sc1-G-AV", "sc2-G-AV-T"),
])
def test_single_cell_hierarchy_collapses_to_one_level(one_level, two_level):
    # with one course holding one subgroup, the two-level engine must
    # retrace the one-level trajectory round for round
    rng = np.random.default_rng(42)
    data = make_client(rng, n=8)
    init = init_params(rng)
    K = 10
    s1 = parse_strategy(one_level).with_overrides(
        rounds=K, batch_size=4, local_iters=2)
    s2 = parse_strategy(two_level).with_overrides(
        rounds=K, batch_size=4, local_iters=2)

    seen1, seen2 = [], []
    ctx1 = RunContext(strategy=s1, master_seed=7, rep=0, fold=0,
                      init_params=init, clients={GroupKey("c0"): data})
    _, losses1 = train_strategy(ctx1, callback=capture_models(seen1))

    key = GroupKey("c0", "gender", "F")
    ctx2 = RunContext(strategy=s2, master_seed=7, rep=0, fold=0,
                      init_params=init, clients={key: data},
                      course_pools={"c0": data})
    _, losses2 = train_strategy(ctx2, callback=capture_models(seen2))

    assert len(seen1) == len(seen2) == K
    for r1, r2 in zip(seen1, seen2):
        assert max_param_diff(r1[GLOBAL_MODEL], r2[GLOBAL_MODEL]) <= 1e-10
    assert losses1 == losses2


# ---------------------------------------------------------------------------
# Engine structure and determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sc1-G-AV", "sc1-G-AT", "sc1-P-AV", "sc1-P-AT"])
def test_one_level_engine_populates_course_models(name):
    rng = np.random.default_rng(3)
    clients = {GroupKey("c0"): make_client(rng, prefix="a", course=0),
               GroupKey("c1"): make_client(rng, prefix="b", course=1)}
    s = parse_strategy(name).with_overrides(rounds=2, batch_size=4, local_iters=2)
    ctx = RunContext(strategy=s, master_seed=11, rep=0, fold=0,
                     init_params=init_params(rng), clients=clients)
    seen = []
    models, losses = train_strategy(ctx, callback=capture_models(seen))
    assert set(models) == {GLOBAL_MODEL} | names(*clients)
    assert all(np.isfinite(a).all() for a in models[GLOBAL_MODEL].values())
    assert len(losses) == 2
    assert all(loss > 0.0 for loss in losses)
    assert len(seen) == 2


def test_two_level_engine_populates_every_level():
    rng = np.random.default_rng(4)
    clients, pools = two_level_world(rng)
    s = parse_strategy("sc2-P-AT-B").with_overrides(
        rounds=2, batch_size=4, local_iters=1, per_group=2)
    ctx = RunContext(strategy=s, master_seed=5, rep=0, fold=0,
                     init_params=init_params(rng), clients=clients,
                     course_pools=pools)
    models, losses = train_strategy(ctx)
    assert set(models) == ({GLOBAL_MODEL} | names(*clients)
                           | names(GroupKey("c0"), GroupKey("c1")))
    assert all(np.isfinite(a).all() for a in models[GLOBAL_MODEL].values())
    assert len(losses) == 2


def test_every_leaf_updates_before_the_rounds_first_aggregation(monkeypatch):
    # a round starts every leaf, updates every leaf, then aggregates: no
    # course aggregates while another course's leaves have yet to update
    rng = np.random.default_rng(4)
    clients, pools = two_level_world(rng)
    leaf_of = {id(data): key for key, data in clients.items()}
    events = []
    loss_grad = ClientData.loss_grad

    def recorded_loss_grad(self, ids, params):
        if id(self) in leaf_of:
            events.append(("leaf", leaf_of[id(self)]))
        return loss_grad(self, ids, params)

    def recorded_attention(*args, **kwargs):
        events.append(("aggregate", None))
        return aggregate_attention(*args, **kwargs)

    monkeypatch.setattr(ClientData, "loss_grad", recorded_loss_grad)
    monkeypatch.setattr("hierfed.fed.engine.aggregate_attention",
                        recorded_attention)
    s = parse_strategy("sc2-P-AT-B").with_overrides(
        rounds=2, batch_size=4, local_iters=1, per_group=2)
    ctx = RunContext(strategy=s, master_seed=5, rep=0, fold=0,
                     init_params=init_params(rng), clients=clients,
                     course_pools=pools)
    train_strategy(ctx, callback=lambda k, models: events.append(("end", k)))

    ends = [i for i, (kind, _) in enumerate(events) if kind == "end"]
    assert len(ends) == 2
    for begin, end in zip([0] + [i + 1 for i in ends], ends):
        kinds = [kind for kind, _ in events[begin:end]]
        first_aggregate = kinds.index("aggregate")
        updated = {key for kind, key in events[begin:begin + first_aggregate]
                   if kind == "leaf"}
        assert updated == set(clients)
        assert "leaf" not in kinds[first_aggregate:]


@pytest.mark.parametrize("name", ["sc2-P-AT-B", "sc2-G-AT-T"])
def test_no_earlier_rounds_leaf_model_is_held_while_the_leaves_update(
        monkeypatch, name):
    # these strategies start a round's leaves from their course's start
    # model alone, so round 0's leaf models are gone before round 1 updates
    rng = np.random.default_rng(4)
    clients, pools = two_level_world(rng)
    leaf = min(clients, key=GroupKey.sort_key).model_name()
    held, alive = [], []
    loss_grad = ClientData.loss_grad

    def recorded_loss_grad(self, ids, params):
        if held and not alive:  # the first loss_grad after round 0 ends
            alive.append(held[0]() is not None)
        return loss_grad(self, ids, params)

    def keep(k, models):
        if k == 0:
            held.append(weakref.ref(next(iter(models[leaf].values()))))

    monkeypatch.setattr(ClientData, "loss_grad", recorded_loss_grad)
    s = parse_strategy(name).with_overrides(
        rounds=2, batch_size=4, local_iters=1, per_group=2)
    ctx = RunContext(strategy=s, master_seed=5, rep=0, fold=0,
                     init_params=init_params(rng), clients=clients,
                     course_pools=pools)
    enabled = gc.isenabled()
    gc.disable()    # with the collector off, only a reference keeps one alive
    try:
        train_strategy(ctx, callback=keep)
    finally:
        if enabled:
            gc.enable()
    assert alive == [False]


def test_rerunning_an_engine_is_bitwise_identical():
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)

    def build(rng):
        clients, pools = two_level_world(rng)
        s = parse_strategy("sc2-P-AT-B").with_overrides(
            rounds=3, batch_size=4, local_iters=2, per_group=2)
        return RunContext(strategy=s, master_seed=21, rep=1,
                          fold=2, init_params=init_params(rng),
                          clients=clients, course_pools=pools)

    m1, losses1 = train_strategy(build(rng_a))
    m2, losses2 = train_strategy(build(rng_b))
    assert set(m1) == set(m2) and GLOBAL_MODEL in m1
    for name in m1:
        assert params_equal(m1[name], m2[name])
    assert losses1 == losses2


def test_centralized_training_uses_one_pooled_client():
    rng = np.random.default_rng(6)
    data = make_client(rng, n=10)
    s = parse_strategy("sc1-G").with_overrides(epochs=3, batch_size=4)
    ctx = RunContext(strategy=s, master_seed=2, rep=0, fold=0,
                     init_params=init_params(rng),
                     clients={GroupKey("c0"): data})
    models, losses = train_strategy(ctx)
    assert all(np.isfinite(a).all() for a in models[GLOBAL_MODEL].values())
    assert list(models) == [GLOBAL_MODEL]
    assert len(losses) == 3


def test_local_training_keeps_models_separate():
    rng = np.random.default_rng(7)
    clients = {GroupKey("c0"): make_client(rng, prefix="a", course=0, bias=0.2),
               GroupKey("c1"): make_client(rng, prefix="b", course=1, bias=0.8)}
    s = parse_strategy("sc1-L").with_overrides(epochs=2, batch_size=4)
    ctx = RunContext(strategy=s, master_seed=2, rep=0, fold=0,
                     init_params=init_params(rng), clients=clients)
    models, _ = train_strategy(ctx)
    assert GLOBAL_MODEL not in models
    assert set(models) == names(*clients)
    a, b = (models[k.model_name()] for k in sorted(clients, key=GroupKey.sort_key))
    assert not params_equal(a, b)


def test_local_training_stores_subgroup_models_in_scenario_two():
    rng = np.random.default_rng(8)
    clients, _ = two_level_world(rng, per_sub=4)
    s = parse_strategy("sc2-L").with_overrides(epochs=2, batch_size=4)
    ctx = RunContext(strategy=s, master_seed=2, rep=0, fold=0,
                     init_params=init_params(rng), clients=clients)
    models, _ = train_strategy(ctx)
    assert GLOBAL_MODEL not in models
    assert set(models) == names(*clients)


def test_small_meta_client_falls_back_and_warns_once_per_call(caplog):
    # a meta-updating client with fewer than two batches of students uses
    # the whole client as both batches; every training call warns once per
    # such client, whatever ran earlier in the process
    rng = np.random.default_rng(4)
    small, large = GroupKey("c0"), GroupKey("c1")
    clients = {small: make_client(rng, n=5, prefix="a", course=0),
               large: make_client(rng, n=16, prefix="b", course=1)}
    init = init_params(rng)
    d, d_prime = meta_batches(clients[small], 8, np.random.default_rng(0))
    assert d == d_prime == clients[small].ids

    s = parse_strategy("sc1-P-AT").with_overrides(
        rounds=2, batch_size=8, local_iters=2)
    ctx = RunContext(strategy=s, master_seed=1, rep=3, fold=2,
                     init_params=init, clients=clients)
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hierfed.fed.engine"):
            train_strategy(ctx)
        warned = [r.getMessage() for r in caplog.records
                  if "meta-update reuses one batch" in r.getMessage()]
        assert len(warned) == 1
        assert "fold 2, rep 3: client GroupKey(c0|none|all)" in warned[0]


def make_triplets(rng, sids, n_items=6, per_student=5):
    out = []
    for sid in sids:
        for _ in range(per_student):
            out.append((sid, f"q{int(rng.integers(n_items))}",
                        int(rng.integers(2))))
    return out


def test_fedirt_reports_confidences_that_sum_to_one(monkeypatch):
    # each course aggregates its subgroups with IRT confidences that sum to
    # one over the course
    seen = []

    def recording_average(models, weights):
        seen.append({key: weights[key] for key in models})
        return aggregate_average(models, weights)

    monkeypatch.setattr("hierfed.fed.engine.aggregate_average",
                        recording_average)
    rng = np.random.default_rng(10)
    clients, pools = two_level_world(rng)
    responses = {key: make_triplets(rng, data.ids)
                 for key, data in clients.items()}
    s = parse_strategy("sc2-FedIRT").with_overrides(
        rounds=2, batch_size=4, local_iters=2)
    ctx = RunContext(strategy=s, master_seed=13, rep=0, fold=0,
                     init_params=init_params(rng), clients=clients,
                     course_pools=pools, irt_responses=responses)
    models, _ = train_strategy(ctx)
    assert set(models) == ({GLOBAL_MODEL} | names(*clients)
                           | names(GroupKey("c0"), GroupKey("c1")))
    course_weights = [w for w in seen if not next(iter(w)).is_course_level]
    assert len(course_weights) == 4     # two courses, two rounds
    for conf in course_weights:
        assert len({key.course for key in conf}) == 1
        assert abs(sum(conf.values()) - 1.0) <= 1e-12
    assert {key for conf in course_weights for key in conf} == set(clients)


# ---------------------------------------------------------------------------
# Training losses and the update table
# ---------------------------------------------------------------------------

# each round's training loss, as float.hex; these bits are report.json's
# train_loss, so a change that moves them moves every trained report
LOSS_BITS = {
    # P: meta-update losses of every leaf, then both course restarts
    "sc2-P-AT-B": ["0x1.1c7de76f6299cp+7", "0x1.da0205d699086p+6"],
    "sc2-FedIRT": ["0x1.38f1cba301ae6p+6", "0x1.29f5afe36d83bp+6"],
    "sc2-G-AV-T": ["0x1.38f1cba301ae6p+6", "0x1.1b027086c81afp+6"],
    "sc1-G": ["0x1.e0f56decf1e97p+4", "0x1.0df7cd1cb7473p+5"],   # epochs
}


def loss_context(name, **overrides):
    """Two rounds (or epochs) of a strategy over two_level_world, or over
    one nine-student client for scenario I; batches of two students."""
    rng = np.random.default_rng(31)
    if name.startswith("sc1"):
        clients, pools = {GroupKey("c0"): make_client(rng, n=9)}, {}
    else:
        clients, pools = two_level_world(rng)
    responses = {key: make_triplets(rng, data.ids)
                 for key, data in clients.items()}
    s = parse_strategy(name).with_overrides(
        **{"rounds": 2, "epochs": 2, "batch_size": 2, "local_iters": 4,
           "per_group": 2, **overrides})
    return RunContext(strategy=s, master_seed=17, rep=0, fold=0,
                      init_params=init_params(rng), clients=clients,
                      course_pools=pools, irt_responses=responses,
                      scored=clients)


@pytest.mark.parametrize("name", sorted(LOSS_BITS))
def test_each_rounds_training_loss_keeps_its_bits(name):
    _, losses = train_strategy(loss_context(name))
    assert [loss.hex() for loss in losses] == LOSS_BITS[name]


def record_updates(monkeypatch):
    """Patch the engine's update loop to log (data, pairs, beta) per call."""
    calls = []

    def recording(data, params, pairs, eta, beta, clip):
        calls.append((data, list(pairs), beta))
        return apply_updates(data, params, pairs, eta, beta, clip)

    monkeypatch.setattr("hierfed.fed.engine.apply_updates", recording)
    return calls


def update_table(calls, ctx):
    """Each call as (whose data, number of pairs, beta)."""
    names = {id(data): str(key) for key, data in ctx.clients.items()}
    names.update({id(data): f"pool {c}" for c, data in ctx.course_pools.items()})
    return [(names[id(data)], len(pairs), beta) for data, pairs, beta in calls]


def test_every_adaptation_is_one_update_loop_call(monkeypatch):
    # the adaptation rules as data: a P leaf meta-updates E times at the
    # inner step, but its course restarts with one plain step, its
    # evaluation course model is one meta pair, and its evaluation subgroup
    # model is one plain epoch
    calls = record_updates(monkeypatch)
    ctx = loss_context("sc2-P-AT-B", rounds=1)
    s = ctx.strategy
    leaves = [str(k) for k in sorted(ctx.clients, key=GroupKey.sort_key)]
    models, _ = train_strategy(ctx)
    assert update_table(calls, ctx) == (
        [(leaf, s.local_iters, s.inner_step) for leaf in leaves]
        + [("pool c0", 1, 0.0), ("pool c1", 1, 0.0)])
    for _, pairs, _ in calls[len(leaves):]:
        ((d, d_prime),) = pairs
        assert d == d_prime and len(d) == 2 * s.per_group

    calls.clear()
    adapted_params(models, ctx, ("test",))
    epoch = -(-5 // s.batch_size)
    assert update_table(calls, ctx) == (
        [("pool c0", 1, s.inner_step), ("pool c1", 1, s.inner_step)]
        + [(leaf, epoch, 0.0) for leaf in leaves])


@pytest.mark.parametrize("name,steps", [("sc2-G-AV-T", 4), ("sc1-G", 5)])
def test_sgd_leaves_update_at_zero_adaptation(monkeypatch, name, steps):
    # G leaves take E = 4 plain steps; a centralized epoch is ceil(9 / 2)
    calls = record_updates(monkeypatch)
    ctx = loss_context(name, rounds=1, epochs=1)
    train_strategy(ctx)
    assert update_table(calls, ctx) == [
        (str(key), steps, 0.0)
        for key in sorted(ctx.clients, key=GroupKey.sort_key)]
    assert all(d == d_prime for _, pairs, _ in calls for d, d_prime in pairs)


# ---------------------------------------------------------------------------
# Failure reporting
# ---------------------------------------------------------------------------

def poisoned_init(rng):
    init = init_params(rng)
    init["lstm.W"][0, 0] = np.inf  # simulate a diverged layer
    return init


def test_federated_divergence_names_the_round_and_client():
    rng = np.random.default_rng(12)
    data = make_client(rng)
    s = parse_strategy("sc1-G-AT").with_overrides(rounds=2, batch_size=4)
    ctx = RunContext(strategy=s, master_seed=1, rep=3, fold=2,
                     init_params=poisoned_init(rng),
                     clients={GroupKey("c0"): data})
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericsError,
                           match=r"^fold 2, rep 3, round 0, client .*c0.*: "
                                 r"non-finite"):
            train_strategy(ctx)


def test_centralized_divergence_names_the_epoch():
    rng = np.random.default_rng(13)
    data = make_client(rng)
    s = parse_strategy("sc1-G").with_overrides(epochs=2, batch_size=4)
    ctx = RunContext(strategy=s, master_seed=1, rep=1, fold=4,
                     init_params=poisoned_init(rng),
                     clients={GroupKey("c0"): data})
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericsError,
                           match=r"^fold 4, rep 1, epoch 0, client .*: "
                                 r"non-finite"):
            train_strategy(ctx)


def test_local_divergence_names_the_epoch_and_client():
    rng = np.random.default_rng(14)
    data = make_client(rng)
    s = parse_strategy("sc2-L").with_overrides(epochs=2, batch_size=4)
    key = GroupKey("c0", "gender", "F")
    ctx = RunContext(strategy=s, master_seed=1, rep=2, fold=1,
                     init_params=poisoned_init(rng), clients={key: data})
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericsError,
                           match=r"^fold 1, rep 2, epoch 0, client .*c0.*: "
                                 r"non-finite"):
            train_strategy(ctx)


def nan_average(layers):
    """An aggregate that diverged in the given layers (every layer when
    None): the average with NaN added there."""
    def diverged(models, weights):
        return {name: arr + np.nan if layers is None or name in layers else arr
                for name, arr in aggregate_average(models, weights).items()}
    return diverged


@pytest.mark.parametrize("name,where,layers,bad", [
    pytest.param("sc2-G-AV-T", "round 0, course c0 aggregation", None,
                 "lstm.W", id="sc2-G-AV-T-round 0, course c0 aggregation"),
    pytest.param("sc1-G-AV", "round 0, global aggregation", None, "lstm.W",
                 id="sc1-G-AV-round 0, global aggregation"),
    # only later layers diverged: the first of them in layer order is named
    pytest.param("sc1-G-AV", "round 0, global aggregation", ("out.b",),
                 "out.b", id="sc1-G-AV-out.b"),
    pytest.param("sc2-G-AV-T", "round 0, course c0 aggregation",
                 ("out.b", "lstm.b"), "lstm.b", id="sc2-G-AV-T-lstm.b"),
])
def test_aggregation_divergence_names_fold_rep_and_level(monkeypatch, name,
                                                         where, layers, bad):
    rng = np.random.default_rng(15)
    clients, pools = two_level_world(rng)
    if name.startswith("sc1"):  # the courses are the clients
        clients, pools = {GroupKey(c): data for c, data in pools.items()}, {}
    monkeypatch.setattr("hierfed.fed.engine.aggregate_average",
                        nan_average(layers))
    s = parse_strategy(name).with_overrides(rounds=2, batch_size=4,
                                            local_iters=1)
    ctx = RunContext(strategy=s, master_seed=1, rep=1, fold=3,
                     init_params=init_params(rng), clients=clients,
                     course_pools=pools)
    with pytest.raises(NumericsError,
                       match=rf"^fold 3, rep 1, {where}: non-finite "
                             rf"parameters in layer '{bad}'$"):
        train_strategy(ctx)


def test_training_course_adaptation_divergence_names_fold_rep_and_course():
    rng = np.random.default_rng(16)
    clients, pools = two_level_world(rng)

    def diverged(ids, params):
        raise NumericsError(f"non-finite loss on batch of {len(ids)} students")

    pools["c1"].loss_grad = diverged
    s = parse_strategy("sc2-P-AT-B").with_overrides(
        rounds=2, batch_size=4, local_iters=1, per_group=2)
    ctx = RunContext(strategy=s, master_seed=1, rep=4, fold=2,
                     init_params=init_params(rng), clients=clients,
                     course_pools=pools)
    with pytest.raises(NumericsError,
                       match=r"^fold 2, rep 4, round 0, course adaptation c1: "
                             r"non-finite loss"):
        train_strategy(ctx)


# ---------------------------------------------------------------------------
# Evaluation-time adaptation
# ---------------------------------------------------------------------------

def scaled(params, factor):
    return axpy_params(factor, params, params)


def eval_world(rng):
    clients, pools = two_level_world(rng)
    gp = init_params(rng)
    course_models = {GroupKey(c): scaled(gp, 0.01 * (i + 1))
                     for i, c in enumerate(("c0", "c1"))}
    sub_models = {key: scaled(gp, 0.1) for key in clients}
    return clients, pools, gp, course_models, sub_models


def test_global_strategies_reuse_the_stored_models_verbatim():
    rng = np.random.default_rng(20)
    clients, pools, gp, course_models, _ = eval_world(rng)
    keys = sorted(clients, key=GroupKey.sort_key)
    models = model_map(gp, course_models)

    top = parse_strategy("sc2-G-AT-T")
    ctx = RunContext(strategy=top, master_seed=1, rep=0, fold=0,
                     clients=clients, course_pools=pools, scored=clients)
    out = adapted_params(models, ctx, ("test",))
    assert all(out[key] is gp for key in keys)

    mid = parse_strategy("sc2-G-AT-M")
    ctx = RunContext(strategy=mid, master_seed=1, rep=0, fold=0,
                     clients=clients, course_pools=pools, scored=clients)
    out = adapted_params(models, ctx, ("test",))
    assert all(out[key] is course_models[key.course_key()] for key in keys)


def test_local_strategies_look_up_stored_models_or_none(caplog):
    rng = np.random.default_rng(21)
    clients, _, _, _, sub_models = eval_world(rng)
    keys = sorted(clients, key=GroupKey.sort_key)
    missing = keys[-1]
    stored = {k: v for k, v in sub_models.items() if k != missing}
    models = model_map(models=stored)
    s = parse_strategy("sc2-L")
    ctx = RunContext(strategy=s, master_seed=1, rep=0, fold=0,
                     clients=clients, scored=clients)
    out = adapted_params(models, ctx, ("test",))
    assert all(out[key] is stored[key] for key in keys[:-1])
    assert out[missing] is None

    with caplog.at_level(logging.WARNING, logger="hierfed.fed.engine"):
        scores = evaluate_adapted(models, ctx, ("test",))
    assert list(scores) == [key.label() for key in keys]
    assert scores[missing.label()] is None
    assert any("no trained model" in r.message for r in caplog.records)
    assert all(0.0 <= scores[key.label()] <= 1.0 for key in keys[:-1])


def test_course_personalization_adapts_only_where_data_exists():
    rng = np.random.default_rng(22)
    gp = init_params(rng)
    data = make_client(rng, n=6)
    models = model_map(gp)
    s = parse_strategy("sc1-P-AT").with_overrides(batch_size=4)
    ctx = RunContext(strategy=s, master_seed=3, rep=0, fold=0,
                     clients={GroupKey("c0"): data},
                     scored={GroupKey("c0"): empty_client(),
                             GroupKey("c1"): empty_client()})
    out = adapted_params(models, ctx, ("test",))
    assert out[GroupKey("c1")] is gp
    assert max_param_diff(out[GroupKey("c0")], gp) > 0.0

    again = adapted_params(models, ctx, ("test",))
    assert params_equal(out[GroupKey("c0")], again[GroupKey("c0")])


def test_two_level_personalization_shares_course_models_and_b_refines():
    rng = np.random.default_rng(23)
    clients, pools, gp, _, _ = eval_world(rng)
    keys = sorted(clients, key=GroupKey.sort_key)
    models = model_map(gp)

    def eval_ctx(name):
        s = parse_strategy(name).with_overrides(batch_size=4, per_group=2)
        return RunContext(strategy=s, master_seed=3, rep=0, fold=0,
                          clients=clients, course_pools=pools, scored=clients)

    mid = adapted_params(models, eval_ctx("sc2-P-AT-M"), ("test",))
    c0_keys = [k for k in keys if k.course == "c0"]
    assert mid[c0_keys[0]] is mid[c0_keys[1]]       # M stops at the course model
    assert max_param_diff(mid[c0_keys[0]], gp) > 0.0

    bottom = adapted_params(models, eval_ctx("sc2-P-AT-B"), ("test",))
    for key in keys:
        assert max_param_diff(bottom[key], mid[key]) > 0.0


def nan_params(rng):
    params = init_params(rng)
    params["lstm.W"][0, 0] = np.nan  # a diverged P global
    return params


def test_course_adaptation_divergence_names_fold_rep_tag_and_client():
    rng = np.random.default_rng(26)
    clients, pools, _, _, _ = eval_world(rng)
    models = model_map(nan_params(rng))
    s = parse_strategy("sc2-P-AT-B").with_overrides(batch_size=4, per_group=2)
    ctx = RunContext(strategy=s, master_seed=3, rep=2, fold=1,
                     clients=clients, course_pools=pools, scored=clients)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericsError,
                           match=r"^fold 1, rep 2, val 4 course adaptation, "
                                 r"client .*c0.*: non-finite loss"):
            adapted_params(models, ctx, ("val", 4))


def test_evaluation_epoch_divergence_names_fold_rep_tag_and_client():
    rng = np.random.default_rng(27)
    data = make_client(rng, n=6)
    models = model_map(nan_params(rng))
    s = parse_strategy("sc1-P-AT").with_overrides(batch_size=4)
    key = GroupKey("c1")
    ctx = RunContext(strategy=s, master_seed=3, rep=0, fold=3,
                     clients={key: data},
                     scored={key: empty_client()})
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericsError,
                           match=r"^fold 3, rep 0, test adaptation, "
                                 r"client .*c1.*: non-finite loss"):
            adapted_params(models, ctx, ("test",))


def test_evaluation_skips_groups_without_usable_auc(caplog):
    rng = np.random.default_rng(24)
    gp = init_params(rng)
    good = make_client(rng, n=6, prefix="g")
    sids = ["p00", "p01"]
    all_correct = {sid: kt_entry([(0, 1), (0, 2), (0, 3)], [1, 1, 1], VOCAB)
                   for sid in sids}
    single_class = build_client_data(
        KT, Encoding(VOCAB.kt_input_dim, all_correct), sids)
    k_good, k_flat, k_empty = (GroupKey("c0"), GroupKey("c1"),
                               GroupKey("c1", "gender", "F"))
    models = model_map(gp)
    s = parse_strategy("sc2-G-AT-T")
    ctx = RunContext(strategy=s, master_seed=1, rep=0, fold=0,
                     scored={k_good: good, k_flat: single_class,
                             k_empty: empty_client()})
    with caplog.at_level(logging.WARNING, logger="hierfed.fed.engine"):
        scores = evaluate_adapted(models, ctx, ("test",))
    assert 0.0 <= scores[k_good.label()] <= 1.0
    assert scores[k_flat.label()] is None       # one-class labels have no AUC
    assert scores[k_empty.label()] is None      # no test students at all
    assert any("no test students" in r.message for r in caplog.records)
    caplog.clear()  # scoring the validation split names that split
    with caplog.at_level(logging.WARNING, logger="hierfed.fed.engine"):
        assert evaluate_adapted(models, ctx, ("val", 0))[k_empty.label()] is None
    messages = [r.message for r in caplog.records]
    assert any("no val students" in m for m in messages)
    assert not any("no test students" in m for m in messages)


def test_a_group_with_no_scored_steps_has_no_auc():
    # a student with one quiz response has no scored step, so this group
    # has students but an empty scored set
    rng = np.random.default_rng(28)
    sids = ["q00", "q01"]
    one_response = {sid: kt_entry([(0, 1)], [1], VOCAB) for sid in sids}
    key = GroupKey("c0")
    ctx = RunContext(strategy=parse_strategy("sc1-G"), master_seed=1, rep=0,
                     fold=0,
                     scored={key: build_client_data(
                         KT, Encoding(VOCAB.kt_input_dim, one_response), sids)})
    models = model_map(init_params(rng))
    assert ctx.scored[key].size == 2
    assert evaluate_adapted(models, ctx, ("test",)) == {key.label(): None}


def test_fedirt_evaluation_uses_the_local_models():
    rng = np.random.default_rng(25)
    clients, _, gp, _, sub_models = eval_world(rng)
    keys = sorted(clients, key=GroupKey.sort_key)
    models = model_map(gp, sub_models)
    s = parse_strategy("sc2-FedIRT")
    ctx = RunContext(strategy=s, master_seed=1, rep=0, fold=0,
                     clients=clients, scored=clients)
    out = adapted_params(models, ctx, ("test",))
    assert all(out[key] is sub_models[key] for key in keys)
