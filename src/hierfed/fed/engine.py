"""Training orchestration for every strategy, plus evaluation-time adaptation.

One round engine, `train_strategy`, trains every strategy over the
course -> client tree. Clients are the leaves: courses in scenario I,
demographic subgroups in scenario II, and one pooled client for centralized
runs. Strategies differ in three rules, all read from the StrategyConfig:

- where a client starts: its own previous model (local and centralized
  runs), the IRT blend of its own previous model and its course (FedIRT),
  or its course's start model (all others);
- how it updates: one epoch (non-federated), E SGD steps (G and FedIRT), or
  E meta-updates (P);
- how a course aggregates its clients: AV/AT, IRT confidences, or not at
  all when the run is not federated.

The engine is a pure function of (context, master seed): every random draw
comes from a named substream keyed by repetition, fold, the client's data
fingerprint, and the round index. Keying client streams by data fingerprint
(not group identity) makes a degenerate two-level hierarchy reproduce the
one-level run bitwise, and makes results independent of worker scheduling.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from ..data.sampling import stratified_batch
from ..errors import NumericsError
from ..keys import GroupKey
from ..metrics import auc
from ..nn.params import ParamSet, axpy_params, clip_grad_norm
from ..seeding import substream
from .aggregate import aggregate_attention, aggregate_average
from .clients import ClientData, local_sgd_steps, meta_batches, meta_update
from .irt import irt_confidence, irt_interpolate
from .strategy import StrategyConfig

logger = logging.getLogger(__name__)


@dataclass
class TrainedBundle:
    """Models produced by one training run.

    models maps each trained client and each course aggregate to its
    parameters; key.is_course_level tells the two levels apart. The global
    model, for strategies that have one, is kept apart.
    """
    global_params: ParamSet | None = None
    models: dict = field(default_factory=dict)   # GroupKey -> params
    history: list = field(default_factory=list)


@dataclass
class RunContext:
    """One (fold, repetition) run over the course -> client tree.

    Training reads the clients (the tree's leaves), the course pools
    (scenario II federated runs) and the IRT responses (FedIRT);
    evaluation reads the same tree, adapts from the clients' data and
    scores one split, keyed at the run's evaluation granularity.
    """
    strategy: StrategyConfig
    master_seed: int
    rep: int
    fold: int
    init_params: ParamSet | None = None
    clients: dict = field(default_factory=dict)       # GroupKey -> ClientData
    course_pools: dict = field(default_factory=dict)  # course id -> ClientData
    irt_responses: dict = field(default_factory=dict) # GroupKey -> triplets
    scored: dict = field(default_factory=dict)        # GroupKey -> ClientData


def _client_rng(ctx: RunContext, fingerprint: str, round_idx: int):
    return substream(ctx.master_seed, "client", str(ctx.rep), str(ctx.fold),
                     fingerprint, str(round_idx))


def _where(ctx: RunContext, what: str) -> str:
    """Where in the run a numerical failure happened: fold, rep, then what."""
    return f"fold {ctx.fold}, rep {ctx.rep}, {what}"


def _check_finite(params: ParamSet, where: str):
    bad = params.first_nonfinite_layer()
    if bad is not None:
        raise NumericsError(f"{where}: non-finite parameters in layer {bad!r}")


def _located(where: str, update) -> ParamSet:
    """update(), with a numerical failure inside it or a non-finite result
    reported at where."""
    try:
        params = update()
    except NumericsError as exc:
        raise NumericsError(f"{where}: {exc}") from None
    _check_finite(params, where)
    return params


def _meta_updates(s: StrategyConfig) -> bool:
    """P clients meta-update; FedIRT clients take plain SGD steps."""
    return s.architecture == "P" and s.aggregation != "IRT"


def _epoch_steps(data: ClientData, s: StrategyConfig) -> int:
    """SGD steps in one shuffled pass over the client's students."""
    return -(-data.size // s.batch_size)


def _update_client(ctx: RunContext, key: GroupKey, start: ParamSet,
                   round_idx: int, stats: dict) -> ParamSet:
    s = ctx.strategy
    data = ctx.clients[key]
    rng = _client_rng(ctx, data.fingerprint, round_idx)
    where = _where(ctx, f"{'round' if s.is_federated else 'epoch'} "
                        f"{round_idx}, client {key}")

    def update():
        if _meta_updates(s):
            params = start
            for _ in range(s.local_iters):
                params = meta_update(data, params,
                                     meta_batches(data, s.batch_size, rng),
                                     s.eta, s.inner_step, s.clip, stats)
            return params
        n_steps = s.local_iters if s.is_federated else _epoch_steps(data, s)
        return local_sgd_steps(data, start, s.eta, s.batch_size, rng, n_steps,
                               s.clip, stats)

    return _located(where, update)


def _size_weights(data: dict) -> dict:
    """Each client's share of the students: a size-weighted mean's weights."""
    total = float(sum(d.size for d in data.values()))
    return {key: d.size / total for key, d in data.items()}


def _aggregate(server: ParamSet, models: dict, s: StrategyConfig,
               weights: dict) -> ParamSet:
    if s.aggregation == "AT":
        return aggregate_attention(server, models, s.eps, s.attention_mode)
    return aggregate_average(models, weights)


def _course_adapt(ctx: RunContext, course: str, subs, theta_g: ParamSet,
                  round_idx: int, stats: dict) -> ParamSet:
    """One plain gradient step on a stratified cross-subgroup batch."""
    s = ctx.strategy
    rng = substream(ctx.master_seed, "course-adapt", str(ctx.rep),
                    str(ctx.fold), course, str(round_idx))
    groups = {key: ctx.clients[key].ids for key in subs}
    batch = stratified_batch(groups, s.per_group, rng)

    def update():
        loss, grads = ctx.course_pools[course].loss_grad(batch, theta_g)
        stats["loss"] = stats.get("loss", 0.0) + loss
        return axpy_params(-s.eta, clip_grad_norm(grads, s.clip), theta_g)

    return _located(_where(ctx, f"round {round_idx}, course adaptation {course}"),
                    update)


def _warn_small_meta_clients(ctx: RunContext, leaves):
    s = ctx.strategy
    for key in leaves:
        n = ctx.clients[key].size
        if n < 2 * s.batch_size:
            logger.warning("fold %d, rep %d: client %s has %d students "
                           "(< 2 batches of %d); meta-update reuses one batch",
                           ctx.fold, ctx.rep, key, n, s.batch_size)


def train_strategy(ctx: RunContext, callback=None) -> TrainedBundle:
    """Train the context's strategy, calling callback(round, bundle) after
    every round (epoch, for non-federated strategies).

    Hierarchy rules: a course aggregates its subgroup clients even when it
    has only one, while scenario I clients are the courses themselves and
    skip that level. The global aggregates the courses, except that a
    single scenario II course aggregate passes through. P courses restart
    from a course adaptation of the global only when they have two or more
    subgroups. FedIRT courses restart from their own confidence blend, so
    its global is only reported.
    """
    s = ctx.strategy
    leaves = sorted(ctx.clients, key=GroupKey.sort_key)
    courses: dict = {}
    for key in leaves:
        courses.setdefault(key.course, []).append(key)
    course_aggregates = s.is_federated and not leaves[0].is_course_level
    confidence = None
    if s.aggregation == "IRT":
        confidence = {}
        for keys in courses.values():
            confidence.update(irt_confidence(
                {key: ctx.irt_responses.get(key, []) for key in keys}))
    if _meta_updates(s):
        _warn_small_meta_clients(ctx, leaves)

    theta_g = ctx.init_params
    start = {c: ctx.init_params for c in courses}
    models = {key: ctx.init_params for key in leaves}
    history: list = []
    bundle = TrainedBundle()
    for k in range(s.rounds if s.is_federated else s.epochs):
        stats: dict = {}
        previous, models = models, {}
        for c, keys in courses.items():
            for key in keys:
                if not s.is_federated:
                    begin = previous[key]
                elif s.aggregation == "IRT":
                    begin = irt_interpolate(previous[key], start[c])
                else:
                    begin = start[c]
                models[key] = _update_client(ctx, key, begin, k, stats)
            if course_aggregates:
                weights = confidence or _size_weights(
                    {key: ctx.clients[key] for key in keys})
                models[GroupKey(c)] = _aggregate(
                    start[c], {key: models[key] for key in keys}, s, weights)
                _check_finite(models[GroupKey(c)],
                              _where(ctx, f"round {k}, course {c} aggregation"))

        if s.is_federated:
            if course_aggregates and len(courses) == 1:
                (only,) = courses
                theta_g = models[GroupKey(only)]
            else:
                pools = {GroupKey(c): ctx.course_pools[c] if course_aggregates
                         else ctx.clients[GroupKey(c)] for c in courses}
                theta_g = _aggregate(theta_g, {key: models[key] for key in pools},
                                     s, _size_weights(pools))
            _check_finite(theta_g, _where(ctx, f"round {k}, global aggregation"))
            for c, keys in courses.items():
                if _meta_updates(s) and len(keys) >= 2:
                    start[c] = _course_adapt(ctx, c, keys, theta_g, k, stats)
                elif s.aggregation == "IRT":
                    start[c] = models[GroupKey(c)]
                else:
                    start[c] = theta_g

        history.append({"round": k, "loss": stats.get("loss", 0.0),
                        "steps": stats.get("steps", 0)})
        if s.is_centralized:
            bundle = TrainedBundle(global_params=models[leaves[0]],
                                   history=list(history))
        else:
            bundle = TrainedBundle(
                models=models, history=list(history),
                global_params=theta_g if s.is_federated else None)
        if callback is not None:
            callback(k, bundle)
    if confidence is not None:
        bundle.history[-1] = dict(bundle.history[-1], confidence={
            key.label(): confidence[key] for key in leaves})
    return bundle


# ---------------------------------------------------------------------------
# Evaluation-time adaptation and scoring
# ---------------------------------------------------------------------------

def _eval_rng(ctx: RunContext, tag, *parts):
    return substream(ctx.master_seed, "eval", *tag, str(ctx.rep),
                     str(ctx.fold), *parts)


def _eval_where(ctx: RunContext, tag, what: str) -> str:
    return _where(ctx, f"{' '.join(tag)} {what}")


def _adapt_courses(bundle: TrainedBundle, ctx: RunContext, tag) -> dict:
    """One stratified meta-update from the global to each course model."""
    s = ctx.strategy
    out = {}
    for course in sorted(ctx.course_pools):
        groups = {key: data.ids for key, data in ctx.clients.items()
                  if key.course == course}
        if not groups:
            out[course] = bundle.global_params
            continue
        rng = _eval_rng(ctx, tag, "course", course)
        d = stratified_batch(groups, s.per_group, rng)
        d_prime = stratified_batch(groups, s.per_group, rng)
        out[course] = _located(
            _eval_where(ctx, tag, f"course adaptation, client {GroupKey(course)}"),
            lambda: meta_update(ctx.course_pools[course], bundle.global_params,
                                (d, d_prime), s.eta, s.inner_step, s.clip))
    return out


def adapted_params(bundle: TrainedBundle, ctx: RunContext,
                   tag=("test",)) -> dict:
    """The parameters each scored group would be scored with.

    Local and FedIRT runs score each group with its own stored model; G
    runs with the global, or under M with the group's course model. P runs
    form course models with one stratified meta-update from the global
    (scenario II only) and, except under M, add one local epoch on each
    group's training client. Groups with no usable model map to None.
    """
    s = ctx.strategy
    groups = sorted(ctx.scored, key=GroupKey.sort_key)
    if s.architecture == "L" or s.aggregation == "IRT":
        return {key: bundle.models.get(key) for key in groups}
    if s.architecture == "G":
        if s.hierarchy == "M":
            return {key: bundle.models.get(key.course_key(), bundle.global_params)
                    for key in groups}
        return {key: bundle.global_params for key in groups}

    tag = tuple(str(t) for t in tag)
    course_models = _adapt_courses(bundle, ctx, tag)
    out: dict[GroupKey, ParamSet] = {}
    for key in groups:
        params = course_models.get(key.course, bundle.global_params)
        data = ctx.clients.get(key)
        if s.hierarchy != "M" and data is not None:
            rng = _eval_rng(ctx, tag, "adapt", data.fingerprint)
            params = _located(
                _eval_where(ctx, tag, f"adaptation, client {key}"),
                lambda: local_sgd_steps(data, params, s.eta, s.batch_size, rng,
                                        _epoch_steps(data, s), s.clip))
        out[key] = params
    return out


def evaluate_adapted(bundle: TrainedBundle, ctx: RunContext,
                     tag=("test",)) -> dict:
    """Per-group AUC on the scored split after the strategy's
    evaluation-time adaptation.

    Undefined AUCs (single-class or empty scored sets, or a group with no
    trained model) surface as None rather than a placeholder number.
    """
    out: dict[GroupKey, float | None] = {}
    for key, params in adapted_params(bundle, ctx, tag).items():
        data = ctx.scored[key]
        out[key] = None
        if params is None:
            logger.warning("no trained model for %s; skipped", key)
        elif data.size == 0:
            logger.warning("no test students for %s; skipped", key)
        else:
            out[key] = auc(*data.predict(params))
    return out
