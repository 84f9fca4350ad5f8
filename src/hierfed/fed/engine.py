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
from .clients import (
    ClientData,
    ClientState,
    local_sgd_steps,
    meta_update,
)
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
    strategy: str
    global_params: ParamSet | None = None
    models: dict = field(default_factory=dict)   # GroupKey -> params
    history: list = field(default_factory=list)


@dataclass
class EngineContext:
    """Everything train_strategy needs for one (fold, repetition) run."""
    strategy: StrategyConfig
    master_seed: int
    rep: int
    fold: int
    init_params: ParamSet
    clients: dict = field(default_factory=dict)       # GroupKey -> ClientData
    course_pools: dict = field(default_factory=dict)  # course id -> ClientData
    subgroup_ids: dict = field(default_factory=dict)  # GroupKey -> usable ids
    irt_responses: dict = field(default_factory=dict) # GroupKey -> triplets


def _client_rng(ctx: EngineContext, fingerprint: str, round_idx: int):
    return substream(ctx.master_seed, "client", str(ctx.rep), str(ctx.fold),
                     fingerprint, str(round_idx))


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


def _update_client(ctx: EngineContext, key: GroupKey, start: ParamSet,
                   round_idx: int, stats: dict) -> ParamSet:
    s = ctx.strategy
    data = ctx.clients[key]
    rng = _client_rng(ctx, data.fingerprint, round_idx)
    where = f"{'round' if s.is_federated else 'epoch'} {round_idx}, client {key}"

    def update():
        if _meta_updates(s):
            params = start
            for _ in range(s.local_iters):
                client = ClientState(key, params, data)
                params = meta_update(client, s.eta, s.inner_step, rng,
                                     s.batch_size, s.clip, stats=stats)
            return params
        n_steps = s.local_iters if s.is_federated else _epoch_steps(data, s)
        return local_sgd_steps(ClientState(key, start, data), s.eta,
                               s.batch_size, rng, n_steps, s.clip, stats=stats)

    return _located(where, update)


def _aggregate(server: ParamSet, states, s: StrategyConfig,
               weights: dict | None = None) -> ParamSet:
    if s.aggregation == "AT":
        return aggregate_attention(server, states, s.eps, s.attention_mode)
    return aggregate_average(states, weights)


def _course_adapt(ctx: EngineContext, course: str, subs, theta_g: ParamSet,
                  round_idx: int, stats: dict) -> ParamSet:
    """One plain gradient step on a stratified cross-subgroup batch."""
    s = ctx.strategy
    rng = substream(ctx.master_seed, "course-adapt", str(ctx.rep),
                    str(ctx.fold), course, str(round_idx))
    groups = {key: ctx.subgroup_ids[key] for key in subs}
    batch = stratified_batch(groups, s.per_group, rng)

    def update():
        loss, grads = ctx.course_pools[course].loss_grad(batch, theta_g)
        stats["loss"] = stats.get("loss", 0.0) + loss
        return axpy_params(-s.eta, clip_grad_norm(grads, s.clip), theta_g)

    return _located(f"round {round_idx}, course adaptation {course}", update)


def _warn_small_meta_clients(ctx: EngineContext, leaves):
    s = ctx.strategy
    for key in leaves:
        n = ctx.clients[key].size
        if n < 2 * s.batch_size:
            logger.warning("fold %d, rep %d: client %s has %d students "
                           "(< 2 batches of %d); meta-update reuses one batch",
                           ctx.fold, ctx.rep, key, n, s.batch_size)


def train_strategy(ctx: EngineContext, callback=None) -> TrainedBundle:
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
    bundle = TrainedBundle(strategy=s.name)
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
                states = [ClientState(key, models[key], ctx.clients[key])
                          for key in keys]
                models[GroupKey(c)] = _aggregate(start[c], states, s, confidence)
                _check_finite(models[GroupKey(c)],
                              f"round {k}, course {c} aggregation")

        if s.is_federated:
            if course_aggregates and len(courses) == 1:
                (only,) = courses
                theta_g = models[GroupKey(only)]
            else:
                theta_g = _aggregate(theta_g, [
                    ClientState(GroupKey(c), models[GroupKey(c)],
                                ctx.course_pools[c] if course_aggregates
                                else ctx.clients[GroupKey(c)])
                    for c in courses], s)
            _check_finite(theta_g, f"round {k}, global aggregation")
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
            bundle = TrainedBundle(strategy=s.name,
                                   global_params=models[leaves[0]],
                                   history=list(history))
        else:
            bundle = TrainedBundle(
                strategy=s.name, models=models, history=list(history),
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

@dataclass
class EvalContext:
    """Evaluation data at the run's granularity (courses or subgroups)."""
    strategy: StrategyConfig
    master_seed: int
    rep: int
    fold: int
    groups: list = field(default_factory=list)        # eval GroupKeys
    test: dict = field(default_factory=dict)          # key -> ClientData
    adapt: dict = field(default_factory=dict)         # key -> train ClientData
    course_pools: dict = field(default_factory=dict)  # course -> ClientData
    subgroup_ids: dict = field(default_factory=dict)  # key -> usable train ids


def _eval_rng(ectx: EvalContext, tag, *parts):
    return substream(ectx.master_seed, "eval", *tag, str(ectx.rep),
                     str(ectx.fold), *parts)


def _eval_where(ectx: EvalContext, tag, what: str) -> str:
    return f"fold {ectx.fold}, rep {ectx.rep}, {' '.join(tag)} {what}"


def _score(data: ClientData | None, params: ParamSet, key: GroupKey):
    if data is None or data.size == 0:
        logger.warning("no test students for %s; skipped", key)
        return None
    scores, labels = data.predict(params)
    return auc(scores, labels)


def _adapt_courses(bundle: TrainedBundle, ectx: EvalContext, tag) -> dict:
    """One stratified meta-update from the global to each course model."""
    s = ectx.strategy
    out = {}
    for course in sorted(ectx.course_pools):
        pool = ectx.course_pools[course]
        groups = {key: ectx.subgroup_ids[key]
                  for key in ectx.subgroup_ids if key.course == course}
        groups = {key: ids for key, ids in groups.items() if ids}
        if pool.size == 0 or not groups:
            out[course] = bundle.global_params
            continue
        rng = _eval_rng(ectx, tag, "course", course)
        d = stratified_batch(groups, s.per_group, rng)
        d_prime = stratified_batch(groups, s.per_group, rng)
        client = ClientState(GroupKey(course), bundle.global_params, pool)
        out[course] = _located(
            _eval_where(ectx, tag, f"course adaptation, client {client.key}"),
            lambda: meta_update(client, s.eta, s.inner_step,
                                batch_size=s.batch_size, clip=s.clip,
                                batches=(d, d_prime)))
    return out


def adapted_params(bundle: TrainedBundle, ectx: EvalContext,
                   tag=("test",)) -> dict:
    """The parameters each evaluation group would be scored with.

    Local and FedIRT runs score each group with its own stored model; G
    runs with the global, or under M with the group's course model. P runs
    form course models with one stratified meta-update from the global
    (scenario II only) and, except under M, add one local epoch per group.
    Groups with no usable model map to None.
    """
    s = ectx.strategy
    if s.architecture == "L" or s.aggregation == "IRT":
        return {key: bundle.models.get(key) for key in ectx.groups}
    if s.architecture == "G":
        if s.hierarchy == "M":
            return {key: bundle.models.get(key.course_key(), bundle.global_params)
                    for key in ectx.groups}
        return {key: bundle.global_params for key in ectx.groups}

    tag = tuple(str(t) for t in tag)
    course_models = _adapt_courses(bundle, ectx, tag)
    out: dict[GroupKey, ParamSet] = {}
    for key in ectx.groups:
        params = course_models.get(key.course, bundle.global_params)
        data = ectx.adapt.get(key)
        if s.hierarchy != "M" and data is not None and data.size > 0:
            rng = _eval_rng(ectx, tag, "adapt", data.fingerprint)
            client = ClientState(key, params, data)
            params = _located(
                _eval_where(ectx, tag, f"adaptation, client {key}"),
                lambda: local_sgd_steps(client, s.eta, s.batch_size, rng,
                                        _epoch_steps(data, s), s.clip))
        out[key] = params
    return out


def evaluate_adapted(bundle: TrainedBundle, ectx: EvalContext,
                     tag=("test",)) -> dict:
    """Per-group test AUC after the strategy's evaluation-time adaptation.

    Undefined AUCs (single-class or empty test sets, or a group with no
    trained model) surface as None rather than a placeholder number.
    """
    params_map = adapted_params(bundle, ectx, tag)
    out: dict[GroupKey, float | None] = {}
    for key in ectx.groups:
        params = params_map.get(key)
        if params is None:
            logger.warning("no trained model for %s; skipped", key)
            out[key] = None
            continue
        out[key] = _score(ectx.test.get(key), params, key)
    return out
