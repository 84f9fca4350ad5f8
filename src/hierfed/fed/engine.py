"""Training orchestration for every strategy, plus evaluation-time adaptation.

One round engine, `train_strategy`, trains every strategy over the
course -> client tree. Clients are the leaves: courses in scenario I,
demographic subgroups in scenario II, and one pooled client for centralized
runs. Each round takes every leaf's start model, then updates every leaf,
then aggregates. Strategies differ in three rules, all read from the
StrategyConfig:

- where a client starts: its own previous model (local and centralized
  runs), the IRT blend of its own previous model and its course (FedIRT),
  or its course's start model (all others);
- how it updates: one epoch (non-federated), E SGD steps (G and FedIRT), or
  E meta-updates (P);
- how a course aggregates its clients: AV/AT, IRT confidences, or not at
  all when the run is not federated.

Every adaptation is one `apply_updates` call over (D, D') batch pairs at an
adaptation step beta; beta = 0 is plain SGD on D'. In training a leaf takes
E `meta_batches` pairs at `inner_step` (P), or E or one epoch of
`epoch_batches` pairs at 0, and a P course restarts from one stratified pair
at 0; at evaluation a P course model is one pair of stratified batches at
`inner_step`, and a P subgroup one epoch of pairs at 0.

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
from ..nn.params import ParamSet
from ..seeding import substream
from .aggregate import aggregate_attention, aggregate_average
from .clients import ClientData, apply_updates, epoch_batches, meta_batches
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


def _located(where: str, s: StrategyConfig, data: ClientData,
             params: ParamSet, pairs, beta: float):
    """apply_updates at the strategy's eta and clip, with a numerical failure
    inside it or a non-finite result reported at where."""
    try:
        params, losses = apply_updates(data, params, pairs, s.eta, beta, s.clip)
    except NumericsError as exc:
        raise NumericsError(f"{where}: {exc}") from None
    _check_finite(params, where)
    return params, losses


def _meta_updates(s: StrategyConfig) -> bool:
    """P clients meta-update; FedIRT clients take plain SGD steps."""
    return s.architecture == "P" and s.aggregation != "IRT"


def _epoch_steps(data: ClientData, s: StrategyConfig) -> int:
    """SGD steps in one shuffled pass over the client's students."""
    return -(-data.size // s.batch_size)


def _sgd_pairs(data: ClientData, s: StrategyConfig, rng, n_steps: int) -> list:
    """n_steps plain SGD pairs (B, B) from epoch_batches."""
    return [(b, b) for b in epoch_batches(data, s.batch_size, rng, n_steps)]


def _update_client(ctx: RunContext, key: GroupKey, start: ParamSet,
                   round_idx: int):
    s = ctx.strategy
    data = ctx.clients[key]
    rng = _client_rng(ctx, data.fingerprint, round_idx)
    where = _where(ctx, f"{'round' if s.is_federated else 'epoch'} "
                        f"{round_idx}, client {key}")
    if _meta_updates(s):
        pairs = [meta_batches(data, s.batch_size, rng)
                 for _ in range(s.local_iters)]
        return _located(where, s, data, start, pairs, s.inner_step)
    n_steps = s.local_iters if s.is_federated else _epoch_steps(data, s)
    return _located(where, s, data, start, _sgd_pairs(data, s, rng, n_steps), 0.0)


def _size_weights(data: dict) -> dict:
    """Each client's share of the students: a size-weighted mean's weights."""
    total = float(sum(d.size for d in data.values()))
    return {key: d.size / total for key, d in data.items()}


def _aggregate(server: ParamSet, models: dict, s: StrategyConfig,
               weights: dict) -> ParamSet:
    if s.aggregation == "AT":
        return aggregate_attention(server, models, s.eps, s.attention_mode)
    return aggregate_average(models, weights)


def _courses(ctx: RunContext) -> dict:
    """Course id -> {leaf key: student ids}, in GroupKey order; each entry
    is also the course's stratified-batch groups."""
    out: dict = {}
    for key in sorted(ctx.clients, key=GroupKey.sort_key):
        out.setdefault(key.course, {})[key] = ctx.clients[key].ids
    return out


def _course_adapt(ctx: RunContext, course: str, strata: dict, theta_g: ParamSet,
                  round_idx: int):
    """One plain gradient step on a stratified cross-subgroup batch."""
    s = ctx.strategy
    rng = substream(ctx.master_seed, "course-adapt", str(ctx.rep),
                    str(ctx.fold), course, str(round_idx))
    batch = stratified_batch(strata, s.per_group, rng)
    return _located(_where(ctx, f"round {round_idx}, course adaptation {course}"),
                    s, ctx.course_pools[course], theta_g, [(batch, batch)], 0.0)


def train_strategy(ctx: RunContext, callback=None):
    """Train the context's strategy, calling callback(round, bundle) after
    every round (epoch, for non-federated strategies). Returns the last
    bundle and each round's training loss: the sum of every leaf update's
    loss, in leaf order, then every course restart's, in course order.

    A round runs in three phases: every leaf's start model; every leaf's
    update, in leaf order; then (federated runs) the course aggregates, the
    global, and each course's next start.

    Hierarchy rules: a course aggregates its subgroup clients even when it
    has only one, while scenario I clients are the courses themselves and
    skip that level. The global aggregates the courses, except that a
    single scenario II course aggregate passes through. P courses restart
    from a course adaptation of the global only when they have two or more
    subgroups. FedIRT courses restart from their own confidence blend, so
    its global is only reported.
    """
    s = ctx.strategy
    courses = _courses(ctx)
    leaves = [key for strata in courses.values() for key in strata]
    course_aggregates = s.is_federated and not leaves[0].is_course_level
    confidence: dict = {}
    if s.aggregation == "IRT":
        for strata in courses.values():
            confidence.update(irt_confidence(
                {key: ctx.irt_responses.get(key, []) for key in strata}))
    for key in leaves:
        n = ctx.clients[key].size
        if _meta_updates(s) and n < 2 * s.batch_size:
            logger.warning("fold %d, rep %d: client %s has %d students "
                           "(< 2 batches of %d); meta-update reuses one batch",
                           ctx.fold, ctx.rep, key, n, s.batch_size)

    theta_g = ctx.init_params
    start = dict.fromkeys(courses, ctx.init_params)
    models = dict.fromkeys(leaves, ctx.init_params)
    round_losses: list = []
    for k in range(s.rounds if s.is_federated else s.epochs):
        if not s.is_federated:
            begin = models
        elif s.aggregation == "IRT":
            begin = {key: irt_interpolate(models[key], start[key.course])
                     for key in leaves}
        else:
            begin = {key: start[key.course] for key in leaves}
        updated = {key: _update_client(ctx, key, begin[key], k) for key in leaves}
        models = {key: params for key, (params, _) in updated.items()}
        losses = [loss for _, leaf in updated.values() for loss in leaf]

        if course_aggregates:
            for c, strata in courses.items():
                weights = confidence or _size_weights(
                    {key: ctx.clients[key] for key in strata})
                models[GroupKey(c)] = _aggregate(
                    start[c], {key: models[key] for key in strata}, s, weights)
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
            for c, strata in courses.items():
                if _meta_updates(s) and len(strata) >= 2:
                    start[c], restart = _course_adapt(ctx, c, strata, theta_g, k)
                    losses += restart
                elif s.aggregation == "IRT":
                    start[c] = models[GroupKey(c)]
                else:
                    start[c] = theta_g

        total = 0.0     # left to right, not fsum: train_loss keeps its bits
        for loss in losses:
            total += loss
        round_losses.append(total)
        if s.is_centralized:
            bundle = TrainedBundle(global_params=models[leaves[0]])
        else:
            bundle = TrainedBundle(
                models=models, global_params=theta_g if s.is_federated else None)
        if callback is not None:
            callback(k, bundle)
    return bundle, round_losses


# ---------------------------------------------------------------------------
# Evaluation-time adaptation and scoring
# ---------------------------------------------------------------------------

def _eval_rng(ctx: RunContext, tag, *parts):
    return substream(ctx.master_seed, "eval", *tag, str(ctx.rep),
                     str(ctx.fold), *parts)


def _eval_where(ctx: RunContext, tag, what: str) -> str:
    return _where(ctx, f"{' '.join(tag)} {what}")


def evaluated_models(bundle: TrainedBundle, s: StrategyConfig) -> TrainedBundle:
    """The part of bundle that adapted_params reads under s, which is all a
    checkpoint keeps:

    - local and FedIRT runs: each scored group's own model, keyed at the
      scenario's granularity (scenario II course aggregates are not read);
    - G and P runs: the global, plus the course models under G-M.

    A G or P bundle without a global raises ValueError naming it.
    """
    if s.architecture == "L" or s.aggregation == "IRT":
        return TrainedBundle(models={
            key: ps for key, ps in bundle.models.items()
            if key.is_course_level == (s.scenario == "sc1")})
    if bundle.global_params is None:
        raise ValueError(f"no 'global' model, which {s.name} runs are "
                         "scored with")
    under_m = s.architecture == "G" and s.hierarchy == "M"
    return TrainedBundle(global_params=bundle.global_params, models={
        key: ps for key, ps in bundle.models.items()
        if under_m and key.is_course_level})


def adapted_params(bundle: TrainedBundle, ctx: RunContext,
                   tag=("test",)) -> dict:
    """The parameters each scored group would be scored with, formed from
    evaluated_models(bundle) alone.

    Local and FedIRT runs score each group with its own stored model; G
    runs with the global, or under M with the group's course model. P runs
    form course models with one stratified meta-update from the global
    (scenario II only), start each group from its course model or the
    global and, except under M, run one local epoch on each group's
    training client. Groups with no usable model map to None.
    """
    s = ctx.strategy
    bundle = evaluated_models(bundle, s)
    groups = sorted(ctx.scored, key=GroupKey.sort_key)
    if s.architecture == "L" or s.aggregation == "IRT":
        return {key: bundle.models.get(key) for key in groups}
    if s.architecture == "G":
        if s.hierarchy == "M":
            return {key: bundle.models.get(key.course_key(), bundle.global_params)
                    for key in groups}
        return {key: bundle.global_params for key in groups}

    tag = tuple(str(t) for t in tag)
    course_models = {}
    for c, strata in _courses(ctx).items():
        if c in ctx.course_pools:
            rng = _eval_rng(ctx, tag, "course", c)
            pair = (stratified_batch(strata, s.per_group, rng),
                    stratified_batch(strata, s.per_group, rng))
            course_models[c], _ = _located(
                _eval_where(ctx, tag, f"course adaptation, client {GroupKey(c)}"),
                s, ctx.course_pools[c], bundle.global_params, [pair],
                s.inner_step)
    out = {key: course_models.get(key.course, bundle.global_params)
           for key in groups}
    for key in groups:
        data = ctx.clients.get(key)
        if s.hierarchy != "M" and data is not None:
            rng = _eval_rng(ctx, tag, "adapt", data.fingerprint)
            out[key], _ = _located(
                _eval_where(ctx, tag, f"adaptation, client {key}"),
                s, data, out[key], _sgd_pairs(data, s, rng, _epoch_steps(data, s)),
                0.0)
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
