"""Experiment orchestration: configs, training runs, and result artifacts.

A run report is a pure function of (config, seed): wall-clock times go to a
sidecar file and worker parallelism never changes results, so reports can be
compared bitwise. All artifacts embed the config hash and the master seed.
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import hashlib
import itertools
import json
import logging
import multiprocessing as mp
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .blas import one_blas_thread
from .data.grouping import group_by_demographic
from .data.ingest import ingest
from .data.partition import N_FOLDS, make_folds
from .data.records import EVENT_KINDS, FORUM_ACTIONS
from .data.sequences import build_sequences, build_vocab
from .errors import ConfigError
from .fed.checkpoint import load_checkpoint, save_checkpoint
from .fed.clients import build_client_data
from .fed.engine import (
    RunContext,
    TrainedBundle,
    adapted_params,
    evaluate_adapted,
    evaluated_models,
    train_strategy,
)
from .fed.strategy import StrategyConfig, parse_strategy
from .heap import keep_temporaries_on_heap
from .keys import DEMOGRAPHIC_VARIABLES, GroupKey
from .metrics import ACTIVITY_TYPES, activity_heatmap, summarize
from .models.task import TASKS
from .seeding import substream
from .synth.archetypes import GenConfig
from .synth.generate import PRESETS, generate, preset

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
HEATMAP_BINS = 50
_HASH_ROWS = 4096   # event rows dataset_hash formats at once

# hyperparameters forwarded from the config onto the parsed strategy
_STRATEGY_FIELDS = ("eta", "beta", "eps", "rounds", "local_iters", "epochs",
                    "batch_size", "per_group", "attention_mode", "clip")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: dataset x task x strategy x folds x repetitions.

    Hyperparameters left as None fall back to the strategy defaults. Making
    a config checks it, so every config that exists is runnable; one that
    would not run raises ConfigError.
    """
    dataset: str = "balanced-small"
    task: str = "KT"
    strategy: str = "sc1-G"
    demographic: str | None = None
    include_unspecified: bool = False
    hidden_dim: int = 48
    eta: float | None = None
    beta: float | None = None
    eps: float | None = None
    rounds: int | None = None
    local_iters: int | None = None
    epochs: int | None = None
    batch_size: int | None = None
    per_group: int | None = None
    attention_mode: str | None = None
    clip: float | None = None
    folds: tuple[int, ...] = (0, 1, 2, 3, 4)
    repetitions: int = 5
    seed: int = 0
    grid: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_fields(ExperimentConfig, vars(self))
        strategy = build_strategy(self)
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {tuple(TASKS)}, got {self.task!r}")
        if self.demographic is not None and self.demographic not in DEMOGRAPHIC_VARIABLES:
            raise ConfigError(f"demographic must be one of {DEMOGRAPHIC_VARIABLES}, "
                              f"got {self.demographic!r}")
        if strategy.scenario == "sc2" and self.demographic is None:
            raise ConfigError(f"strategy {self.strategy!r} needs --demographic")
        if not self.folds or not all(0 <= f < N_FOLDS for f in self.folds):
            raise ConfigError(f"folds must be within 0..{N_FOLDS - 1}, "
                              f"got {list(self.folds)}")
        if len(set(self.folds)) < len(self.folds):
            raise ConfigError(f"folds must be distinct, got {list(self.folds)}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        # the order of folds carries no meaning, so one set has one config;
        # nor does an integer's type where a float is meant, so 1 and 1.0
        # are one config and one hash
        object.__setattr__(self, "folds", tuple(sorted(self.folds)))
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("float") and value is not None:
                object.__setattr__(self, f.name, float(value))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # compared, not converted to float: a huge integer must not overflow
    return ((_is_int(value) or isinstance(value, float))
            and abs(value) <= sys.float_info.max)


# field annotation -> (accepts a value, what the value must be)
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_finite_number, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "dict": (lambda v: isinstance(v, dict), "a mapping"),
}


def _check_fields(cls, values: dict):
    """Reject the first value that does not match its field's annotation.

    Annotations are read as text: "float | None" also takes None, and
    "tuple[str, ...]" takes a list of values that each match "str".
    """
    for f in dataclasses.fields(cls):
        if f.name not in values:
            continue
        value = values[f.name]
        kind, _, optional = f.type.partition(" | ")
        if kind.startswith("tuple["):
            accepts_item, what = _FIELD_TYPES[kind[len("tuple["):].split(",")[0]]
            accepts = (lambda v: isinstance(v, (list, tuple))
                       and all(map(accepts_item, v)))
            what = f"a list, each item {what}"
        else:
            accepts, what = _FIELD_TYPES.get(kind, (lambda v: True, ""))
        if not (accepts(value) or (optional and value is None)):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")


def _from_document(cls, doc, what: str, base=dict):
    """The cls a config document describes, over base()'s field values; a
    document that is not an object, holds an unknown, mistyped or missing
    field, or a wrong schema, raises ConfigError naming it."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    doc = dict(doc)
    if cls is ExperimentConfig:
        schema = doc.pop("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema {schema!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(doc) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"unknown {what} fields: {', '.join(unknown)}")
    _check_fields(cls, doc)
    values = {**base(), **doc}
    missing = [f.name for f in fields if f.name not in values
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing {what} fields: {', '.join(missing)}")
    # only a tuple[...] field takes a list once its type is checked
    return cls(**{name: tuple(value) if isinstance(value, list) else value
                  for name, value in values.items()})


def config_from_dict(doc: dict) -> ExperimentConfig:
    if isinstance(doc, dict) and isinstance(doc.get("task"), str):
        doc = {**doc, "task": doc["task"].upper()}
    return _from_document(ExperimentConfig, doc, "config")


def read_json(path, what: str):
    """The JSON document at path; a file that is missing, unreadable or not
    valid JSON raises ConfigError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what} ({exc.strerror})") from None
    except ValueError as exc:  # invalid JSON or text
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def config_snapshot(config: ExperimentConfig) -> dict:
    return {"schema": SCHEMA_VERSION,
            **{name: list(value) if isinstance(value, tuple) else value
               for name, value in vars(config).items()}}


def _snapshot_hash(snapshot: dict) -> str:
    text = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def config_hash(config: ExperimentConfig) -> str:
    return _snapshot_hash(config_snapshot(config))


def build_strategy(config: ExperimentConfig) -> StrategyConfig:
    overrides = {name: getattr(config, name) for name in _STRATEGY_FIELDS}
    return parse_strategy(config.strategy).with_overrides(**overrides)


# ---------------------------------------------------------------------------
# Dataset resolution
# ---------------------------------------------------------------------------

def _find_table(dirp: Path, stem: str) -> Path:
    for ext in (".csv", ".jsonl"):
        p = dirp / f"{stem}{ext}"
        if p.is_file():
            return p
    raise ConfigError(f"{dirp} has no {stem}.csv or {stem}.jsonl")


def resolve_dataset(name: str):
    """A preset name generates in memory; a directory path is ingested."""
    if name in PRESETS:
        return generate(preset(name))
    p = Path(name)
    if p.is_dir():
        return ingest(_find_table(p, "events"), _find_table(p, "students"))
    raise ConfigError(f"dataset {name!r} is neither a preset "
                      f"({', '.join(sorted(PRESETS))}) nor a directory")


def dataset_hash(ds) -> str:
    """sha256 over each student's roster fields, then its events, as JSON.

    Each distinct kind, video id and action is JSON-encoded once and every
    event row is formatted from those pieces; the digest equals hashing
    json.dumps([kind, video_id, response, forum_action, timestamp]) event
    by event. The text is streamed into the hash one run of students at a
    time, the students whose events fit in _HASH_ROWS rows (at least one),
    so only that run's rows are formatted at once.
    """
    table = ds.events
    kinds = [json.dumps(k) for k in EVENT_KINDS]
    videos = [json.dumps(v) for v in table.video_ids] + ["null"]  # -1: none
    responses = ["0", "1", "null"]
    actions = [json.dumps(a) for a in FORUM_ACTIONS] + ["null"]
    offsets = table.offsets.tolist()
    ids = ds.student_ids
    digest = hashlib.sha256()
    start = 0
    while start < len(ids):
        end = max(start + 1,
                  bisect.bisect_right(offsets, offsets[start] + _HASH_ROWS) - 1)
        rows = slice(offsets[start], offsets[end])
        lines = [f"[{kinds[k]}, {videos[v]}, {responses[r]}, {actions[a]}, {t}]"
                 for k, v, r, a, t in zip(table.kind[rows].tolist(),
                                          table.video[rows].tolist(),
                                          table.response[rows].tolist(),
                                          table.action[rows].tolist(),
                                          table.timestamp[rows].tolist())]
        parts = []
        for i in range(start, end):
            s = ds.students[ids[i]]
            parts.append(json.dumps([s.student_id, s.course_id, s.gender,
                                     s.continent, s.birth_year, s.outcome]))
            parts.extend(lines[offsets[i] - rows.start:offsets[i + 1] - rows.start])
        digest.update("".join(parts).encode())
        start = end
    return digest.hexdigest()


def _dataset(config: ExperimentConfig):
    """(dataset, folds, dataset hash) of config: a command resolves, splits
    and hashes its dataset once, and trains and scores every run on them."""
    ds = resolve_dataset(config.dataset)
    return ds, make_folds(ds, config.seed), dataset_hash(ds)


def load_gen_config(doc: dict) -> GenConfig:
    """A generation config document: a full field set, or {"preset": name}
    with an optional seed over the preset's."""
    if not (isinstance(doc, dict) and "preset" in doc):
        return _from_document(GenConfig, doc, "generation config")
    unknown = sorted(set(doc) - {"preset", "seed"})
    if unknown:
        raise ConfigError(f"unknown preset config fields: {', '.join(unknown)}")
    name = doc["preset"]
    if not isinstance(name, str):
        raise ConfigError(f"preset must be a string, got {name!r}")
    return _from_document(GenConfig, {k: v for k, v in doc.items() if k != "preset"},
                          "preset config", lambda: dataclasses.asdict(preset(name)))


# ---------------------------------------------------------------------------
# One (fold, repetition) training run
# ---------------------------------------------------------------------------

def _group_split(config, strategy, ds, by_course: dict) -> dict:
    """GroupKey -> student ids at the strategy's evaluation granularity."""
    if strategy.scenario == "sc1":
        return {GroupKey(c): set(ids) for c, ids in by_course.items() if ids}
    ids = set()
    for part in by_course.values():
        ids |= set(part)
    return group_by_demographic(ds, config.demographic,
                                config.include_unspecified, student_ids=ids)


def _client_map(task, encoded, groups, require_nonempty: bool):
    out = {}
    for key in sorted(groups, key=GroupKey.sort_key):
        data = build_client_data(task, encoded, groups[key])
        if data.size == 0 and require_nonempty:
            logger.warning("group %s has no usable training students; excluded", key)
            continue
        out[key] = data
    return out


def _quiz_triplets(ds, ids) -> list:
    """(student id, video id, response) of every quiz response of ids."""
    table = ds.events
    quiz = np.flatnonzero(ds.event_mask(ids) & (table.response >= 0))
    return list(zip(map(ds.student_ids.__getitem__, table.student[quiz].tolist()),
                    map(table.video_ids.__getitem__, table.video[quiz].tolist()),
                    table.response[quiz].tolist()))


def _prepare(config: ExperimentConfig, ds, parts, fold: int, rep: int):
    """The (training, validation, test) contexts of one (fold, repetition).

    The three share one tree of clients; the validation and test contexts
    add the split they score.
    """
    strategy = build_strategy(config)
    part = parts[fold]
    vocab = build_vocab(ds, part.train_ids())
    task = TASKS[config.task]
    encoded = build_sequences(ds, task, vocab)
    init = task.init(vocab, config.hidden_dim,
                     substream(config.seed, "init", task.name.lower(),
                               str(rep), str(fold)))

    if strategy.is_centralized:
        clients = {GroupKey("__pool__"):
                   build_client_data(task, encoded, part.train_ids())}
    else:
        train_groups = _group_split(config, strategy, ds, part.train)
        clients = _client_map(task, encoded, train_groups,
                              require_nonempty=True)
    if not clients or all(c.size == 0 for c in clients.values()):
        raise ConfigError(f"fold {fold}: no usable training data for task {config.task}")

    course_pools: dict = {}
    irt_responses: dict = {}
    if strategy.scenario == "sc2" and strategy.is_federated:
        for c, ids in sorted(part.train.items()):
            pool = build_client_data(task, encoded, ids)
            if pool.size:
                course_pools[c] = pool
        if strategy.aggregation == "IRT":
            irt_responses = {key: _quiz_triplets(ds, train_groups[key])
                             for key in clients}

    ctx = RunContext(strategy=strategy, master_seed=config.seed, rep=rep,
                     fold=fold, init_params=init, clients=clients,
                     course_pools=course_pools, irt_responses=irt_responses)

    def scoring(by_course) -> RunContext:
        groups = _group_split(config, strategy, ds, by_course)
        return replace(ctx, scored=_client_map(task, encoded, groups,
                                               require_nonempty=False))

    return ctx, scoring(part.val), scoring(part.test)


def _mean_defined(values) -> float | None:
    """The mean of the values that are not None; None if none is."""
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


class _Selection:
    """Tracks each unit's best validation snapshot across rounds/epochs: a
    unit is one model under local-only strategies, the whole bundle ("*")
    otherwise. A unit scores the mean of its groups' defined validation
    AUCs, or -1 with none. Ties between defined scores keep the earliest
    round; a unit undefined in every round keeps its latest snapshot."""

    def __init__(self, val: RunContext):
        self.val = val
        self.per_model = val.strategy.architecture == "L"
        self.best: dict = {}    # unit -> (score, round, bundle)

    def observe(self, round_idx: int, bundle: TrainedBundle):
        res = evaluate_adapted(bundle, self.val, ("val", round_idx))
        units = ({key: [res.get(key)] for key in bundle.models} if self.per_model
                 else {"*": list(res.values())})
        for unit, values in units.items():
            mean = _mean_defined(values)
            score = -1.0 if mean is None else mean
            best = self.best.get(unit)
            if best is None or score > best[0] or score == best[0] == -1.0:
                self.best[unit] = (score, round_idx, bundle)

    def result(self):
        """(best bundle, selected round per unit label, mean validation AUC)."""
        entries = self.best.items()
        if self.per_model:
            bundle = TrainedBundle(models={k: b.models[k] for k, (_, _, b) in entries})
            selected = {k.label(): r for k, (_, r, _) in entries}
        else:
            (_, r, bundle), = self.best.values()
            selected = {"*": r}
        val = _mean_defined([s for s, _, _ in self.best.values() if s >= 0.0])
        return bundle, selected, val


def run_one(config: ExperimentConfig, ds, parts, fold: int, rep: int):
    """Train one (fold, repetition); returns (result row, checkpoint models):
    the models of the selected bundle that evaluation reads."""
    ctx, val, test_ctx = _prepare(config, ds, parts, fold, rep)
    tracker = _Selection(val)
    _, train_loss = train_strategy(ctx, callback=tracker.observe)
    best, selected, val_auc = tracker.result()
    test = evaluate_adapted(best, test_ctx, ("test",))
    result = {
        "fold": fold,
        "rep": rep,
        "selected": selected,
        "val_auc": val_auc,
        "test_auc": {key.label(): value for key, value in test.items()},
        "train_loss": train_loss,
    }
    return result, _models_payload(evaluated_models(best, ctx.strategy))


def _model_name(key: GroupKey) -> str:
    """The checkpoint entry name of key's model."""
    return f"{'course' if key.is_course_level else 'subgroup'}:{key.label()}"


def _models_payload(bundle: TrainedBundle) -> dict:
    out = {}
    if bundle.global_params is not None:
        out["global"] = bundle.global_params
    for key, ps in bundle.models.items():
        out[_model_name(key)] = ps
    return out


def _check_layers(path, name: str, params: dict, init: dict):
    """Raise ConfigError, naming the file and the model, unless params has
    init's layer names, in init's order, with init's shapes."""
    got = [f"{layer} {arr.shape}" for layer, arr in params.items()]
    want = [f"{layer} {arr.shape}" for layer, arr in init.items()]
    for i, (g, w) in enumerate(itertools.zip_longest(got, want, fillvalue="none")):
        if g != w:
            raise ConfigError(f"{path}: model {name!r} does not fit the config: "
                              f"layer {i} is {g}, expected {w}")


def _load_bundle(path, chash: str, init: dict,
                 strategy: StrategyConfig) -> TrainedBundle:
    """The models of a checkpoint file that evaluation reads under strategy.
    A checkpoint missing, saved under another config hash than chash,
    holding a model whose layers differ from init's or a malformed entry,
    or lacking a model the strategy reads raises ConfigError. Every entry
    is checked, also one that evaluation does not read."""
    if not Path(path).is_file():
        raise ConfigError(f"missing checkpoint {path}")
    models, saved_hash, _ = load_checkpoint(path)
    if saved_hash != chash:
        raise ConfigError(f"{path} belongs to a different config")
    bundle = TrainedBundle()
    for name, ps in models.items():
        _check_layers(path, name, ps, init)
        if name == "global":
            bundle.global_params = ps
            continue
        try:
            key = GroupKey.from_label(name.partition(":")[2])
            if _model_name(key) != name:
                raise ValueError(f"expected {_model_name(key)!r}")
            bundle.models[key] = ps
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed checkpoint (model entry "
                              f"{name!r}: {exc})") from None
    try:
        return evaluated_models(bundle, strategy)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed checkpoint ({exc})") from None


# ---------------------------------------------------------------------------
# Worker pool (results are order-preserving, hence worker-count invariant)
# ---------------------------------------------------------------------------

_POOL: dict = {}


def _pool_init(config, ds, parts):
    _POOL["config"] = config
    _POOL["ds"] = ds
    _POOL["parts"] = parts


def _pool_run(pair):
    fold, rep = pair
    return run_one(_POOL["config"], _POOL["ds"], _POOL["parts"], fold, rep)


def _pairs(config: ExperimentConfig) -> list:
    """The (fold, rep) of every run of config, in the order they run."""
    return [(fold, rep) for fold in config.folds
            for rep in range(config.repetitions)]


def _run_all(config: ExperimentConfig, ds, parts, workers: int):
    pairs = _pairs(config)
    if workers > 1 and len(pairs) > 1:
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else None)
        with ProcessPoolExecutor(max_workers=min(workers, len(pairs)),
                                 mp_context=ctx,
                                 initializer=_pool_init,
                                 initargs=(config, ds, parts)) as ex:
            return list(ex.map(_pool_run, pairs))
    return [run_one(config, ds, parts, fold, rep) for fold, rep in pairs]


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def write_json(path, doc):
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _write_csv(path, header, rows):
    """Header and rows as CSV: None is empty, a field holding a comma or a
    quote is quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _checkpoint_path(out_dir: Path, fold: int, rep: int) -> Path:
    return out_dir / f"checkpoint_f{fold}_r{rep}.json"


def read_report(path) -> tuple:
    """(config, report) of a train report; one that is not valid JSON,
    lacks a field the commands read or mistypes one, whose config_hash is
    not the hash of its stored config, or whose runs are not each (fold,
    rep) of its config once, raises ConfigError naming the file."""
    report = read_json(path, "report")
    try:
        config = config_from_dict(report["config"])
        if not (isinstance(report["config_hash"], str)
                and isinstance(report["dataset_hash"], str)
                and all(_is_int(run["fold"]) and _is_int(run["rep"])
                        and isinstance(run["test_auc"], dict)
                        for run in report["runs"])
                and all(GroupKey.from_label(label) and _is_int(stat["n_runs"])
                        and all(v is None or _is_finite_number(v)
                                for v in (stat["mean"], stat["std"]))
                        for label, stat in report["summary"]["per_group"].items())):
            raise TypeError("a field has the wrong type")
        # over the stored document, not the parsed config, so a report
        # written before folds and floats were normalised still loads
        if report["config_hash"] != _snapshot_hash(report["config"]):
            raise ValueError("config_hash is not its config's")
        runs = sorted((run["fold"], run["rep"]) for run in report["runs"])
        if runs != sorted(_pairs(config)):
            raise ValueError("runs are not each (fold, rep) of the config once")
    except (ConfigError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"{path}: malformed report "
                          f"({type(exc).__name__}: {exc})") from None
    return config, report


def _trained_dataset(config: ExperimentConfig, report: dict):
    """What _dataset gives a train report's config, resolved again; a
    dataset whose contents changed since training raises ConfigError."""
    data = _dataset(config)
    if data[2] != report["dataset_hash"]:
        raise ConfigError(f"dataset {config.dataset}: contents "
                          f"changed since training; refusing")
    return data


def _trained_runs(config: ExperimentConfig, report: dict, out_dir: Path,
                  pairs, score, data=None) -> list:
    """score(test context, bundle) of each (fold, rep) in pairs of the
    trained run of config and report, its checkpoints in out_dir. Nothing
    holds one pair's context or bundle once its score returns, so one
    fold's data is resident at a time. data is what _dataset gave the run's
    training when the caller has just trained it; without it the report's
    dataset is resolved again."""
    ds, parts, _ = data or _trained_dataset(config, report)

    def trained(fold, rep):
        _, _, test = _prepare(config, ds, parts, fold, rep)
        return test, _load_bundle(_checkpoint_path(out_dir, fold, rep),
                                  report["config_hash"], test.init_params,
                                  test.strategy)
    return [score(*trained(fold, rep)) for fold, rep in pairs]


def _out_dir(out, create: bool = True) -> Path:
    """The output directory out, created if missing and create; an empty
    path, one that is not a directory, or one under a file, raises
    ConfigError naming it."""
    if out == "":  # Path("") is the working directory
        raise ConfigError("output directory must be a non-empty path")
    out_dir = Path(out)
    try:
        if create:
            out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{out_dir}: cannot use as output directory "
                          f"({exc.strerror})") from None
    return out_dir


def _check_workers(workers):
    if not (_is_int(workers) and workers >= 1):
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(gen_config: GenConfig, out) -> dict:
    out_dir = _out_dir(out)
    ds = generate(gen_config, out_dir=out_dir)
    doc = {"students": len(ds.students),
           "events": len(ds.events),
           "courses": list(ds.course_ids),
           "out": str(out_dir)}
    logger.info("generated %d students / %d events into %s",
                doc["students"], doc["events"], out_dir)
    return doc


@one_blas_thread()
def cmd_train(config: ExperimentConfig, out=None, workers: int = 1) -> dict:
    _check_workers(workers)
    keep_temporaries_on_heap()
    data = _dataset(config)
    return _train(config, data, None if out is None else _out_dir(out), workers)


def _train(config: ExperimentConfig, data, out_dir: Path | None, workers: int) -> dict:
    """Train every (fold, rep) of config on data, which _dataset gave; the
    report, and under out_dir (unless None) the artifacts."""
    ds, parts, dhash = data
    started = time.monotonic()
    outputs = _run_all(config, ds, parts, workers)
    elapsed = time.monotonic() - started

    runs = [result for result, _ in outputs]
    chash = config_hash(config)
    report = {
        "schema": SCHEMA_VERSION,
        "kind": "train-report",
        "config": config_snapshot(config),
        "config_hash": chash,
        "dataset_hash": dhash,
        "master_seed": config.seed,
        "groups": sorted({label for run in runs for label in run["test_auc"]}),
        "runs": runs,
        "summary": summarize([run["test_auc"] for run in runs]),
    }
    if out_dir is not None:
        write_json(out_dir / "report.json", report)
        for result, models in outputs:
            save_checkpoint(_checkpoint_path(out_dir, result["fold"], result["rep"]),
                            models, chash,
                            extra={"fold": result["fold"], "rep": result["rep"],
                                   "master_seed": config.seed,
                                   "selected": result["selected"],
                                   "strategy": config.strategy,
                                   "task": config.task})
        write_json(out_dir / "timing.json",
                   {"config_hash": chash, "train_seconds": elapsed,
                    "workers": workers})
    return report


@one_blas_thread()
def cmd_evaluate(out, config: ExperimentConfig | None = None,
                 seed: int | None = None) -> dict:
    """Re-score saved checkpoints on the test folds and compare to the report.

    A given config, or a given seed, must be the trained run's.
    """
    keep_temporaries_on_heap()
    out_dir = _out_dir(out, create=False)
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        raise ConfigError(f"no report.json under {out_dir}; run train first")
    stored, report = read_report(report_path)
    if seed is not None and seed != stored.seed:
        raise ConfigError(f"seed {seed} does not match the trained report's "
                          f"seed {stored.seed}")
    if config is not None and config_hash(config) != report["config_hash"]:
        raise ConfigError("given config does not match the trained report")
    def rescore(test_ctx, bundle) -> dict:
        test = evaluate_adapted(bundle, test_ctx, ("test",))
        return {key.label(): value for key, value in test.items()}

    runs = report["runs"]
    aucs = _trained_runs(stored, report, out_dir,
                         [(r["fold"], r["rep"]) for r in runs], rescore)
    rows = [{"fold": run["fold"], "rep": run["rep"], "test_auc": test_auc,
             "matches_report": test_auc == run["test_auc"]}
            for run, test_auc in zip(runs, aucs)]
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "evaluation",
        "config_hash": report["config_hash"],
        "dataset_hash": report["dataset_hash"],
        "master_seed": stored.seed,
        "runs": rows,
        "all_match": all(row["matches_report"] for row in rows),
    }
    write_json(out_dir / "evaluation.json", doc)
    return doc


@one_blas_thread()
def cmd_grid(config: ExperimentConfig, out=None, workers: int = 1) -> dict:
    if not config.grid:
        raise ConfigError("grid search needs a non-empty 'grid' mapping")
    names = sorted(config.grid)
    allowed = set(_STRATEGY_FIELDS) | {"hidden_dim"}
    unknown = sorted(set(names) - allowed)
    if unknown:
        raise ConfigError(f"grid over unknown hyperparameters: {', '.join(unknown)}")
    for name in names:
        if not isinstance(config.grid[name], (list, tuple)) or not config.grid[name]:
            raise ConfigError(f"grid values for {name!r} must be a non-empty list")

    subs = [replace(config, grid={}, **dict(zip(names, values)))
            for values in itertools.product(*(config.grid[name] for name in names))]
    _check_workers(workers)
    keep_temporaries_on_heap()
    # the grid ranges over strategy fields and hidden_dim only, so every
    # cell shares the dataset and the seed that splits it
    data = _dataset(config)
    out_dir = None if out is None else _out_dir(out)

    cells = []
    best_idx, best_score = None, None
    for sub in subs:
        report = _train(sub, data, None, workers)
        mean_val = _mean_defined([run["val_auc"] for run in report["runs"]])
        cells.append({
            "params": {name: getattr(sub, name) for name in names},
            "mean_val_auc": mean_val,
            "test_overall_mean": report["summary"]["overall_mean"],
            "config_hash": report["config_hash"],
        })
        score = -1.0 if mean_val is None else mean_val
        if best_score is None or score > best_score:
            best_idx, best_score = len(cells) - 1, score

    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "grid",
        "config": config_snapshot(config),
        "master_seed": config.seed,
        "cells": cells,
        "winner": cells[best_idx],
    }
    if out_dir is not None:
        write_json(out_dir / "grid.json", doc)
        header = names + ["mean_val_auc", "test_overall_mean"]
        rows = [[cell["params"][n] for n in names]
                + [cell["mean_val_auc"], cell["test_overall_mean"]]
                for cell in cells]
        _write_csv(out_dir / "grid.csv", header, rows)
    return doc


@one_blas_thread()
def cmd_export_embeddings(config: ExperimentConfig, out, workers: int = 1) -> dict:
    """Write one activity-embedding row per test student (outcome task only).

    The run in `out` is trained first when `out` holds no report; a report
    of another config there is refused, never overwritten.
    """
    _check_workers(workers)
    keep_temporaries_on_heap()
    task = TASKS[config.task]
    if task.embed is None:
        raise ConfigError("export-embeddings needs task OP; the interaction "
                          "model has no per-student pooled representation")
    out_dir = _out_dir(out, create=False)
    chash = config_hash(config)
    report_path = out_dir / "report.json"
    data = None
    if report_path.is_file():
        _, report = read_report(report_path)
        if report["config_hash"] != chash:
            raise ConfigError(f"{out_dir} holds the run of another config; "
                              "refusing to overwrite it")
    else:
        data = _dataset(config)
        report = _train(config, data, _out_dir(out_dir), workers)

    def embed(test, bundle) -> list:
        out = []
        for key, params in adapted_params(bundle, test, ("embed",)).items():
            if params is None:
                logger.warning("no model for %s; embeddings skipped", key)
                continue
            group_data = test.scored[key]
            variable = key.variable or "none"
            subgroup = key.subgroup or "all"
            # one student per forward call, so a row's bits do not depend
            # on which students share its batch
            for sid in group_data.ids:
                x, lengths, _ = group_data.batch([sid])
                h = task.embed(x, lengths, params)[0]
                out.append([sid, key.course, variable, subgroup]
                           + [float(v) for v in h])
        return out

    per_fold = _trained_runs(config, report, out_dir,
                             [(fold, 0) for fold in config.folds], embed, data)
    rows = sorted((row for fold_rows in per_fold for row in fold_rows),
                  key=lambda r: r[0])
    k = config.hidden_dim
    header = (["student_id", "course", "demographic_variable", "subgroup"]
              + [f"dim_{i}" for i in range(k)])
    path = out_dir / "embeddings.csv"
    _write_csv(path, header, rows)
    return {"rows": len(rows), "out": str(path), "config_hash": chash}


def cmd_report(run_dirs, out) -> dict:
    """Merge train reports into comparison tables plus activity heatmaps."""
    if not run_dirs:
        raise ConfigError("report needs at least one run directory")
    configs, reports = zip(*(read_report(Path(d) / "report.json")
                             for d in run_dirs))
    hashes = {r["dataset_hash"] for r in reports}
    if len(hashes) > 1:
        raise ConfigError("reports come from different datasets; refusing to merge")

    out_dir = _out_dir(out)

    rows = []
    columns: dict = {}
    for config, report in zip(configs, reports):
        name = base = f"{config.task.lower()}/{config.strategy}"
        serial = 2
        while name in columns:
            name = f"{base}#{serial}"
            serial += 1
        cells = columns.setdefault(name, {})
        for label, stat in sorted(report["summary"]["per_group"].items()):
            course, variable, subgroup = label.split("|")
            rows.append([course, variable, subgroup, config.task,
                         config.strategy, stat["mean"], stat["std"],
                         stat["n_runs"]])
            cells[label] = stat
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4]))
    _write_csv(out_dir / "summary.csv",
               ["course", "demographic", "subgroup", "task", "strategy",
                "mean_auc", "std_auc", "n_runs"], rows)

    names = sorted(columns)
    labels = sorted({label for cells in columns.values() for label in cells})
    lines = ["# Strategy comparison", "",
             "Mean AUC (population std over runs) per evaluation group.", "",
             "| group | " + " | ".join(names) + " |",
             "|" + "---|" * (len(names) + 1)]
    for label in labels:
        cells = []
        for name in names:
            stat = columns[name].get(label)
            if stat is None or stat["mean"] is None:
                cells.append("-")
            else:
                cells.append(f"{stat['mean']:.4f} ({stat['std']:.4f})")
        lines.append("| " + label + " | " + " | ".join(cells) + " |")

    ds, _, _ = _trained_dataset(configs[0], reports[0])
    variables = sorted({c.demographic for c in configs if c.demographic})
    include = {v: any(c.include_unspecified for c in configs
                      if c.demographic == v) for v in variables}
    heatmap_files = []
    for variable in variables:
        groups = group_by_demographic(ds, variable, include[variable])
        for course in ds.course_ids:
            keys = sorted((k for k in groups if k.course == course),
                          key=GroupKey.sort_key)
            for a, b in itertools.combinations(keys, 2):
                grid = activity_heatmap(ds, groups[a], groups[b],
                                        t_bins=HEATMAP_BINS)
                fname = f"heatmap_{course}_{variable}_{a.subgroup}_vs_{b.subgroup}.csv"
                text = "\n".join(",".join(repr(float(v)) for v in row)
                                 for row in grid) + "\n"
                (out_dir / fname).write_text(text)
                heatmap_files.append({"file": fname, "course": course,
                                      "variable": variable,
                                      "group_a": a.subgroup,
                                      "group_b": b.subgroup})
    write_json(out_dir / "heatmaps.json",
               {"row_order": list(ACTIVITY_TYPES), "t_bins": HEATMAP_BINS,
                "files": heatmap_files})
    if heatmap_files:
        lines += ["", "Activity heatmaps (|engagement difference|, rows in "
                  "heatmaps.json order):", ""]
        lines += [f"- {entry['file']}" for entry in heatmap_files]
    (out_dir / "comparison.md").write_text("\n".join(lines) + "\n")
    return {"strategies": names, "groups": labels,
            "heatmaps": len(heatmap_files), "out": str(out_dir)}
