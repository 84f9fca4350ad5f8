"""Experiment runner commands, artifact formats, and the CLI contract."""

import base64
import csv
import dataclasses
import gc
import hashlib
import json
import resource
import shutil
import weakref

import numpy as np
import pytest

import hierfed.fed.engine as engine
import hierfed.runner as runner
from hierfed.blas import _openblas_threads
from hierfed.cli import _experiment_config, build_parser, main
from hierfed.errors import ConfigError, NumericsError
from hierfed.fed.checkpoint import load_checkpoint, save_checkpoint
from hierfed.fed.engine import adapted_params, evaluated_models, train_strategy
from hierfed.fed.strategy import FORMS
from hierfed.heap import keep_temporaries_on_heap
from hierfed.data.partition import make_folds
from hierfed.metrics import ACTIVITY_TYPES
from hierfed.runner import (
    ExperimentConfig,
    build_strategy,
    cmd_evaluate,
    cmd_export_embeddings,
    cmd_grid,
    cmd_report,
    cmd_train,
    config_from_dict,
    config_hash,
    config_snapshot,
    resolve_dataset,
)
from hierfed.synth.archetypes import GenConfig
from hierfed.synth.generate import generate, preset
import reference_sweep
from test_synthgen import GENERATED_DIGESTS


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    cfg = GenConfig(name="tiny", courses=("c0",), students_per_course=30,
                    videos_per_course=6, shared_videos=0,
                    demographic="gender", subgroup_labels=("F", "M"),
                    subgroup_shares=(0.5, 0.5), tau=0.6,
                    undisclosed_fraction=0.0, label_noise=0.02, seed=321)
    generate(cfg, out_dir=out)
    return out


def small_config(data_dir, **kw):
    fields = dict(dataset=str(data_dir), task="KT", strategy="sc1-G-AV",
                  hidden_dim=6, rounds=2, local_iters=2, epochs=2,
                  batch_size=8, folds=(0,), repetitions=1, seed=11)
    fields.update(kw)
    return ExperimentConfig(**fields)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run_av")
    cmd_train(small_config(data_dir), out=out)
    return out


@pytest.fixture(scope="module")
def local_dir(tmp_path_factory, data_dir):
    """A KT sc1-L run: its checkpoint keeps the course model of c0."""
    out = tmp_path_factory.mktemp("run_local")
    cmd_train(small_config(data_dir, strategy="sc1-L"), out=out)
    return out


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_config_round_trips_through_snapshot(data_dir):
    cfg = small_config(data_dir, eta=0.05, folds=(0, 2))
    assert config_from_dict(config_snapshot(cfg)) == cfg
    assert config_hash(config_from_dict(config_snapshot(cfg))) == config_hash(cfg)


def test_unknown_config_field_is_rejected():
    with pytest.raises(ConfigError, match="unknown config fields: learning_rate"):
        config_from_dict({"learning_rate": 0.1})


def test_unsupported_schema_is_rejected():
    with pytest.raises(ConfigError, match="unsupported config schema"):
        config_from_dict({"schema": 99})


def test_task_is_upcased_and_folds_normalized():
    cfg = config_from_dict({"task": "kt", "folds": [3, 1]})
    assert cfg.task == "KT"
    assert cfg.folds == (1, 3)
    # a repeat was dropped silently; it is refused as it is when made directly
    with pytest.raises(ConfigError, match=r"folds must be distinct, got \[3, 1, 1\]"):
        config_from_dict({"folds": [3, 1, 1]})
    for folds in ("abc", [0.5], [1.0], ["1"], [True]):
        with pytest.raises(ConfigError,
                           match="folds must be a list, each item an integer"):
            config_from_dict({"folds": folds})
    # order carries no meaning: one set of folds is one config and one hash
    made = ExperimentConfig(folds=[1, 0])
    assert made == ExperimentConfig(folds=(1, 0)) == ExperimentConfig(folds=(0, 1))
    assert made.folds == (0, 1)
    assert config_hash(made) == config_hash(ExperimentConfig(folds=(0, 1)))


def test_an_integer_in_a_float_field_is_the_same_config(tmp_path, data_dir,
                                                       capsys):
    for name in ("eta", "beta", "eps", "clip"):
        whole, real = config_from_dict({name: 1}), config_from_dict({name: 1.0})
        assert whole == real
        assert config_hash(whole) == config_hash(real)
        assert type(getattr(whole, name)) is float
    # refused as "given config does not match the trained report"
    doc = config_snapshot(small_config(data_dir))
    trained, given = tmp_path / "whole.json", tmp_path / "real.json"
    trained.write_text(json.dumps({**doc, "eta": 1}))
    given.write_text(json.dumps({**doc, "eta": 1.0}))
    run = str(tmp_path / "run")
    assert main(["train", "--config", str(trained), "--out", run]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(given), "--out", run]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["all_match"] is True


def test_a_run_hashed_before_floats_were_cast_still_evaluates(tmp_path, data_dir,
                                                              capsys):
    # such a run stored "eta": 1 and hashed that document, so the report's
    # hash is checked against the stored config, not the parsed one
    run = tmp_path / "run"
    cmd_train(small_config(data_dir, eta=1.0), out=run)
    report = json.loads((run / "report.json").read_text())
    report["config"]["eta"] = 1
    text = json.dumps(report["config"], sort_keys=True, separators=(",", ":"))
    report["config_hash"] = hashlib.sha256(text.encode()).hexdigest()
    assert report["config_hash"] != config_hash(config_from_dict(report["config"]))
    (run / "report.json").write_text(json.dumps(report))
    path = run / "checkpoint_f0_r0.json"
    models, _, extra = load_checkpoint(path)
    save_checkpoint(path, models, report["config_hash"], extra=extra)
    capsys.readouterr()
    assert main(["evaluate", "--out", str(run)]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["all_match"] is True


def test_config_hash_tracks_content(data_dir):
    a = small_config(data_dir)
    assert config_hash(a) == config_hash(small_config(data_dir))
    assert config_hash(a) != config_hash(small_config(data_dir, seed=12))


@pytest.mark.parametrize("kw,msg", [
    ({"task": "XX"}, "task must be one of"),
    ({"demographic": "zip"}, "demographic must be one of"),
    ({"strategy": "sc2-P-AT-B"}, "needs --demographic"),
    ({"folds": (7,)}, "folds must be within"),
    ({"folds": ()}, "folds must be within"),
    ({"repetitions": 0}, "repetitions must be"),
    ({"hidden_dim": 0}, "hidden_dim must be"),
    ({"seed": -1}, "seed must be nonnegative"),
    ({"strategy": "sc9-G"}, "token 1"),
    ({"batch_size": 0}, "batch_size and per_group must be"),
    ({"per_group": 0}, "batch_size and per_group must be"),
    ({"clip": -1.0}, "clip must be positive"),
    ({"clip": 0.0}, "clip must be positive"),
    ({"eta": "0.1"}, "eta must be a finite number"),
    ({"eta": float("nan")}, "eta must be a finite number"),
    ({"eta": float("inf")}, "eta must be a finite number"),
    ({"eta": 10 ** 400}, "eta must be a finite number"),  # OverflowError
    ({"clip": float("nan")}, "clip must be a finite number"),
    ({"rounds": 1.5}, "rounds must be an integer"),
    ({"hidden_dim": 2.5}, "hidden_dim must be an integer"),
    ({"repetitions": "2"}, "repetitions must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"strategy": 5}, "strategy must be a string"),
    ({"dataset": 5}, "dataset must be a string"),
    ({"task": ["KT"]}, "task must be a string"),
    ({"include_unspecified": "no"}, "include_unspecified must be true or false"),
    ({"folds": (0.5,)}, "folds must be a list, each item an integer"),
    ({"folds": (0, 0)}, "folds must be distinct"),  # trained fold 0 twice
    ({"folds": 5}, "folds must be a list, each item an integer"),  # TypeError
    ({"folds": None}, "folds must be a list, each item an integer"),  # TypeError
])
def test_validation_rejects_bad_experiments(data_dir, kw, msg):
    with pytest.raises(ConfigError, match=msg):
        small_config(data_dir, **kw)


def test_hyperparameters_flow_into_the_strategy(data_dir):
    cfg = small_config(data_dir, strategy="sc1-P-AT", eta=0.05, beta=0.01,
                       attention_mode="scalar", clip=2.0)
    s = build_strategy(cfg)
    assert (s.eta, s.beta, s.rounds, s.local_iters) == (0.05, 0.01, 2, 2)
    assert (s.attention_mode, s.clip, s.batch_size) == ("scalar", 2.0, 8)
    assert s.epochs == 2


def test_resolve_dataset_accepts_presets_and_directories(data_dir):
    ds = resolve_dataset(str(data_dir))
    assert len(ds.students) == 30
    assert list(ds.course_ids) == ["c0"]
    preset_ds = resolve_dataset("balanced-small")
    assert len(preset_ds.students) == 60
    with pytest.raises(ConfigError, match="neither a preset"):
        resolve_dataset("no-such-dataset")


# ---------------------------------------------------------------------------
# Training artifacts
# ---------------------------------------------------------------------------

def test_train_writes_report_checkpoint_and_timing(data_dir, trained_dir):
    report = json.loads((trained_dir / "report.json").read_text())
    assert report["schema"] == 1
    assert report["kind"] == "train-report"
    assert report["master_seed"] == 11
    assert report["groups"] == ["c0|none|all"]
    assert report["config_hash"] == config_hash(small_config(data_dir))
    (run,) = report["runs"]
    assert run["fold"] == 0 and run["rep"] == 0
    assert set(run["selected"]) == {"*"} and run["selected"]["*"] in (0, 1)
    assert len(run["train_loss"]) == 2
    assert 0.0 <= run["test_auc"]["c0|none|all"] <= 1.0
    assert "c0|none|all" in report["summary"]["per_group"]

    assert (trained_dir / "checkpoint_f0_r0.json").is_file()
    timing = json.loads((trained_dir / "timing.json").read_text())
    assert timing["config_hash"] == report["config_hash"]
    assert timing["train_seconds"] > 0.0


def test_rerunning_train_is_bitwise_identical(data_dir):
    cfg = small_config(data_dir)
    a = cmd_train(cfg)
    b = cmd_train(cfg)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_worker_count_does_not_change_results(data_dir):
    cfg = small_config(data_dir, repetitions=2)
    serial = cmd_train(cfg, workers=1)
    parallel = cmd_train(cfg, workers=2)
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


def test_training_computes_on_one_blas_thread(data_dir, monkeypatch):
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get_threads = threads[0]
    seen = []
    run_one = runner.run_one

    def recording(*args):
        seen.append(get_threads())
        return run_one(*args)

    monkeypatch.setattr(runner, "run_one", recording)
    before = get_threads()
    cmd_train(small_config(data_dir))
    assert seen == [1]
    assert get_threads() == before


def test_commands_reuse_heap_memory_for_temporaries(data_dir):
    cmd_train(small_config(data_dir))
    if not keep_temporaries_on_heap():
        pytest.skip("the C library is not glibc")
    np.ones(1 << 19)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(16):
        np.ones(1 << 19)  # 4 MiB, the size of a kernel's larger temporaries
    # under glibc's dynamic thresholds a fresh process maps these afresh
    # until it has freed one: hundreds of page faults
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults < 256


def test_a_second_heap_call_leaves_no_cyclic_garbage():
    keep_temporaries_on_heap()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        keep_temporaries_on_heap()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_evaluate_confirms_saved_checkpoints(tmp_path, trained_dir):
    doc = cmd_evaluate(trained_dir)
    assert doc["all_match"] is True
    assert json.loads((trained_dir / "evaluation.json").read_text()) == doc

    tampered = tmp_path / "tampered"
    shutil.copytree(trained_dir, tampered)
    path = tampered / "checkpoint_f0_r0.json"
    models, chash, extra = load_checkpoint(path)
    # a zeroed model scores every student 0.5, so the stored AUC cannot match
    for arr in models["global"].values():
        arr[...] = 0.0
    save_checkpoint(path, models, chash, extra=extra)
    redo = cmd_evaluate(tampered)
    assert redo["all_match"] is False
    assert redo["runs"][0]["matches_report"] is False


@pytest.mark.parametrize("command", ["evaluate", "export-embeddings"])
def test_a_folds_data_is_released_before_the_next_fold_is_prepared(
        tmp_path, data_dir, monkeypatch, command):
    config = small_config(data_dir, task="OP", folds=(0, 1, 2))
    cmd_train(config, out=tmp_path)
    prepare, load = runner._prepare, runner._load_bundle
    held, alive = [], []

    def recording_prepare(*args):
        # with the collector off, only a reference can keep one alive
        alive.append([ref() is not None for ref in held])
        out = prepare(*args)
        held.append(weakref.ref(out[2]))
        return out

    def recording_load(*args):
        bundle = load(*args)
        held.append(weakref.ref(bundle))
        return bundle

    monkeypatch.setattr(runner, "_prepare", recording_prepare)
    monkeypatch.setattr(runner, "_load_bundle", recording_load)
    enabled = gc.isenabled()
    gc.disable()
    try:
        if command == "evaluate":
            assert cmd_evaluate(tmp_path)["all_match"] is True
        else:
            assert cmd_export_embeddings(config, tmp_path)["rows"] > 0
    finally:
        if enabled:
            gc.enable()
    # fold f's test context and bundle are gone when fold f + 1 is prepared
    assert alive == [[], [False, False], [False] * 4]


def test_evaluate_refuses_mismatched_inputs(tmp_path, data_dir, trained_dir):
    with pytest.raises(ConfigError, match="does not match the trained report"):
        cmd_evaluate(trained_dir, config=small_config(data_dir, seed=99))
    with pytest.raises(ConfigError, match="run train first"):
        cmd_evaluate(tmp_path / "empty")


@pytest.fixture(scope="module")
def two_course_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds2")
    cfg = GenConfig(name="tiny2", courses=("c0", "c1"), students_per_course=20,
                    videos_per_course=6, shared_videos=2,
                    demographic="gender", subgroup_labels=("F", "M"),
                    subgroup_shares=(0.5, 0.5), tau=0.6,
                    undisclosed_fraction=0.0, label_noise=0.02, seed=322)
    generate(cfg, out_dir=out)
    return out


def _entry_kinds(name: str) -> set:
    """The entries a checkpoint keeps: the models evaluation reads."""
    if name == "sc1-L":
        return {"course"}
    if name in ("sc2-L", "sc2-FedIRT"):
        return {"subgroup"}
    if name in ("sc2-G-AV-M", "sc2-G-AT-M"):
        return {"global", "course"}
    return {"global"}


STRATEGIES = [f"{scenario}-{form}" for scenario, forms in FORMS.items()
              for form in forms]


@pytest.mark.parametrize("name", STRATEGIES)
def test_every_strategy_trains_and_rescores(tmp_path, two_course_dir, name):
    cfg = small_config(two_course_dir, strategy=name, demographic="gender",
                       hidden_dim=4, rounds=1, epochs=1, local_iters=1)
    cmd_train(cfg, out=tmp_path)
    assert cmd_evaluate(tmp_path)["all_match"] is True
    models, _, _ = load_checkpoint(tmp_path / "checkpoint_f0_r0.json")
    assert {entry.split(":")[0] for entry in models} == _entry_kinds(name)


def _every_entry_kind(name: str) -> set:
    """The entries of a checkpoint that keeps every model of the selected
    bundle, as checkpoints written before _entry_kinds did."""
    scenario, form = name.split("-", 1)
    if form == "L":
        return {"course"} if scenario == "sc1" else {"subgroup"}
    if form == "G":
        return {"global"}
    if scenario == "sc1":
        return {"global", "course"}
    return {"global", "course", "subgroup"}


def _train_keeping_every_model(cfg, out, monkeypatch):
    """Train cfg into out with checkpoints that keep every model."""
    with monkeypatch.context() as m:
        m.setattr(runner, "evaluated_models", lambda bundle, s: bundle)
        cmd_train(cfg, out=out)


@pytest.mark.parametrize("name", STRATEGIES)
def test_a_checkpoint_keeping_every_model_still_rescores(
        tmp_path, two_course_dir, monkeypatch, name):
    cfg = small_config(two_course_dir, strategy=name, demographic="gender",
                       hidden_dim=4, rounds=1, epochs=1, local_iters=1)
    _train_keeping_every_model(cfg, tmp_path, monkeypatch)
    models, _, _ = load_checkpoint(tmp_path / "checkpoint_f0_r0.json")
    assert {entry.split(":")[0] for entry in models} == _every_entry_kind(name)
    assert cmd_evaluate(tmp_path)["all_match"] is True


@pytest.mark.parametrize("name", STRATEGIES)
def test_adapted_params_are_the_same_from_what_a_checkpoint_keeps(
        tmp_path, two_course_dir, monkeypatch, name):
    cfg = small_config(two_course_dir, strategy=name, demographic="gender",
                       hidden_dim=4, rounds=1, epochs=1, local_iters=1)
    ds, parts, _ = runner._dataset(cfg)
    ctx, _, test = runner._prepare(cfg, ds, parts, 0, 0)
    full, _ = train_strategy(ctx)
    path = tmp_path / "ck.json"
    save_checkpoint(path, runner._models_payload(
        evaluated_models(full, ctx.strategy)), "h")
    kept = runner._load_bundle(path, "h", test.init_params, test.strategy)
    got = adapted_params(kept, test)
    with monkeypatch.context() as m:    # adapted_params reading all of full
        m.setattr(engine, "evaluated_models", lambda bundle, s: bundle)
        want = adapted_params(full, test)
    assert list(got) == list(want)
    assert any(params is not None for params in want.values())
    for key, params in want.items():
        if params is None:
            assert got[key] is None, key
        else:
            assert list(got[key]) == list(params), key
            assert all(np.array_equal(got[key][layer], arr)
                       for layer, arr in params.items()), key


# sha256 of report.json trained on folds (0, 1) with 2 repetitions; the
# sweep trains one run per config, so these pin summaries over several runs,
# under per-model (sc2-L) and per-bundle (sc2-P-AT-B) selection
MULTI_RUN_REPORTS = {
    ("balanced-small", "KT", "sc2-L"):
        "32eb67cccee868c51b2de6516653760edc269f1ee068573a56a1e69ab54867e2",
    ("balanced-small", "KT", "sc2-P-AT-B"):
        "8c7ea4a6e7c21dacd5ac03a1093180b05aeee326556a8a2727d9dedf44745942",
    ("balanced-small", "OP", "sc2-L"):
        "aa4f0e9a6a9091d1a548b64215fc3e2ac7a50148013749bb60cd077e78cc305f",
    ("balanced-small", "OP", "sc2-P-AT-B"):
        "87b67c085c76af26506307258112ea7a5c76d9392c46d69b427cc1d6fc996c63",
    ("imbalanced-minority", "KT", "sc2-L"):
        "5671936830c0cebf1a7cf62a1fe1e7d0973ffcee4d1ecc664f5ae4d53fc3f9bd",
    ("imbalanced-minority", "KT", "sc2-P-AT-B"):
        "883a91b3781a88f28988812710569a94f50c11575f2ace2e1c40442e699c675f",
    ("imbalanced-minority", "OP", "sc2-L"):
        "e645e345200e76518e35ada113077acf4e0346ebf168b2fb778c82840e4e775b",
    ("imbalanced-minority", "OP", "sc2-P-AT-B"):
        "73c5bab425ef193af3d4a9833a70370c41ea448b34b4dfa2c6c2853cde0693dd",
}


@pytest.mark.parametrize("dataset, task, strategy", sorted(MULTI_RUN_REPORTS))
def test_multi_run_reports_keep_their_bytes(tmp_path, dataset, task, strategy):
    cmd_train(ExperimentConfig(dataset=dataset, task=task, strategy=strategy,
                               demographic="gender", folds=(0, 1),
                               repetitions=2, rounds=2, epochs=2,
                               local_iters=1, seed=5), out=tmp_path)
    report = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == MULTI_RUN_REPORTS[
        (dataset, task, strategy)]


def test_reference_sweep_lists_every_strategy_task_and_preset():
    # the sweep is the byte-identity gate of behaviour-preserving changes;
    # this checks its config list without training anything
    presets = {"heterogeneous-3course": "age", "balanced-small": "gender",
               "imbalanced-minority": "gender"}
    configs = reference_sweep.configs()
    assert sorted(name for name, _ in configs) == sorted(
        f"{dataset}/{task}/{strategy}" for dataset in presets
        for task in ("KT", "OP") for strategy in STRATEGIES)
    assert len(configs) == 102
    for name, fields in configs:
        config = ExperimentConfig(**fields)
        assert f"{config.dataset}/{config.task}/{config.strategy}" == name
        assert config.demographic == presets[config.dataset]
        assert (config.folds, config.repetitions, config.rounds, config.epochs,
                config.local_iters, config.seed) == ((0,), 1, 2, 2, 2, 3)


def test_reference_sweep_compare_names_the_fields_that_moved(tmp_path, capsys):
    lines = [{"generate": "balanced-small", "events.csv": "e1"},
             {"config": "a/KT/sc1-L", "report": "r1", "checkpoint": "c1",
              "all_match": True},
             {"config": "a/KT/sc1-G", "report": "r2", "checkpoint": "c2",
              "all_match": True}]
    moved = [lines[0], {**lines[1], "checkpoint": "c9", "all_match": False}]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(json.dumps(line) + "\n" for line in lines))
    b.write_text("".join(json.dumps(line) + "\n" for line in moved))
    assert reference_sweep.main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out == ""
    assert reference_sweep.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        "a/KT/sc1-L: all_match checkpoint\n"
        "a/KT/sc1-G: all_match checkpoint config report\n")


def test_grid_search_ranks_cells_by_validation_auc(tmp_path, data_dir):
    cfg = small_config(data_dir, grid={"eta": [0.05, 0.3]})
    out = tmp_path / "grid"
    doc = cmd_grid(cfg, out=out)
    assert len(doc["cells"]) == 2
    assert {c["params"]["eta"] for c in doc["cells"]} == {0.05, 0.3}
    best = max(doc["cells"], key=lambda c: c["mean_val_auc"])
    assert doc["winner"] == best
    assert json.loads((out / "grid.json").read_text()) == doc
    lines = (out / "grid.csv").read_text().strip().splitlines()
    assert lines[0] == "eta,mean_val_auc,test_overall_mean"
    assert len(lines) == 3


def _count_dataset_calls(monkeypatch) -> dict:
    """Count the runner's calls of the three steps that give a command its
    dataset; the counts fill the returned dict."""
    calls = {}
    for name in ("resolve_dataset", "make_folds", "dataset_hash"):
        def counted(*args, _name=name, _real=getattr(runner, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(runner, name, counted)
    return calls


def test_grid_resolves_folds_and_hashes_its_dataset_once(tmp_path, data_dir,
                                                         monkeypatch):
    calls = _count_dataset_calls(monkeypatch)
    cfg = small_config(data_dir, grid={"eta": [0.05, 0.3]})
    doc = cmd_grid(cfg, out=tmp_path / "grid")
    assert calls == {"resolve_dataset": 1, "make_folds": 1, "dataset_hash": 1}
    # each cell is what training its config alone reports
    for cell in doc["cells"]:
        report = cmd_train(dataclasses.replace(cfg, grid={}, **cell["params"]))
        assert cell["config_hash"] == report["config_hash"]
        assert cell["test_overall_mean"] == report["summary"]["overall_mean"]


def test_export_embeddings_scores_the_dataset_it_just_trained_on(
        tmp_path, data_dir, monkeypatch):
    calls = _count_dataset_calls(monkeypatch)
    cfg = small_config(data_dir, task="OP")
    cmd_export_embeddings(cfg, tmp_path / "emb")
    assert calls == {"resolve_dataset": 1, "make_folds": 1, "dataset_hash": 1}
    first = (tmp_path / "emb" / "embeddings.csv").read_bytes()
    calls.clear()
    # from the saved report the dataset is resolved again and checked
    cmd_export_embeddings(cfg, tmp_path / "emb")
    assert calls == {"resolve_dataset": 1, "make_folds": 1, "dataset_hash": 1}
    assert (tmp_path / "emb" / "embeddings.csv").read_bytes() == first


@pytest.mark.parametrize("grid,msg", [
    ({}, "non-empty 'grid' mapping"),
    ({"dataset": ["a"]}, "unknown hyperparameters"),
    ({"eta": 0.1}, "must be a non-empty list"),
    ({"eta": []}, "must be a non-empty list"),
    ({"rounds": [2, 1.5]}, "rounds must be an integer"),
])
def test_grid_rejects_bad_grids(tmp_path, data_dir, grid, msg):
    with pytest.raises(ConfigError, match=msg):
        cmd_grid(small_config(data_dir, grid=grid), out=tmp_path / "g")


def test_export_embeddings_writes_one_row_per_test_student(tmp_path, data_dir):
    cfg = small_config(data_dir, task="OP")
    out = tmp_path / "emb"
    doc = cmd_export_embeddings(cfg, out)
    lines = (out / "embeddings.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["student_id", "course", "demographic_variable",
                         "subgroup"]
    assert len(header) == 4 + cfg.hidden_dim

    ds = resolve_dataset(cfg.dataset)
    part = make_folds(ds, cfg.seed)[0]
    expected = sorted(sid for ids in part.test.values() for sid in ids)
    assert [line.split(",")[0] for line in lines[1:]] == expected
    assert doc["rows"] == len(expected)


def test_export_embeddings_is_outcome_task_only(tmp_path, data_dir):
    with pytest.raises(ConfigError, match="needs task OP"):
        cmd_export_embeddings(small_config(data_dir, task="KT"), tmp_path / "e")


def _copy_dataset(src, dst, student=lambda sid: sid, course=lambda c: c):
    """src's students.csv and events.csv with student and course ids
    rewritten, written to dst by the csv module, which quotes as needed."""
    dst.mkdir()
    for name in ("students.csv", "events.csv"):
        with open(src / name, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        with open(dst / name, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [header] + [[student(r[0]), course(r[1])] + r[2:] for r in rows])
    return dst


def test_export_embeddings_quotes_a_student_id_holding_a_comma(tmp_path, data_dir):
    # a quoted id such as "c0,s0001" is legal in students.csv; unquoted, it
    # split its embeddings.csv row into one field more than the header
    ds_dir = _copy_dataset(data_dir, tmp_path / "ds",
                           student=lambda sid: sid.replace("_", ","))
    cfg = small_config(ds_dir, task="OP")
    cmd_export_embeddings(cfg, tmp_path / "emb")
    with open(tmp_path / "emb" / "embeddings.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(header) == 4 + cfg.hidden_dim
    assert all(len(row) == len(header) for row in rows)
    part = make_folds(resolve_dataset(cfg.dataset), cfg.seed)[0]
    expected = sorted(sid for ids in part.test.values() for sid in ids)
    assert all("," in sid for sid in expected)
    assert [row[0] for row in rows] == expected


def test_report_merges_strategies_and_writes_heatmaps(tmp_path, data_dir, trained_dir):
    sub_dir = tmp_path / "run_local"
    cmd_train(small_config(data_dir, strategy="sc2-L", demographic="gender"),
              out=sub_dir)
    out = tmp_path / "merged"
    doc = cmd_report([trained_dir, sub_dir], out)
    assert doc["strategies"] == ["kt/sc1-G-AV", "kt/sc2-L"]

    table = (out / "summary.csv").read_text()
    assert "sc1-G-AV" in table and "sc2-L" in table
    md = (out / "comparison.md").read_text()
    assert "| group | kt/sc1-G-AV | kt/sc2-L |" in md

    heat = json.loads((out / "heatmaps.json").read_text())
    assert heat["row_order"] == list(ACTIVITY_TYPES)
    (entry,) = heat["files"]
    assert entry["variable"] == "gender"
    assert {entry["group_a"], entry["group_b"]} == {"F", "M"}
    grid = np.loadtxt(out / entry["file"], delimiter=",")
    assert grid.shape == (len(ACTIVITY_TYPES), 50)


def test_report_refuses_mixed_datasets(tmp_path, trained_dir):
    forged = tmp_path / "forged"
    shutil.copytree(trained_dir, forged)
    report = json.loads((forged / "report.json").read_text())
    report["dataset_hash"] = "0" * 64
    (forged / "report.json").write_text(json.dumps(report))
    with pytest.raises(ConfigError, match="different datasets"):
        cmd_report([trained_dir, forged], tmp_path / "m")


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------

def test_cli_train_prints_a_summary_and_exits_zero(tmp_path, data_dir, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_snapshot(small_config(data_dir))))
    rc = main(["train", "--config", str(cfg_path),
               "--out", str(tmp_path / "run")])
    assert rc == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"config_hash", "groups", "runs", "overall_mean",
                        "overall_std"}
    assert (tmp_path / "run" / "report.json").is_file()


def test_cli_maps_config_errors_to_exit_two(capsys):
    rc = main(["train", "--strategy", "bogus"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_rejects_bad_hyperparameters_with_exit_two(tmp_path, data_dir,
                                                       capsys):
    cases = [("train", "batch_size", 0), ("train", "per_group", 0),
             ("train", "clip", -1.0), ("train", "eta", "0.1"),
             ("train", "rounds", 1.5), ("train", "hidden_dim", 2.5),
             ("train", "repetitions", "2"), ("train", "strategy", 5),
             ("train", "dataset", 5), ("train", "task", ["KT"]),
             ("train", "eta", float("nan")), ("train", "eta", float("inf")),
             ("train", "clip", float("nan")), ("train", "seed", 1.5),
             ("train", "folds", [0.5]), ("train", "include_unspecified", "no"),
             ("grid", "grid", {"rounds": [1.5]}),
             ("train", "folds", [3, 1, 1])]  # trained folds 1 and 3, exit 0
    for i, (command, field, value) in enumerate(cases):
        doc = {**config_snapshot(small_config(data_dir)), field: value}
        cfg_path = tmp_path / f"{i}.json"
        cfg_path.write_text(json.dumps(doc))
        rc = main([command, "--config", str(cfg_path),
                   "--out", str(tmp_path / str(i))])
        assert rc == 2, (field, value)
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / str(i)).exists()


def test_cli_evaluate_refuses_a_hierfed_seed_other_than_the_trained_one(
        tmp_path, data_dir, trained_dir, monkeypatch, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_dir, run, ignore=shutil.ignore_patterns("evaluation.json"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_snapshot(small_config(data_dir))))
    monkeypatch.setenv("HIERFED_SEED", "5")
    for extra in ([], ["--config", str(cfg_path)]):
        assert main(["evaluate", "--out", str(run)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed 5 does not match")
        assert "seed 11" in err
    assert not (run / "evaluation.json").exists()


def test_cli_evaluate_accepts_the_trained_runs_hierfed_seed(
        tmp_path, trained_dir, monkeypatch, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_dir, run)
    monkeypatch.setenv("HIERFED_SEED", "11")
    assert main(["evaluate", "--out", str(run)]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["all_match"] is True


def test_cli_maps_numeric_failures_to_exit_three(monkeypatch, capsys):
    def explode(config, out=None, workers=1):
        raise NumericsError("non-finite parameters in layer 'lstm.W'")
    monkeypatch.setattr("hierfed.cli.cmd_train", explode)
    rc = main(["train", "--strategy", "sc1-G"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_evaluate_exits_three_naming_the_diverged_client(
        tmp_path, two_course_dir, monkeypatch, capsys):
    cfg = small_config(two_course_dir, strategy="sc2-P-AT-B",
                       demographic="gender", hidden_dim=4, rounds=1,
                       local_iters=1)
    cmd_train(cfg, out=tmp_path)

    def poisoned(path):
        models, chash, extra = load_checkpoint(path)
        models["global"]["lstm.W"][0, 0] = np.nan
        return models, chash, extra

    monkeypatch.setattr(runner, "load_checkpoint", poisoned)
    with np.errstate(invalid="ignore"):
        rc = main(["evaluate", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: fold 0, rep 0, test course "
                          "adaptation, client GroupKey(c0|none|all)"), err


def _rewrite_first_layer(path, edit):
    """Apply edit to the first layer entry of a checkpoint file; return it."""
    doc = json.loads(path.read_text())
    entry = doc["models"]["global"][0]
    edit(entry)
    path.write_text(json.dumps(doc))
    return entry


def test_cli_evaluate_exits_three_naming_a_checkpoints_nan_weight(
        tmp_path, trained_dir, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_dir, run)
    path = run / "checkpoint_f0_r0.json"

    def poison(entry):
        arr = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
        arr[0] = np.nan
        entry["data"] = base64.b64encode(arr.tobytes()).decode("ascii")

    entry = _rewrite_first_layer(path, poison)
    rc = main(["evaluate", "--out", str(run)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {path}: model 'global' layer "
                          f"{entry['name']!r} contains non-finite values"), err


def _truncate(path):
    path.write_text(path.read_text()[:200])


def _bad_base64(path):
    _rewrite_first_layer(path, lambda e: e.update(data="!!" + e["data"][2:]))


def _short_data(path):
    _rewrite_first_layer(path, lambda e: e.update(data=e["data"][:-12]))


def _wrong_shape(path):
    _rewrite_first_layer(path, lambda e: e.update(shape=[e["shape"][0] + 1]
                                                  + e["shape"][1:]))


def _unknown_variable(path):
    doc = json.loads(path.read_text())
    doc["models"]["course:c0|weird|x"] = doc["models"].pop("course:c0|none|all")
    path.write_text(json.dumps(doc))


def _kind_contradicts_label(path):
    # loaded as the course model, and evaluate reported all_match
    doc = json.loads(path.read_text())
    doc["models"]["subgroup:c0|none|all"] = doc["models"].pop("course:c0|none|all")
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("corrupt", [_truncate, _bad_base64, _short_data,
                                     _wrong_shape, _unknown_variable,
                                     _kind_contradicts_label])
def test_cli_evaluate_exits_two_naming_a_malformed_checkpoint(
        tmp_path, request, capsys, corrupt):
    # the edits of the course entry need a run whose checkpoint keeps one
    course_edits = (_unknown_variable, _kind_contradicts_label)
    run = tmp_path / "run"
    shutil.copytree(request.getfixturevalue(
        "local_dir" if corrupt in course_edits else "trained_dir"), run)
    path = run / "checkpoint_f0_r0.json"
    corrupt(path)
    rc = main(["evaluate", "--out", str(run)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed checkpoint"), err


def _drop_runs(path):
    doc = json.loads(path.read_text())
    del doc["runs"]
    path.write_text(json.dumps(doc))


def _unknown_fold(path):
    doc = json.loads(path.read_text())
    doc["runs"][0]["fold"] = 7
    path.write_text(json.dumps(doc))


def _empty_runs(path):
    doc = json.loads(path.read_text())
    doc["runs"] = []
    path.write_text(json.dumps(doc))


def _duplicated_run(path):
    doc = json.loads(path.read_text())
    doc["runs"].append(doc["runs"][0])
    path.write_text(json.dumps(doc))


def _edited(edit):
    """A corruption of report.json that applies edit to its document."""
    def corrupt(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return corrupt


def _first_stat(doc):
    return next(iter(doc["summary"]["per_group"].values()))


_NOT_THE_RUNS = "malformed report (ValueError: runs are not each (fold, rep)"
_NOT_ITS_HASH = "malformed report (ValueError: config_hash is not its config's)"
_MISTYPED = "malformed report (TypeError: a field has the wrong type)"


@pytest.mark.parametrize("corrupt, message", [
    (_truncate, "invalid JSON"),          # JSONDecodeError before
    (_drop_runs, "malformed report (KeyError: 'runs')"),  # KeyError before
    (_unknown_fold, _NOT_THE_RUNS),       # IndexError in _prepare before
    (_empty_runs, _NOT_THE_RUNS),         # evaluate exited 0 with runs: 0
    (_duplicated_run, _NOT_THE_RUNS),
    # evaluate exited 0, with all_match false and true respectively
    (_edited(lambda d: d["config"].update(eta=0.05)), _NOT_ITS_HASH),
    (_edited(lambda d: d["config"].update(strategy="sc1-G-AT")), _NOT_ITS_HASH),
    # report died formatting the mean, with a ValueError and a TypeError
    (_edited(lambda d: _first_stat(d).update(mean="x")), _MISTYPED),
    (_edited(lambda d: _first_stat(d).update(mean=[1])), _MISTYPED),
], ids=["truncated", "no-runs", "fold-7", "empty-runs", "duplicated-run",
        "other-eta", "other-strategy", "text-mean", "list-mean"])
@pytest.mark.parametrize("command", ["evaluate", "report", "export-embeddings"])
def test_cli_exits_two_naming_a_malformed_report(
        tmp_path, data_dir, trained_dir, capsys, command, corrupt, message):
    run = tmp_path / "run"
    shutil.copytree(trained_dir, run)
    path = run / "report.json"
    corrupt(path)
    op_config = tmp_path / "op.json"
    op_config.write_text(json.dumps(config_snapshot(
        small_config(data_dir, task="OP"))))
    argv = {"evaluate": ["evaluate", "--out", str(run)],
            "report": ["report", "--out", str(tmp_path / "tables"), str(run)],
            "export-embeddings": ["export-embeddings", "--config",
                                  str(op_config), "--out", str(run)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}"), err


def _add_videos(events):
    """Every student watches three unseen videos: the vocabulary grows, so
    the trained weights no longer fit the encoding."""
    with open(events, newline="") as fh:
        students = sorted({(row[0], row[1]) for row in list(csv.reader(fh))[1:]})
    with open(events, "a", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [sid, course, "video", f"new_v{j}", "", "", 10_000 + j]
            for sid, course in students for j in range(3))


def _flip_a_response(events):
    """One quiz response flipped: the vocabulary stays the same."""
    with open(events, newline="") as fh:
        rows = list(csv.reader(fh))
    row = next(r for r in rows if r[2] == "quiz_response")
    row[4] = str(1 - int(row[4]))
    with open(events, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _train_op_run(tmp_path, data_dir):
    """A copy of data_dir, an OP config file over it and a run trained on it."""
    ds = tmp_path / "ds"
    shutil.copytree(data_dir, ds)
    cfg = tmp_path / "op.json"
    cfg.write_text(json.dumps(config_snapshot(
        small_config(ds, task="OP", strategy="sc1-G"))))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    return ds, cfg, run


@pytest.mark.parametrize("edit", [_add_videos, _flip_a_response])
@pytest.mark.parametrize("command", ["evaluate", "export-embeddings", "report"])
def test_cli_refuses_a_dataset_changed_since_training(
        tmp_path, data_dir, capsys, command, edit):
    # stale checkpoints cannot read new videos, and with the same videos
    # they would embed, or heatmaps would draw, data they were not trained on
    ds, cfg, run = _train_op_run(tmp_path, data_dir)
    edit(ds / "events.csv")
    capsys.readouterr()
    argv = {"evaluate": ["evaluate", "--out", str(run)],
            "export-embeddings": ["export-embeddings", "--config", str(cfg),
                                  "--out", str(run)],
            "report": ["report", "--out", str(tmp_path / "tables"), str(run)],
            }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: dataset {ds}: contents changed since "
                          f"training; refusing"), err


def test_cli_export_embeddings_refuses_a_checkpoint_of_another_config(
        tmp_path, data_dir, capsys):
    _, cfg, run = _train_op_run(tmp_path, data_dir)
    path = run / "checkpoint_f0_r0.json"
    models, _, extra = load_checkpoint(path)
    save_checkpoint(path, models, "0" * 64, extra=extra)
    capsys.readouterr()
    assert main(["export-embeddings", "--config", str(cfg),
                 "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} belongs to a different config"), err


def test_cli_export_embeddings_refuses_a_run_of_another_config(
        tmp_path, data_dir, trained_dir, capsys):
    # trained_dir holds a KT run; exporting OP embeddings into it must not
    # retrain over that run
    run = tmp_path / "run"
    shutil.copytree(trained_dir, run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    op_config = tmp_path / "op.json"
    op_config.write_text(json.dumps(config_snapshot(
        small_config(data_dir, task="OP"))))
    capsys.readouterr()
    assert main(["export-embeddings", "--config", str(op_config),
                 "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run} holds the run of another config"), err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.fixture(scope="module")
def op_sc2_runs(tmp_path_factory, data_dir):
    """strategy -> the config file of an OP scenario II run and the run,
    each trained once. An sc2-G-AV-T or sc2-P-AT-B checkpoint holds the
    global model, an sc2-L one the two subgroup models."""
    runs = {}

    def run_of(strategy):
        if strategy not in runs:
            root = tmp_path_factory.mktemp("op_sc2")
            cfg = root / "op.json"
            cfg.write_text(json.dumps(config_snapshot(small_config(
                data_dir, task="OP", strategy=strategy, demographic="gender"))))
            assert main(["train", "--config", str(cfg),
                         "--out", str(root / "run")]) == 0
            runs[strategy] = cfg, root / "run"
        return runs[strategy]
    return run_of


def _narrow_att_w(layers):
    layers["att.W"] = layers["att.W"][:, :-1]


def _drop_out_b(layers):
    del layers["out.b"]


def _add_a_layer(layers):
    layers["extra.W"] = np.zeros(3)


def _swap_the_first_two(layers):
    first, second, *rest = layers.items()
    layers.clear()
    layers.update([second, first, *rest])


@pytest.mark.parametrize("edit, detail", [
    (_narrow_att_w, "layer 4 is att.W (6, 5), expected att.W (6, 6)"),
    (_drop_out_b, "layer 7 is none, expected out.b (2,)"),
    (_add_a_layer, "layer 8 is extra.W (3,), expected none"),
    (_swap_the_first_two, "layer 0 is gru.bzr (12,), expected gru.Wzr ("),
], ids=["shape", "missing", "extra", "order"])
@pytest.mark.parametrize("model", ["global", "subgroup:"])
@pytest.mark.parametrize("command", ["evaluate", "export-embeddings"])
def test_cli_exits_two_naming_a_checkpoint_model_that_does_not_fit(
        tmp_path, op_sc2_runs, capsys, command, model, edit, detail):
    cfg, trained = op_sc2_runs("sc2-G-AV-T" if model == "global" else "sc2-L")
    run = tmp_path / "run"
    shutil.copytree(trained, run)
    path = run / "checkpoint_f0_r0.json"
    models, chash, extra = load_checkpoint(path)
    name = next(n for n in sorted(models) if n.startswith(model))
    layers = dict(models[name])
    edit(layers)
    models[name] = layers
    save_checkpoint(path, models, chash, extra=extra)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    argv = {"evaluate": ["evaluate", "--out", str(run)],
            "export-embeddings": ["export-embeddings", "--config", str(cfg),
                                  "--out", str(run)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: model {name!r} does not fit the "
                          f"config: {detail}"), err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


# without the global, evaluate died with a TypeError (P) or exited 0 with
# all_match false (G), and export-embeddings exited 0
@pytest.mark.parametrize("strategy", ["sc2-G-AV-T", "sc2-P-AT-B"])
@pytest.mark.parametrize("command", ["evaluate", "export-embeddings"])
def test_cli_exits_two_naming_a_missing_global_model(
        tmp_path, op_sc2_runs, capsys, command, strategy):
    cfg, trained = op_sc2_runs(strategy)
    run = tmp_path / "run"
    shutil.copytree(trained, run)
    path = run / "checkpoint_f0_r0.json"
    models, chash, extra = load_checkpoint(path)
    del models["global"]
    save_checkpoint(path, models, chash, extra=extra)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    argv = {"evaluate": ["evaluate", "--out", str(run)],
            "export-embeddings": ["export-embeddings", "--config", str(cfg),
                                  "--out", str(run)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed checkpoint (no 'global' "
                          f"model, which {strategy} runs are scored with)"), err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def _misname_a_subgroup(models):
    name = next(n for n in sorted(models) if n.startswith("subgroup:"))
    models["subgroup:c0|weird|x"] = models.pop(name)
    return "malformed checkpoint (model entry 'subgroup:c0|weird|x': "


def _narrow_a_subgroup(models):
    name = next(n for n in sorted(models) if n.startswith("subgroup:"))
    layers = dict(models[name])
    _narrow_att_w(layers)
    models[name] = layers
    return f"model {name!r} does not fit the config: layer 4 is att.W (6, 5)"


@pytest.mark.parametrize("edit", [_misname_a_subgroup, _narrow_a_subgroup],
                         ids=["misnamed", "does-not-fit"])
def test_cli_evaluate_checks_the_entries_it_does_not_read(
        tmp_path, data_dir, monkeypatch, capsys, edit):
    # a checkpoint that keeps every model, as older ones do: evaluation of
    # sc2-G-AV-T reads only the global, yet a bad subgroup entry exits 2
    run = tmp_path / "run"
    _train_keeping_every_model(small_config(
        data_dir, task="OP", strategy="sc2-G-AV-T", demographic="gender"),
        run, monkeypatch)
    path = run / "checkpoint_f0_r0.json"
    models, chash, extra = load_checkpoint(path)
    message = edit(models)
    save_checkpoint(path, models, chash, extra=extra)
    capsys.readouterr()
    assert main(["evaluate", "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}"), err


def test_generated_directory_trains_like_the_in_memory_preset(tmp_path, capsys):
    """generate writes the table that ingest reads back: same scores."""
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"preset": "balanced-small"}))
    assert main(["generate", "--config", str(gen), "--out",
                 str(tmp_path / "data")]) == 0
    reports = {}
    for name, dataset in (("memory", "balanced-small"),
                          ("disk", str(tmp_path / "data"))):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"dataset": dataset, "task": "op",
                                   "strategy": "sc2-G-AV-T",
                                   "demographic": "gender", "hidden_dim": 6,
                                   "rounds": 2, "local_iters": 2, "folds": [0],
                                   "repetitions": 1, "seed": 17}))
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / name)]) == 0
        reports[name] = json.loads((tmp_path / name / "report.json").read_text())
    capsys.readouterr()
    memory, disk = reports["memory"], reports["disk"]
    assert [run["test_auc"] for run in disk["runs"]] == \
        [run["test_auc"] for run in memory["runs"]]
    assert any(v is not None for v in memory["runs"][0]["test_auc"].values())
    assert disk["dataset_hash"] == memory["dataset_hash"]


def test_environment_seed_overrides_every_flag(monkeypatch):
    parser = build_parser()
    args = parser.parse_args(["train", "--seed", "3"])
    assert _experiment_config(args).seed == 3
    monkeypatch.setenv("HIERFED_SEED", "9")
    assert _experiment_config(args).seed == 9
    monkeypatch.setenv("HIERFED_SEED", "many")
    assert main(["train", "--seed", "3"]) == 2


def test_cli_flags_complete_a_config_file_before_it_is_checked(
        tmp_path, data_dir, capsys):
    # the file alone is not runnable: sc2 needs a demographic
    doc = config_snapshot(small_config(data_dir))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**doc, "strategy": "sc2-G-AV-T"}))
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "bare")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: strategy 'sc2-G-AV-T' needs --demographic")
    assert main(["train", "--config", str(cfg_path), "--demographic", "gender",
                 "--out", str(tmp_path / "run")]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["config_hash"] == config_hash(small_config(
        data_dir, strategy="sc2-G-AV-T", demographic="gender"))


def test_cli_flags_override_a_config_file(tmp_path, data_dir):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_snapshot(small_config(data_dir))))
    args = build_parser().parse_args(["train", "--config", str(cfg_path),
                                      "--task", "op", "--seed", "4"])
    assert _experiment_config(args) == small_config(data_dir, task="OP", seed=4)


@pytest.mark.parametrize("flag, message", [
    # the file's strategy trained, exit 0
    ("--strategy", "bad strategy '': "),
    # the config file was not read: 25 default runs trained, exit 0
    ("--config", ": cannot read config file"),
], ids=["strategy", "config"])
def test_cli_train_exits_two_on_an_empty_flag_value(
        tmp_path, data_dir, monkeypatch, capsys, flag, message):
    _refuse_training(monkeypatch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_snapshot(small_config(data_dir))))
    assert main(["train", "--config", str(cfg_path), flag, "",
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)
    assert not (tmp_path / "run").exists()


def test_cli_evaluate_exits_two_naming_a_bad_config_field(
        tmp_path, data_dir, trained_dir, capsys):
    # exited 2 saying the config does not match the trained report
    run = tmp_path / "run"
    shutil.copytree(trained_dir, run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**config_snapshot(small_config(data_dir)),
                                    "task": "XX"}))
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(run)]) == 2
    assert capsys.readouterr().err.startswith("error: task must be one of")


def _seedless_document():
    doc = dataclasses.asdict(preset("balanced-small"))
    del doc["seed"]
    return doc


# seed None: the preset's own
@pytest.mark.parametrize("doc, flags, env, seed", [
    ({"preset": "balanced-small"}, [], None, None),
    ({"preset": "balanced-small", "seed": 7}, [], None, 7),
    ({"preset": "balanced-small"}, ["--seed", "7"], None, 7),
    ({"preset": "balanced-small", "seed": 3}, [], "7", 7),
    ({**_seedless_document(), "seed": 7}, [], None, 7),
    # a seed completes a generation document as it does an experiment
    # document; these exited 2 with "missing 1 required positional argument"
    (_seedless_document(), ["--seed", "7"], None, 7),
    (_seedless_document(), [], "7", 7),
], ids=["preset", "preset-seed", "preset-flag", "preset-env", "full",
        "seedless-flag", "seedless-env"])
def test_cli_generate_writes_dataset_files(tmp_path, monkeypatch, capsys,
                                           doc, flags, env, seed):
    if env is not None:
        monkeypatch.setenv("HIERFED_SEED", env)
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "data"
    rc = main(["generate", "--config", str(cfg_path), "--out", str(out)] + flags)
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["students"] == 60
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("events.csv", "students.csv", "manifest.json"))
    assert got == GENERATED_DIGESTS[("balanced-small", seed)]


def test_cli_generate_exits_two_naming_a_missing_seed(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.delenv("HIERFED_SEED", raising=False)
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(_seedless_document()))
    out = tmp_path / "data"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: missing generation config fields: seed\n")
    assert not out.exists()


@pytest.mark.parametrize("field, doc", [
    ("students_per_course", {"students_per_course": 20.5}),  # exit 1 before
    ("tau", {"tau": "0.5"}),               # exit 2 with numpy's '<=' TypeError text
    ("courses", {"courses": "c0"}),        # was split into ("c", "0")
    ("subgroup_shares", {"subgroup_shares": ["0.5", "0.5"]}),
    ("seed", {"preset": "balanced-small", "seed": 1.5}),      # was truncated
    ("preset", {"preset": ["balanced-small"]}),               # exit 1 before
    ("courses", {"courses": ["a|b"]}),  # exit 0, then train failed
    # exit 0 with 20 students, not 40: the second course's walks merged
    # into the first course's students
    ("courses", {"courses": ["a", "a"], "students_per_course": 20}),
    ("subgroup_labels", {"demographic": "age",
                         "subgroup_labels": ["old", "young"]}),  # KeyError
    ("subgroup_labels", {"subgroup_labels": ["X", "F"]}),  # gender ValueError
    # probabilities outside [0, 1] exited 0; these shares wrote 15 students
    # in a course of 10
    ("subgroup_shares", {"subgroup_shares": [1.5, -0.5],
                         "students_per_course": 10}),
    ("label_noise", {"label_noise": 7}),
    ("undisclosed_fraction", {"undisclosed_fraction": -3}),
    ("courses", {"courses": [""]}),  # exit 0, wrote a course ""
])
def test_cli_generate_rejects_mistyped_fields_with_exit_two(tmp_path, capsys,
                                                           field, doc):
    if "preset" not in doc:
        doc = {**dataclasses.asdict(preset("balanced-small")), **doc}
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "data"
    rc = main(["generate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")
    assert not out.exists()


def test_cli_train_exits_two_naming_a_course_id_with_the_label_separator(
        tmp_path, data_dir, capsys):
    # "|" separates the fields of a group label; such a course used to train
    # and then crash parsing its own report labels
    ds_dir = _copy_dataset(data_dir, tmp_path / "ds",
                           course=lambda c: c.replace("c0", "c0|x"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_snapshot(small_config(ds_dir))))
    rc = main(["train", "--config", str(cfg_path),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"error: {ds_dir / 'students.csv'}:2: course id 'c0|x' must not contain")
    assert not (tmp_path / "run").exists()


def _train_exit(tmp_path, ds_dir):
    """main's exit code training a small config on ds_dir."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_snapshot(small_config(ds_dir))))
    return main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "run")])


def test_cli_train_exits_two_naming_an_oversized_csv_field(tmp_path, data_dir,
                                                          capsys):
    # a field over csv.field_size_limit() raised _csv.Error: exit 1 with a
    # traceback
    ds_dir = _copy_dataset(data_dir, tmp_path / "ds")
    path = ds_dir / "events.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][3] = "v" * 200_000
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert _train_exit(tmp_path, ds_dir) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:4: field larger than field limit"), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", ["events.csv", "students.csv", "events.jsonl"])
def test_cli_train_exits_two_naming_an_undecodable_line(tmp_path, data_dir,
                                                       capsys, name):
    # a 0xff byte raised UnicodeDecodeError: exit 1 with a traceback
    ds_dir = _copy_dataset(data_dir, tmp_path / "ds")
    if name == "events.jsonl":
        with open(ds_dir / "events.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        (ds_dir / name).write_text("".join(json.dumps(dict(zip(header, row))) + "\n"
                                           for row in rows))
        (ds_dir / "events.csv").unlink()
    path = ds_dir / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b"c0", b"c0\xff", 1)
    path.write_bytes(b"".join(lines))
    assert _train_exit(tmp_path, ds_dir) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:4: not UTF-8 text"), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field", ["student_id", "video_id"])
def test_cli_train_exits_two_naming_a_lone_surrogate(tmp_path, data_dir, capsys,
                                                    field):
    # JSON's "\ud800" decodes to a string that is not text: train hashed it
    # and raised UnicodeEncodeError, exit 1 with a traceback
    ds_dir = tmp_path / "ds"
    ds_dir.mkdir()
    docs = {}
    for stem in ("students", "events"):
        with open(data_dir / f"{stem}.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        docs[stem] = [dict(zip(header, row)) for row in rows]
    # the fourth line's value, in every line that holds it
    name = "students" if field == "student_id" else "events"
    value = [d[field] for d in docs[name] if d[field]][3]
    line = [d[field] for d in docs[name]].index(value) + 1
    for stem, rows in docs.items():
        for d in rows:
            if d.get(field) == value:
                d[field] = value + "\ud800"
        (ds_dir / f"{stem}.jsonl").write_text(
            "".join(json.dumps(d) + "\n" for d in rows))
    assert _train_exit(tmp_path, ds_dir) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ds_dir / name}.jsonl:{line}: not UTF-8 text "
                          "(surrogates not allowed)"), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("make, message", [
    (lambda p: None, "config file not found: {p}"),
    (lambda p: p.mkdir(), "{p}: cannot read config file"),  # exit 1 before
    (lambda p: p.write_text("{not json"), "{p}: invalid JSON"),
], ids=["missing", "directory", "invalid-json"])
@pytest.mark.parametrize("command", ["generate", "train"])
def test_cli_exits_two_naming_an_unreadable_config_file(tmp_path, capsys,
                                                       command, make, message):
    path = tmp_path / "config.json"
    make(path)
    assert main([command, "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(p=path)), err


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "x"],            # generation needs a config
    ["evaluate"],                          # needs --out
    ["export-embeddings", "--task", "op"], # needs --out
])
def test_cli_requires_the_missing_argument(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command, flag", [
    ("generate", ["--task", "KT"]),
    ("generate", ["--workers", "9"]),
    ("generate", ["--strategy", "sc1-G"]),
    ("evaluate", ["--workers", "4"]),
    ("evaluate", ["--strategy", "sc2-L"]),
    ("evaluate", ["--task", "OP"]),
    ("evaluate", ["--demographic", "gender"]),
    ("evaluate", ["--include-unspecified"]),
    ("evaluate", ["--seed", "5"]),
    ("report", ["--config", "c.json"]),
    ("report", ["--strategy", "sc1-G"]),
    ("report", ["--seed", "1"]),
    ("report", ["--workers", "2"]),
])
def test_cli_rejects_a_flag_the_command_does_not_read(
        tmp_path, trained_dir, capsys, command, flag):
    run = tmp_path / "run"
    shutil.copytree(trained_dir, run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"preset": "balanced-small"}))
    argv = {"generate": ["generate", "--config", str(gen),
                         "--out", str(tmp_path / "ds")],
            "evaluate": ["evaluate", "--out", str(run)],
            "report": ["report", "--out", str(tmp_path / "tables"), str(run)],
            }[command] + flag
    try:
        rc = main(argv)
    except SystemExit as exc:   # argparse rejects the flag
        rc = exc.code
    assert rc == 2
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()
    assert not (tmp_path / "tables").exists()
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_cli_train_exits_two_on_an_empty_roster(tmp_path, data_dir, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    for name in ("students.csv", "events.csv"):
        header = (data_dir / name).read_text().splitlines()[0]
        (ds / name).write_text(header + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config_snapshot(small_config(ds))))
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dataset has no students"), err


def _refuse_training(monkeypatch):
    def trained(*args, **kwargs):
        raise AssertionError("training ran before the argument was refused")
    monkeypatch.setattr(runner, "train_strategy", trained)


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", ["generate", "train", "grid",
                                     "export-embeddings", "report"])
def test_cli_exits_two_naming_an_out_that_is_not_a_directory(
        tmp_path, data_dir, trained_dir, monkeypatch, capsys, command, under):
    # each exited 1 with FileExistsError; train, grid and export-embeddings
    # trained first
    _refuse_training(monkeypatch)
    blocker = tmp_path / "F"
    blocker.write_text("kept")
    out = blocker / "sub" if under else blocker
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"preset": "balanced-small"}))
    cfg = tmp_path / "cfg.json"
    fields = {"grid": dict(grid={"eta": [0.1, 0.2]}),
              "export-embeddings": dict(task="OP")}.get(command, {})
    cfg.write_text(json.dumps(config_snapshot(small_config(data_dir, **fields))))
    argv = {"generate": ["generate", "--config", str(gen)],
            "report": ["report", str(trained_dir)]}.get(
                command, [command, "--config", str(cfg)])
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {out}: cannot use as output directory (")
    assert blocker.read_text() == "kept"


# train and grid wrote report.json, checkpoints and timing.json, or grid.json
# and grid.csv, into the working directory and exited 0
@pytest.mark.parametrize("command", ["train", "grid", "generate", "evaluate",
                                     "export-embeddings", "report"])
def test_cli_exits_two_on_an_empty_out(tmp_path_factory, tmp_path, data_dir,
                                       trained_dir, monkeypatch, capsys,
                                       command):
    _refuse_training(monkeypatch)
    inputs = tmp_path_factory.mktemp("inputs")
    gen = inputs / "gen.json"
    gen.write_text(json.dumps({"preset": "balanced-small"}))
    cfg = inputs / "cfg.json"
    fields = {"grid": dict(grid={"eta": [0.1, 0.2]}),
              "export-embeddings": dict(task="OP")}.get(command, {})
    cfg.write_text(json.dumps(config_snapshot(small_config(data_dir, **fields))))
    argv = {"generate": ["generate", "--config", str(gen)],
            "evaluate": ["evaluate"],
            "report": ["report", str(trained_dir)]}.get(
                command, [command, "--config", str(cfg)])
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", ""]) == 2
    message = ("output directory must be a non-empty path"
               if command in ("train", "grid") else f"{command} needs --out")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_library_commands_refuse_an_empty_out(tmp_path, data_dir, trained_dir,
                                              monkeypatch):
    # evaluate read and wrote in the working directory, export-embeddings
    # trained into it
    _refuse_training(monkeypatch)
    monkeypatch.chdir(tmp_path)
    calls = [lambda: cmd_train(small_config(data_dir), out=""),
             lambda: cmd_grid(small_config(data_dir, grid={"eta": [0.1]}),
                              out=""),
             lambda: cmd_evaluate(""),
             lambda: cmd_export_embeddings(small_config(data_dir, task="OP"), ""),
             lambda: runner.cmd_generate(preset("balanced-small"), ""),
             lambda: cmd_report([trained_dir], "")]
    for call in calls:
        with pytest.raises(ConfigError,
                           match="^output directory must be a non-empty path$"):
            call()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", [0, -2])
def test_cli_train_exits_two_on_workers_below_one(tmp_path, data_dir,
                                                  monkeypatch, capsys, workers):
    # both exited 0 and wrote the value to timing.json
    _refuse_training(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config_snapshot(small_config(data_dir))))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                 "--workers", str(workers)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: workers must be an integer >= 1, got {workers}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("workers", [0, 1.5, True])
def test_library_commands_refuse_workers_below_one(tmp_path, data_dir,
                                                   monkeypatch, workers):
    _refuse_training(monkeypatch)
    calls = [lambda: cmd_train(small_config(data_dir), workers=workers),
             lambda: cmd_grid(small_config(data_dir, grid={"eta": [0.1]}),
                              workers=workers),
             lambda: cmd_export_embeddings(small_config(data_dir, task="OP"),
                                           tmp_path / "emb", workers=workers)]
    for call in calls:
        with pytest.raises(ConfigError, match="workers must be an integer >= 1"):
            call()
    assert not (tmp_path / "emb").exists()


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    base = rng.normal(size=(6, 8))
    models = {
        "global": {"z.W": base[::2].copy() * np.pi,
                   "a.b": rng.normal(size=3)},
        "course:c0|none|all": {"z.W": np.asfortranarray(base),
                               "a.b": np.zeros(3)},
    }
    path = tmp_path / "ck.json"
    extra = {"fold": 0, "rep": 2, "selected": {"*": 4}}
    save_checkpoint(path, models, "feed" * 16, extra=extra)
    loaded, chash, got_extra = load_checkpoint(path)
    assert chash == "feed" * 16
    assert got_extra == extra
    assert sorted(loaded) == sorted(models)
    for name, params in models.items():
        # layer order is part of the contract, not just the values
        assert list(loaded[name]) == list(params)
        for lname, arr in params.items():
            assert np.array_equal(loaded[name][lname], arr)


def test_checkpoint_without_extra_loads_empty_extra(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"global": {"w": np.ones(2)}}, "x")
    _, _, extra = load_checkpoint(path)
    assert extra == {}
