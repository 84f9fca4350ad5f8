"""Experiment runner commands, artifact formats, and the CLI contract."""

import json
import shutil

import numpy as np
import pytest

import hierfed.runner as runner
from hierfed.blas import _openblas_threads
from hierfed.cli import _experiment_config, build_parser, main
from hierfed.errors import ConfigError, NumericsError
from hierfed.fed.checkpoint import load_checkpoint, save_checkpoint
from hierfed.fed.strategy import SC1_FORMS, SC2_FORMS
from hierfed.data.partition import make_folds
from hierfed.metrics import ACTIVITY_TYPES
from hierfed.nn.params import ParamSet
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
    load_config,
    resolve_dataset,
    validate_config,
)
from hierfed.synth.archetypes import GenConfig
from hierfed.synth.generate import config_to_dict, generate, preset


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
    cfg = config_from_dict({"task": "kt", "folds": [3, 1, 1]})
    assert cfg.task == "KT"
    assert cfg.folds == (1, 3)
    for folds in ("abc", [0.5], [1.0], ["1"], [True]):
        with pytest.raises(ConfigError, match="folds must be a list of integers"):
            config_from_dict({"folds": folds})


def test_load_config_reports_missing_or_broken_files(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)


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
    ({"folds": (0.5,)}, "folds must be within"),
])
def test_validation_rejects_bad_experiments(data_dir, kw, msg):
    with pytest.raises(ConfigError, match=msg):
        validate_config(small_config(data_dir, **kw))


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


def test_evaluate_confirms_saved_checkpoints(tmp_path, trained_dir):
    doc = cmd_evaluate(trained_dir)
    assert doc["all_match"] is True
    assert json.loads((trained_dir / "evaluation.json").read_text()) == doc

    tampered = tmp_path / "tampered"
    shutil.copytree(trained_dir, tampered)
    path = tampered / "checkpoint_f0_r0.json"
    models, chash, extra = load_checkpoint(path)
    # a zeroed model scores every student 0.5, so the stored AUC cannot match
    for name in models["global"].names():
        models["global"][name][...] = 0.0
    save_checkpoint(path, models, chash, extra=extra)
    redo = cmd_evaluate(tampered)
    assert redo["all_match"] is False
    assert redo["runs"][0]["matches_report"] is False


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
    scenario, form = name.split("-", 1)
    if form == "L":
        return {"course"} if scenario == "sc1" else {"subgroup"}
    if form == "G":
        return {"global"}
    if scenario == "sc1":
        return {"global", "course"}
    return {"global", "course", "subgroup"}


@pytest.mark.parametrize("name", ["sc1-" + "-".join(f) for f in SC1_FORMS]
                         + ["sc2-" + "-".join(f) for f in SC2_FORMS])
def test_every_strategy_trains_and_rescores(tmp_path, two_course_dir, name):
    cfg = small_config(two_course_dir, strategy=name, demographic="gender",
                       hidden_dim=4, rounds=1, epochs=1, local_iters=1)
    cmd_train(cfg, out=tmp_path)
    assert cmd_evaluate(tmp_path)["all_match"] is True
    models, _, _ = load_checkpoint(tmp_path / "checkpoint_f0_r0.json")
    assert {entry.split(":")[0] for entry in models} == _entry_kinds(name)


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
             ("grid", "grid", {"rounds": [1.5]})]
    for i, (command, field, value) in enumerate(cases):
        doc = config_snapshot(small_config(data_dir, **{field: value}))
        cfg_path = tmp_path / f"{i}.json"
        cfg_path.write_text(json.dumps(doc))
        rc = main([command, "--config", str(cfg_path),
                   "--out", str(tmp_path / str(i))])
        assert rc == 2, (field, value)
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / str(i)).exists()


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


def test_environment_seed_overrides_every_flag(monkeypatch):
    parser = build_parser()
    args = parser.parse_args(["train", "--seed", "3"])
    assert _experiment_config(args).seed == 3
    monkeypatch.setenv("HIERFED_SEED", "9")
    assert _experiment_config(args).seed == 9
    monkeypatch.setenv("HIERFED_SEED", "many")
    assert main(["train", "--seed", "3"]) == 2


def test_cli_generate_writes_dataset_files(tmp_path, capsys):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps({"preset": "balanced-small"}))
    out = tmp_path / "data"
    rc = main(["generate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["students"] == 60
    for name in ("students.csv", "events.csv", "manifest.json"):
        assert (out / name).is_file()


@pytest.mark.parametrize("field, doc", [
    ("students_per_course", {"students_per_course": 20.5}),  # exit 1 before
    ("tau", {"tau": "0.5"}),               # exit 2 with numpy's '<=' TypeError text
    ("courses", {"courses": "c0"}),        # was split into ("c", "0")
    ("subgroup_shares", {"subgroup_shares": ["0.5", "0.5"]}),
    ("seed", {"preset": "balanced-small", "seed": 1.5}),      # was truncated
    ("preset", {"preset": ["balanced-small"]}),               # exit 1 before
])
def test_cli_generate_rejects_mistyped_fields_with_exit_two(tmp_path, capsys,
                                                           field, doc):
    if "preset" not in doc:
        doc = {**config_to_dict(preset("balanced-small")), **doc}
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "data"
    rc = main(["generate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "x"],            # generation needs a config
    ["evaluate"],                          # needs --out
    ["export-embeddings", "--task", "op"], # needs --out
])
def test_cli_requires_the_missing_argument(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    base = rng.normal(size=(6, 8))
    models = {
        "global": ParamSet({"z.W": base[::2].copy() * np.pi,
                            "a.b": rng.normal(size=3)}),
        "course:c0|none|all": ParamSet({"z.W": np.asfortranarray(base),
                                        "a.b": np.zeros(3)}),
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
        assert loaded[name].names() == params.names()
        for lname, arr in params:
            assert np.array_equal(loaded[name][lname], arr)


def test_checkpoint_without_extra_loads_empty_extra(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"global": ParamSet({"w": np.ones(2)})}, "x")
    _, _, extra = load_checkpoint(path)
    assert extra == {}
