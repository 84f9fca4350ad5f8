"""Every function the benchmark traces still fires its span.

The benchmark's tracer (bench/tracing.py) rebinds module-level names in the
loaded hierfed modules. A function that the program reaches some other way
(stored in a dict, a default argument or a closure made at import) escapes
it, and the benchmark loses that span. This test runs tiny configs that
together reach every target, with a Tracer installed over all of them.
"""

import importlib.util
from pathlib import Path

import hierfed.runner as runner
from hierfed.synth.archetypes import GenConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    # by path: bench/ is not a package, and bench/run.py edits the
    # environment when imported
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_fires(tmp_path):
    tracing = _load_tracing()
    data = tmp_path / "data"
    gen = GenConfig(name="spans", courses=("c0", "c1"), students_per_course=20,
                    videos_per_course=6, shared_videos=2, demographic="gender",
                    subgroup_labels=("F", "M"), subgroup_shares=(0.5, 0.5),
                    tau=0.6, undisclosed_fraction=0.0, label_noise=0.02,
                    seed=5)
    common = dict(dataset=str(data), demographic="gender", hidden_dim=4,
                  rounds=1, local_iters=1, batch_size=8, per_group=2,
                  folds=(0,), repetitions=1, seed=3)
    with tracing.Tracer() as tracer:
        runner.cmd_generate(gen, data)
        runner.cmd_train(runner.ExperimentConfig(
            task="OP", strategy="sc2-P-AT-B", **common), out=tmp_path / "op")
        runner.cmd_train(runner.ExperimentConfig(
            task="KT", strategy="sc2-G-AV-T", **common), out=tmp_path / "kt")
        assert runner.cmd_evaluate(tmp_path / "op")["all_match"]
    assert tracer.fired() == set(tracing.TARGETS)
