import copy
import filecmp
import gc
import json
import os
import re

import pytest

import polar.cli
from polar.cli import _load_config, main
from polar.evaluation import load_reports
from polar.scenarios import load_specs
from polar.world import World


def _specs_path(tmp_path, *argv, pre=()) -> str:
    out = str(tmp_path / "specs.json")
    assert main([*pre, "scenario", "gen", "--kind", "compositional-single", "--n", "1", "--out", out, *argv]) == 0
    return out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_eval_mode_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--specs", "x.json", "--mode", "telepathy", "--out", str(tmp_path / "m.json")])
    assert err.value.code == 2


def test_world_gen_writes_and_renders(tmp_path, capsys):
    out = str(tmp_path / "world.json")
    code = main(["world", "gen", "--seed", "1", "--n-rooms", "5", "--objects", "mug=2", "--out", out, "--render"])
    assert code == 0
    world = World.load(out)
    assert sorted(world.objects) == ["mug_01", "mug_02"]
    assert "a=hallway" in capsys.readouterr().out


def test_world_gen_rejects_bad_objects(tmp_path, capsys):
    code = main(["world", "gen", "--out", str(tmp_path / "w.json"), "--objects", "mug"])
    assert code == 1
    assert capsys.readouterr().err.startswith("polar: error:")


def test_missing_input_file_is_domain_error(tmp_path, capsys):
    code = main(["eval", "--specs", str(tmp_path / "gone.json"), "--mode", "no-prior", "--out", str(tmp_path / "m.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("polar: error:") and err.count("\n") == 1


def test_eval_refuses_k_below_one_before_writing(tmp_path, capsys):
    """No retrieval runs in no-prior mode without --graphs, so only the settings check sees k."""
    specs = _specs_path(tmp_path)
    out = tmp_path / "m.json"
    assert main(["eval", "--specs", specs, "--mode", "no-prior", "--k", "0", "--out", str(out)]) == 1
    assert "k must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector_state(tmp_path, capsys, monkeypatch, collecting):
    """The command runs with the collector paused; main hands back the caller's state."""
    during = []
    original = polar.cli.gen_world

    def gen_world(*args):
        during.append(gc.isenabled())
        return original(*args)

    monkeypatch.setattr(polar.cli, "gen_world", gen_world)
    world = ["world", "gen", "--n-rooms", "3", "--out", str(tmp_path / "w.json")]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(world) == 0
        assert during == [False]
        assert gc.isenabled() is collecting
        assert main([*world, "--objects", "mug"]) == 1
        assert gc.isenabled() is collecting
        with pytest.raises(SystemExit):
            main(["world", "gen"])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_seed_precedence(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 3}))
    monkeypatch.setenv("POLAR_SEED", "7")

    flag = _specs_path(tmp_path, "--seed", "1", pre=("--config", str(cfg)))
    assert load_specs(flag)[0].scenario_id == "compositional-single-s1-000"

    from_config = _specs_path(tmp_path, pre=("--config", str(cfg)))
    assert load_specs(from_config)[0].scenario_id == "compositional-single-s3-000"

    from_env = _specs_path(tmp_path)
    assert load_specs(from_env)[0].scenario_id == "compositional-single-s7-000"

    monkeypatch.delenv("POLAR_SEED")
    fallback = _specs_path(tmp_path)
    assert load_specs(fallback)[0].scenario_id == "compositional-single-s0-000"
    capsys.readouterr()


def test_bad_env_seed_is_domain_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLAR_SEED", "many")
    assert main(["scenario", "gen", "--kind", "distractor", "--n", "1", "--out", str(tmp_path / "s.json")]) == 1
    assert "POLAR_SEED" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"mystery": 1},
        {"seed": "zero"},
        {"seed": True},  # bools masquerade as ints
        ["not", "an", "object"],
        {"theta_dedup": True},  # an int is taken for a float, a bool is not
        {"seed": None},  # null unsets only the `str | None` fields
        {"kinds": None},
    ],
)
def test_config_file_validation(tmp_path, capsys, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    code = main(["--config", str(cfg), "world", "gen", "--out", str(tmp_path / "w.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("polar: error:")


def test_config_file_takes_an_integer_for_a_float_field(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"theta_dedup": 1}))
    assert _load_config(str(cfg)) == {"theta_dedup": 1.0}
    assert type(_load_config(str(cfg))["theta_dedup"]) is float
    out = tmp_path / "s.json"
    argv = ["--config", str(cfg), "scenario", "gen", "--kind", "distractor", "--n", "1", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("key", ["encoder_endpoint", "out_dir"])
def test_config_file_null_leaves_an_optional_field_unset(tmp_path, capsys, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: None, "seed": 3}))
    assert _load_config(str(cfg)) == {"seed": 3}
    out = tmp_path / "s.json"
    assert main(["--config", str(cfg), "scenario", "gen", "--kind", "distractor", "--n", "1", "--out", str(out)]) == 0
    assert load_specs(str(out))[0].scenario_id == "distractor-s3-000"
    capsys.readouterr()


def test_encoder_dim_zero_is_rejected(tmp_path, capsys):
    out = tmp_path / "s.json"
    argv = ["scenario", "gen", "--kind", "distractor", "--n", "1", "--out", str(out)]
    assert main([*argv, "--encoder-dim", "0"]) == 1
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"encoder_dim": 0}))
    assert main(["--config", str(cfg), *argv]) == 1
    assert capsys.readouterr().err.count("embedding dim must be >= 16") == 2
    assert not out.exists()


def test_config_flag_beats_file_beats_default(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n": 2, "kinds": ["distractor"]}))
    out = str(tmp_path / "s.json")
    assert main(["--config", str(cfg), "scenario", "gen", "--n", "1", "--out", out]) == 0
    assert [s.scenario_id for s in load_specs(out)] == ["distractor-s0-000"]
    assert main(["--config", str(cfg), "scenario", "gen", "--out", out]) == 0
    assert [s.kind for s in load_specs(out)] == ["distractor", "distractor"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    [
        {"modes": []},
        {"kinds": []},
        {"kinds": ["bogus"]},
        {"kinds": [1]},
        {"modes": ["polar", "telepathy"]},
        # the generator accepts the first kind under these thresholds and refuses the second
        {"theta_dedup": 0.5, "theta_obj": 0.5, "kinds": ["compositional-single", "compositional-joint"], "n": 1},
    ],
)
def test_run_all_checks_kinds_and_modes_before_writing(tmp_path, capsys, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out_dir = tmp_path / "runs"
    assert main(["--config", str(cfg), "run-all", "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("polar: error:") and err.count("\n") == 1
    assert not out_dir.exists()


def test_run_all_matches_staged_commands_under_one_config(tmp_path, monkeypatch, capsys):
    """run-all and the staged commands read the same config, so they write the same files;
    the thresholds and k are non-default ones that the generator still accepts."""
    monkeypatch.delenv("POLAR_SEED", raising=False)
    thresholds = {"theta_dedup": 0.5, "theta_obj": 0.5}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**thresholds, "k": 3, "kinds": ["temporal-object"], "n": 2}))
    pre = ["--config", str(cfg)]
    run_dir = tmp_path / "run" / "temporal-object"
    assert main([*pre, "run-all", "--out-dir", str(tmp_path / "run")]) == 0

    staged = {name: str(tmp_path / name) for name in ("specs.json", "episodes.jsonl", "graphs.json")}
    assert main([*pre, "scenario", "gen", "--out", staged["specs.json"]]) == 0
    assert main([*pre, "acquire", "--specs", staged["specs.json"], "--out", staged["episodes.jsonl"]]) == 0
    assert main([*pre, "memorize", "--episodes", staged["episodes.jsonl"], "--out", staged["graphs.json"]]) == 0
    for name, path in staged.items():
        assert filecmp.cmp(path, run_dir / name, shallow=False), name

    reports = []
    for mode in ("no-prior", "raw-interaction", "polar"):
        out = str(tmp_path / f"metrics-{mode}.json")
        argv = ["eval", "--specs", staged["specs.json"], "--mode", mode, "--graphs", staged["graphs.json"]]
        assert main([*pre, *argv, "--episodes", staged["episodes.jsonl"], "--out", out]) == 0
        reports.extend(load_reports(out))
    assert load_reports(str(run_dir / "metrics.json")) == reports
    # k reaches evaluation: the default k=5 gives other reports on these specs
    out = str(tmp_path / "metrics-k5.json")
    assert main([*pre, *argv, "--episodes", staged["episodes.jsonl"], "--k", "5", "--out", out]) == 0
    assert load_reports(out) != reports[-1:]
    capsys.readouterr()

    with open(run_dir / "graphs.json", encoding="utf-8") as fh:
        graphs = json.load(fh)["graphs"]
    assert len(graphs) == 2
    assert all(graph["thresholds"] == thresholds for graph in graphs.values())


def test_memory_settings_a_command_reads_take_their_flags(tmp_path, monkeypatch, capsys):
    """scenario gen and run-all read k and both thresholds, so both take their flags,
    and a flag has the same effect as its config-file key."""
    monkeypatch.delenv("POLAR_SEED", raising=False)
    values = {"k": 3, "theta_dedup": 0.5, "theta_obj": 0.5}
    flags = [arg for name, value in values.items() for arg in (f"--{name.replace('_', '-')}", str(value))]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values))
    run_all = ["run-all", "--kinds", "temporal-object", "--n", "1", "--modes", "polar", "--out-dir"]
    assert main([*run_all, str(tmp_path / "flags"), *flags]) == 0
    assert main(["--config", str(cfg), *run_all, str(tmp_path / "file")]) == 0
    for name in ("config.json", "metrics.json", "temporal-object/graphs.json", "temporal-object/specs.json"):
        assert filecmp.cmp(tmp_path / "flags" / name, tmp_path / "file" / name, shallow=False), name
    with open(tmp_path / "flags" / "temporal-object" / "graphs.json", encoding="utf-8") as fh:
        [graph] = json.load(fh)["graphs"].values()
    assert graph["thresholds"] == {"theta_dedup": 0.5, "theta_obj": 0.5}

    # the generator's guard checks under the flags: it refuses what the defaults accept
    gen = ["scenario", "gen", "--kind", "compositional-joint", "--n", "1", "--out", str(tmp_path / "s.json")]
    assert main(gen) == 0
    capsys.readouterr()
    assert main([*gen, "--theta-dedup", "0.5", "--theta-obj", "0.5"]) == 1
    assert "must stay distinct" in capsys.readouterr().err
    assert main([*gen, "--k", "0"]) == 1
    assert "k must be >= 1" in capsys.readouterr().err


def test_pipeline_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("POLAR_SEED", raising=False)
    specs = _specs_path(tmp_path, "--seed", "0")
    episodes = str(tmp_path / "episodes.jsonl")
    graphs = str(tmp_path / "graphs.json")
    metrics = str(tmp_path / "metrics.json")
    table = str(tmp_path / "metrics.txt")

    assert main(["acquire", "--specs", specs, "--out", episodes]) == 0
    assert main(["memorize", "--episodes", episodes, "--out", graphs]) == 0
    assert (
        main(
            [
                "eval", "--specs", specs, "--mode", "polar",
                "--graphs", graphs, "--episodes", episodes,
                "--out", metrics, "--table", table,
            ]
        )
        == 0
    )
    report = load_reports(metrics)
    assert len(report) == 1 and report[0].sr == 1.0 and report[0].recall["semantic"] == 1.0

    merged = str(tmp_path / "merged.txt")
    assert main(["report", "--metrics", metrics, metrics, "--out", merged]) == 0
    out = capsys.readouterr().out
    assert out.count("polar") >= 2  # both rows rendered
    with open(merged) as fh:
        assert fh.read().splitlines()[0].startswith("mode")
    with open(table) as fh:
        assert "compositional-single" in fh.read()


def test_eval_polar_without_graphs_is_domain_error(tmp_path, capsys):
    specs = _specs_path(tmp_path)
    code = main(["eval", "--specs", specs, "--mode", "polar", "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "memorize" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["specs", "graphs"])
def test_eval_rejects_wrong_container_type(tmp_path, capsys, bad):
    specs = _specs_path(tmp_path)
    graphs = str(tmp_path / "graphs.json")
    with open(graphs, "w") as fh:
        json.dump({"format_version": 1, "graphs": []}, fh)
    if bad == "specs":
        with open(specs, "w") as fh:
            json.dump({"format_version": 1, "specs": {}}, fh)
    capsys.readouterr()
    code = main(["eval", "--specs", specs, "--mode", "polar", "--graphs", graphs, "--out", str(tmp_path / "m.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("polar: error:") and err.count("\n") == 1 and f"'{bad}'" in err


def test_run_all_requires_out_dir(capsys):
    assert main(["run-all", "--kinds", "distractor"]) == 1
    assert "--out-dir" in capsys.readouterr().err


def test_run_all_rejects_unknown_mode(tmp_path, capsys):
    code = main(["run-all", "--out-dir", str(tmp_path / "runs"), "--modes", "telepathy"])
    assert code == 1
    assert "telepathy" in capsys.readouterr().err


def test_run_all_twice_is_byte_identical(tmp_path, capsys):
    argv = ["run-all", "--seed", "0", "--kinds", "compositional-single", "--modes", "no-prior", "polar", "--n", "1"]
    dirs = (str(tmp_path / "a"), str(tmp_path / "b"))
    for out_dir in dirs:
        assert main(argv + ["--out-dir", out_dir]) == 0
    capsys.readouterr()
    rel_files = sorted(
        os.path.relpath(os.path.join(root, name), dirs[0])
        for root, _, names in os.walk(dirs[0])
        for name in names
    )
    assert rel_files, "run-all wrote nothing"
    assert "config.json" in rel_files and "metrics.json" in rel_files
    for kind_file in ("specs.json", "episodes.jsonl", "graphs.json", "metrics.json", "metrics.txt", "world.json"):
        assert os.path.join("compositional-single", kind_file) in rel_files
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], rel_files, shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == rel_files


@pytest.fixture(scope="module")
def run_all_metrics(tmp_path_factory) -> dict:
    """The merged metrics.json of a small run-all: no-prior's SR is 0.6 there, polar's 1.0."""
    out_dir = tmp_path_factory.mktemp("run-all")
    argv = ["run-all", "--seed", "0", "--kinds", "distractor", "--n", "5", "--modes", "no-prior", "polar"]
    assert main([*argv, "--out-dir", str(out_dir)]) == 0
    return json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "edit", [None, ("mode", "telepathy"), ("sr", 0.99)], ids=["as-written", "unknown-mode", "sr-not-its-rows"]
)
def test_report_takes_only_reports_that_their_rows_give(tmp_path, capsys, run_all_metrics, edit):
    doc = copy.deepcopy(run_all_metrics)
    assert doc["reports"][0]["mode"] == "no-prior" and doc["reports"][0]["sr"] == 0.6
    if edit is not None:
        key, value = edit
        doc["reports"][0][key] = value
    metrics, table = tmp_path / "metrics.json", tmp_path / "table.txt"
    metrics.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["report", "--metrics", str(metrics), "--out", str(table)])
    captured = capsys.readouterr()
    if edit is None:
        assert code == 0 and table.read_text(encoding="utf-8") == captured.out
        assert "0.6000" in captured.out.splitlines()[2]
        return
    assert code == 1 and captured.out == "" and not table.exists()
    assert captured.err.startswith("polar: error:") and captured.err.count("\n") == 1


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """Valid specs, episodes, graphs and metrics files from one compositional-single spec."""
    d = tmp_path_factory.mktemp("staged")
    paths = {name: str(d / f"{name}.json") for name in ("specs", "graphs", "metrics")}
    paths["episodes"] = str(d / "episodes.jsonl")
    assert main(["scenario", "gen", "--seed", "0", "--kind", "compositional-single", "--n", "1", "--out", paths["specs"]]) == 0
    assert main(["acquire", "--specs", paths["specs"], "--out", paths["episodes"]]) == 0
    assert main(["memorize", "--episodes", paths["episodes"], "--out", paths["graphs"]]) == 0
    assert main(["eval", "--specs", paths["specs"], "--mode", "no-prior", "--out", paths["metrics"]]) == 0
    return paths


# the input files each evaluation mode needs besides --specs
_NEEDED_INPUTS = {
    "no-prior": (),
    "raw-interaction": ("--episodes",),
    "polar": ("--graphs",),
    "polar-instruction-only": ("--graphs",),
    "polar-raw-trajectory": ("--graphs", "--episodes"),
    "polar-summary": ("--graphs",),
}


@pytest.mark.parametrize("mode", sorted(_NEEDED_INPUTS))
def test_eval_runs_on_the_inputs_its_mode_needs_and_refuses_without_each(tmp_path, capsys, staged, mode):
    paths = {"--graphs": staged["graphs"], "--episodes": staged["episodes"]}

    def eval_with(flags, out):
        inputs = [arg for flag in flags for arg in (flag, paths[flag])]
        return main(["eval", "--specs", staged["specs"], "--mode", mode, *inputs, "--out", str(tmp_path / out)])

    needed = _NEEDED_INPUTS[mode]
    assert eval_with(needed, "m.json") == 0
    capsys.readouterr()
    for dropped in needed:
        assert eval_with([flag for flag in needed if flag != dropped], f"without{dropped}.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("polar: error:") and err.count("\n") == 1 and mode in err
        assert not (tmp_path / f"without{dropped}.json").exists()


def test_eval_raw_trajectory_refuses_episodes_that_miss_one_the_graph_names(tmp_path, capsys, staged):
    [spec] = load_specs(staged["specs"])
    with open(staged["episodes"], encoding="utf-8") as fh:
        lines = [line for line in fh if json.loads(line)["target_object_id"] != spec.gold_object_id]
    episodes = tmp_path / "episodes.jsonl"
    episodes.write_text("".join(lines), encoding="utf-8")
    argv = ["eval", "--specs", staged["specs"], "--mode", "polar-raw-trajectory", "--graphs", staged["graphs"]]
    assert main([*argv, "--episodes", str(episodes), "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("polar: error:") and err.count("\n") == 1 and "names episode" in err


def _file_flag_argv(flag: str, path: str, staged: dict, out: str) -> list[str]:
    return {
        "--config": ["--config", path, "world", "gen", "--out", out],
        "--specs": ["eval", "--specs", path, "--mode", "no-prior", "--out", out],
        "acquire --specs": ["acquire", "--specs", path, "--out", out],
        "--episodes": ["memorize", "--episodes", path, "--out", out],
        "--graphs": ["eval", "--specs", staged["specs"], "--mode", "polar", "--graphs", path, "--out", out],
        "--metrics": ["report", "--metrics", path, "--out", out],
    }[flag]


def _huge(key: str):
    """The staged file with the first integer value of key replaced by 1e400."""
    return lambda text: re.sub(f'("{key}": )\\d+', r"\g<1>1e400", text, count=1)


def _retyped(key: str):
    """The staged file with the first value of key replaced by the number 5."""
    return lambda text: text.replace(f'"{key}": ', f'"{key}": 5, "was": ', 1)


def _quoted_bool(key: str):
    """The staged file with the first boolean value of key replaced by the string "false"."""
    return lambda text: re.sub(f'("{key}": )(true|false)', r'\g<1>"false"', text, count=1)


def _quoted_number(key: str):
    """The staged file with the first number value of key replaced by that number as a string."""
    return lambda text: re.sub(f'("{key}": )(-?[0-9][0-9.eE+-]*)', r'\g<1>"\g<2>"', text, count=1)


def _vector(key: str, mutate_numbers):
    """The staged file with the first list of numbers at key rewritten by mutate_numbers
    (the list's text in, its new text out)."""

    def mutate(text: str) -> str:
        start = text.index(f'"{key}": [') + len(f'"{key}": ')
        end = text.index("]", start) + 1
        return text[:start] + mutate_numbers(text[start:end]) + text[end:]

    return mutate


def _quote_numbers(text: str) -> str:
    return re.sub(r"-?[0-9][0-9.eE+-]*", r'"\g<0>"', text)


def _object_missing(text: str) -> str:
    """The staged specs with the last world object's category renamed, so that a
    script names an object the spec's world lacks."""
    doc = json.loads(text)
    doc["specs"][0]["world_objects"][-1][0] = "gadget"
    return json.dumps(doc)


_NOT_UTF8 = b'{"format_version": 1, "note": "\xff"}'


@pytest.mark.parametrize(
    "flag, source, mutate",
    [
        ("--config", None, lambda text: _NOT_UTF8),
        ("--specs", None, lambda text: _NOT_UTF8),
        ("--episodes", None, lambda text: _NOT_UTF8),
        ("--graphs", None, lambda text: _NOT_UTF8),
        ("--metrics", None, lambda text: _NOT_UTF8),
        ("--metrics", None, lambda text: '{"format_version": 1, "reports": 5}'),
        ("--specs", None, lambda text: '{"format_version": 1}'),
        ("--graphs", None, lambda text: '{"format_version": 1}'),
        ("--metrics", None, lambda text: '{"format_version": 1}'),
        ("--specs", "specs", _huge("timestamp")),
        ("--episodes", "episodes", _huge("timestamp")),
        ("--metrics", "metrics", _huge("n")),
        ("--metrics", "metrics", lambda text: text.replace('"sr": ', '"sr": "high", "was": ', 1)),
        ("--graphs", "graphs", _retyped("statement")),
        ("--specs", "specs", _retyped("eval_instruction")),
        ("--episodes", "episodes", _retyped("instruction")),
        ("--metrics", "metrics", _retyped("mode")),
        ("--metrics", "metrics", _retyped("kind")),
        ("--episodes", "episodes", _quoted_bool("success")),
        ("--graphs", "graphs", _quoted_bool("active")),
        ("--episodes", "episodes", _quoted_number("timestamp")),
        ("--episodes", "episodes", _quoted_number("heading")),
        ("--episodes", "episodes", lambda text: re.sub(r'"position": \[[^]]*\]', '"position": ["0.5", 1]', text, count=1)),
        ("--episodes", "episodes", lambda text: re.sub(r'("heading": )(\d+)', r"\g<1>\g<2>.0", text, count=1)),
        ("--specs", "specs", _quoted_number("agent_heading")),
        ("--specs", "specs", lambda text: re.sub(r'("eval_gold_position": \[\s*)([0-9.]+)', r'\g<1>"\g<2>"', text, count=1)),
        ("--graphs", "graphs", _quoted_number("timestamp")),
        ("--graphs", "graphs", _quoted_number("semantic")),
        ("acquire --specs", "specs", _object_missing),
        ("--episodes", "episodes", _vector("reference_feature", _quote_numbers)),
        ("--episodes", "episodes", _vector("reference_feature", lambda v: "[true" + ", false" * (v.count(",")) + "]")),
        ("--episodes", "episodes", _vector("reference_feature", lambda v: "0")),
        ("--graphs", "graphs", _vector("embedding", _quote_numbers)),
        ("--episodes", "episodes", lambda text: re.sub(r'"facts": \[\[[^]]*\]', '"facts": ["ab"', text, count=1)),
        ("acquire --specs", "specs", lambda text: re.sub(r'("agent_heading": )\d+', r"\g<1>45", text, count=1)),
        ("--specs", "specs", lambda text: re.sub(r'("eval_agent_heading": )\d+', r"\g<1>45", text, count=1)),
    ],
    ids=[
        "config-not-utf8", "specs-not-utf8", "episodes-not-utf8", "graphs-not-utf8", "metrics-not-utf8",
        "metrics-reports-not-list", "specs-key-missing", "graphs-key-missing", "metrics-key-missing",
        "specs-1e400", "episodes-1e400", "metrics-1e400", "metrics-sr-string",
        "graphs-statement-number", "specs-eval-instruction-number", "episodes-instruction-number",
        "metrics-mode-number", "metrics-kind-number", "episodes-success-string", "graphs-active-string",
        "episodes-timestamp-string", "episodes-heading-string", "episodes-position-strings", "episodes-heading-float",
        "specs-heading-string", "specs-position-string", "graphs-timestamp-string", "graphs-counter-string",
        "acquire-specs-object-missing", "episodes-feature-strings", "episodes-feature-booleans",
        "episodes-feature-number", "graphs-embedding-strings", "episodes-fact-pair-string",
        "acquire-specs-heading-off-grid", "specs-eval-heading-off-grid",
    ],
)
def test_malformed_file_flag_is_one_line_domain_error(tmp_path, capsys, staged, flag, source, mutate):
    text = ""
    if source is not None:
        with open(staged[source], encoding="utf-8") as fh:
            text = fh.read()
    data = mutate(text)
    data = data if isinstance(data, bytes) else data.encode("utf-8")
    assert data != text.encode("utf-8")
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    capsys.readouterr()
    code = main(_file_flag_argv(flag, str(bad), staged, str(tmp_path / "out.json")))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("polar: error:") and err.count("\n") == 1
