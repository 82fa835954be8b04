"""The benchmark calls polar in fixed shapes: stage timers that count items from the
CLI's call arguments and results, replay's one-argument memorize_suite, and lifelong's
memorize / retrieve / ground loop. A signature slip must fail here, not only when the
benchmark runs."""

import importlib
import json
from pathlib import Path

import polar.agent
import polar.cli
import polar.distiller
import polar.evaluation
import polar.graph
import polar.retrieval
import polar.scenarios

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_benchmark_call_shapes(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    bindings = {"gen": "gen_scenarios", "acquire": "acquire", "memorize": "memorize_suite", "eval": "evaluate"}
    for name in bindings.values():  # the timers patch these bindings; monkeypatch restores them
        monkeypatch.setattr(polar.cli, name, getattr(polar.cli, name))
    monkeypatch.setattr(polar.evaluation, "retrieve", polar.evaluation.retrieve)
    timers = workloads._stage_timers((*bindings, "query"))

    out_dir = tmp_path / "run"
    modes = ("no-prior", "polar")
    argv = ["run-all", "--kinds", "temporal-object", "--n", "1", "--modes", *modes, "--out-dir", str(out_dir)]
    assert polar.cli.main(argv) == 0
    capsys.readouterr()
    items = {name: timer.take()[1] for name, timer in timers.items()}
    episodes = polar.distiller.load_episodes(str(out_dir / "temporal-object" / "episodes.jsonl"))
    assert items == {"gen": 1, "acquire": len(episodes), "memorize": len(episodes), "eval": len(modes),
                     "query": len(modes)}

    # replay: memorize_suite with the episodes alone rebuilds graphs.json
    with open(out_dir / "temporal-object" / "graphs.json", encoding="utf-8") as fh:
        saved = json.load(fh)["graphs"]
    rebuilt = polar.evaluation.memorize_suite(episodes)
    assert {sid: json.loads(json.dumps(g.to_json())) for sid, g in rebuilt.items()} == saved

    # lifelong: one default graph, positional memorize, retrieve with k, ground the result
    graph = polar.graph.MemoryGraph()
    for episode in episodes:
        polar.distiller.memorize(episode, graph)
    [spec] = polar.scenarios.load_specs(str(out_dir / "temporal-object" / "specs.json"))
    result = polar.retrieval.retrieve(graph, spec.eval_instruction, 5)
    decision = polar.agent.OraclePlanner().ground(spec.eval_instruction, result)
    assert decision.chosen_object_id == spec.gold_object_id
