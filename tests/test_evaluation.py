import dataclasses
import json

import pytest

from polar.distiller import digest_found_in, summarize_episodic, summary_digest, trajectory_text
from polar.errors import ConfigurationError, ParseError, RejectedInput
from polar.fileio import record_to_json
from polar.evaluation import (
    MODES,
    RAW_SAMPLE_SIZE,
    MetricsReport,
    _all_retrievers_hit,
    _raw_sample,
    acquire,
    evaluate,
    group_by_scenario,
    load_graphs,
    load_reports,
    memorize_suite,
    render_table,
    save_graphs,
    spl_term,
    world_for_spec,
    write_report,
)
from polar.agent import MAX_STEPS, SUCCESS_RADIUS_M
from polar.retrieval import retrieve
from polar.scenarios import gen_scenarios


@pytest.fixture(scope="module")
def single_suite():
    specs = gen_scenarios(0, "compositional-single", 2)
    episodes = [log for spec in specs for log in acquire(spec)]
    graphs = memorize_suite(episodes)
    return specs, group_by_scenario(episodes), graphs


@pytest.fixture(scope="module")
def joint_suite():
    specs = gen_scenarios(0, "compositional-joint", 1)
    episodes = [log for spec in specs for log in acquire(spec)]
    return specs, group_by_scenario(episodes), memorize_suite(episodes)


# -- acquisition -------------------------------------------------------------------


def test_acquire_executes_every_script(single_suite):
    specs, episodes, _ = single_suite
    for spec in specs:
        logs = episodes[spec.scenario_id]
        assert len(logs) == len(spec.scripts)
        assert [log.episode_id for log in logs] == [
            f"{spec.scenario_id}:acq:{i:02d}" for i in range(len(spec.scripts))
        ]
        assert all(log.success for log in logs)
        assert sorted(log.timestamp for log in logs) == sorted(s.timestamp for s in spec.scripts)


def test_acquire_is_deterministic(single_suite):
    specs, episodes, _ = single_suite
    again = acquire(specs[0])
    have = [record_to_json(e) for e in episodes[specs[0].scenario_id]]
    want = [record_to_json(e) for e in again]
    assert json.dumps(have, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_group_by_scenario_keys_on_episode_prefix(single_suite):
    _, episodes, _ = single_suite
    for scenario_id, group in episodes.items():
        assert all(log.episode_id.startswith(f"{scenario_id}:") for log in group)


def test_memorize_suite_isolates_scenarios(single_suite):
    specs, episodes, graphs = single_suite
    assert sorted(graphs) == sorted(s.scenario_id for s in specs)
    for scenario_id, graph in graphs.items():
        stored = {node.episode_id for node in graph.episodic.values()}
        assert stored == {log.episode_id for log in episodes[scenario_id]}


def test_save_load_graphs_round_trip(single_suite, tmp_path):
    _, _, graphs = single_suite
    path = tmp_path / "graphs.json"
    save_graphs(graphs, str(path))
    loaded = load_graphs(str(path))
    assert sorted(loaded) == sorted(graphs)
    for key, graph in graphs.items():
        assert loaded[key].to_json() == graph.to_json()


def test_load_graphs_rejects_bad_input(tmp_path):
    bad_version = tmp_path / "v9.json"
    bad_version.write_text(json.dumps({"format_version": 9, "graphs": {}}))
    with pytest.raises(ParseError):
        load_graphs(str(bad_version))
    not_json = tmp_path / "junk.json"
    not_json.write_text("{nope")
    with pytest.raises(ParseError):
        load_graphs(str(not_json))
    graphs_list = tmp_path / "list.json"
    graphs_list.write_text(json.dumps({"format_version": 1, "graphs": []}))
    with pytest.raises(ParseError):
        load_graphs(str(graphs_list))


def test_world_for_spec_is_cached(single_suite):
    specs, _, _ = single_suite
    assert world_for_spec(specs[0]) is world_for_spec(specs[0])
    # same chassis across a suite -> same cached world
    assert world_for_spec(specs[0]) is world_for_spec(specs[1])


def test_world_for_spec_is_the_world_gen_scenarios_built(monkeypatch):
    import polar.world

    built = []

    def recording_gen_world(*args):
        built.append(real_gen_world(*args))
        return built[-1]

    real_gen_world = polar.world.gen_world
    monkeypatch.setattr(polar.world, "gen_world", recording_gen_world)
    monkeypatch.setattr(polar.world, "_WORLD_CACHE", {})
    specs = gen_scenarios(0, "compositional-single", 1)
    assert world_for_spec(specs[0]) is built[0]
    assert len(built) == 1


# -- evaluation contexts -----------------------------------------------------------


def test_raw_sample_keeps_gold_and_caps_size(joint_suite):
    specs, episodes, _ = joint_suite
    spec = specs[0]
    logs = episodes[spec.scenario_id]
    assert len(logs) > RAW_SAMPLE_SIZE
    sample = _raw_sample(spec, logs, seed=0)
    assert len(sample) == RAW_SAMPLE_SIZE
    gold = {e.episode_id for e in logs if e.target_object_id == spec.gold_object_id}
    assert gold <= {e.episode_id for e in sample}
    keys = [(e.timestamp, e.episode_id) for e in sample]
    assert keys == sorted(keys)
    again = _raw_sample(spec, logs, seed=0)
    assert [e.episode_id for e in again] == [e.episode_id for e in sample]


def test_summary_digest_round_trips_through_prior_room(single_suite):
    specs, episodes, _ = single_suite
    node = summarize_episodic(episodes[specs[0].scenario_id][0])
    assert node.success
    digest = summary_digest(node)
    assert digest.startswith(f"found it in {node.found_room} after searching ")
    assert digest_found_in(digest) == node.found_room
    failed = dataclasses.replace(node, success=False)
    assert summary_digest(failed).startswith("failed after searching ")
    assert digest_found_in(summary_digest(failed)) is None


def test_polar_rows_swap_episodic_renderings(single_suite):
    specs, episodes, graphs = single_suite
    spec = specs[0]
    graph = graphs[spec.scenario_id]
    logs = episodes[spec.scenario_id]
    result = retrieve(graph, spec.eval_instruction, 5)
    assert any(cand.episodic_memories for cand in result.candidates)

    def context(mode, logs=logs):
        return MODES[mode].context(graph=graph, logs=logs, result=result)

    assert context("polar") is result

    bare = context("polar-instruction-only")
    assert all(cand.episodic_memories == [] for cand in bare.candidates)

    raw = context("polar-raw-trajectory")
    traces = {trajectory_text(e) for e in logs}
    assert any(cand.episodic_memories for cand in raw.candidates)
    for cand in raw.candidates:
        assert set(cand.episodic_memories) <= traces

    remembered = next(cand for cand in result.candidates if cand.episodic_memories)
    named = {graph.episodic[e].episode_id for e, _ts in graph.neighbors(remembered.object_id, kind="episodic")}
    with pytest.raises(ConfigurationError, match="names episode"):  # an episodes file that lacks them
        context("polar-raw-trajectory", logs=[e for e in logs if e.episode_id not in named])

    digests = context("polar-summary")
    for cand in digests.candidates:
        for text in cand.episodic_memories:
            assert text.startswith(("found it in ", "failed after searching "))

    for swapped in (bare, raw, digests):
        assert [c.object_id for c in swapped.candidates] == [c.object_id for c in result.candidates]
        assert swapped.hits == result.hits


# -- metrics -----------------------------------------------------------------------


def test_spl_term_formula():
    assert spl_term(True, 10.0, 8.0) == 0.8
    assert spl_term(False, 10.0, 8.0) == 0.0
    assert spl_term(True, 0.0, 0.0) == 1.0
    assert spl_term(True, 5.0, 8.0) == 1.0  # p < l never exceeds 1
    assert spl_term(False, 0.0, 0.0) == 0.0


def test_aggregate_handles_empty_and_means():
    empty = MetricsReport("polar", "distractor", [])
    assert (empty.n, empty.sr, empty.spl, empty.cm) == (0, None, None, None)
    assert empty.recall == {"semantic": None, "bm25": None, "dense": None}
    rows = [
        {"success": 1, "spl": 0.5, "cm": 0, "recall_semantic": 1.0, "recall_bm25": None, "recall_dense": 0.5},
        {"success": 0, "spl": 0.0, "cm": 1, "recall_semantic": 0.0, "recall_bm25": None, "recall_dense": None},
    ]
    report = MetricsReport("polar", "distractor", rows)
    assert (report.n, report.sr, report.spl, report.cm) == (2, 0.5, 0.25, 0.5)
    assert report.recall == {"semantic": 0.5, "bm25": None, "dense": 0.5}  # each over the rows that have it


def test_all_retrievers_hit_requires_every_present_recall():
    row = {"recall_semantic": 1.0, "recall_bm25": 1.0, "recall_dense": None}
    assert _all_retrievers_hit(row)
    assert not _all_retrievers_hit({**row, "recall_bm25": 0.5})
    assert not _all_retrievers_hit({"recall_semantic": None, "recall_bm25": None, "recall_dense": None})


# -- evaluate ----------------------------------------------------------------------


def test_evaluate_validates_inputs(single_suite):
    specs, episodes, graphs = single_suite
    with pytest.raises(RejectedInput):
        evaluate(specs, "telepathy")
    with pytest.raises(ConfigurationError):
        evaluate(specs, "polar")  # no graphs
    with pytest.raises(ConfigurationError):
        evaluate(specs, "raw-interaction")  # no episodes
    with pytest.raises(ConfigurationError):
        evaluate(specs, "polar-raw-trajectory", graphs=graphs)  # no episodes to render trajectories from


def test_evaluate_no_prior_reports_without_recall(single_suite):
    specs, _, _ = single_suite
    report = evaluate(specs, "no-prior")
    assert (report.mode, report.kind, report.n) == ("no-prior", "compositional-single", len(specs))
    assert report.sr is not None and report.spl is not None and report.cm is not None
    assert report.recall == {"semantic": None, "bm25": None, "dense": None}
    for row in report.rows:
        assert row["recall_semantic"] is None and row["recall_bm25"] is None
        assert row["grounded_object_id"] == ""  # category-only grounding
        assert 0 <= row["spl"] <= 1
        assert row["steps"] <= MAX_STEPS


def test_evaluate_polar_finds_relocated_gold(single_suite):
    specs, episodes, graphs = single_suite
    report = evaluate(specs, "polar", graphs=graphs, episodes=episodes)
    assert report.sr == 1.0
    assert report.recall["semantic"] == 1.0
    assert report.recall["bm25"] is not None and report.recall["dense"] is not None
    for row in report.rows:
        assert row["grounding_correct"] == 1
        assert row["shortest_m"] is not None
        # success within the 2 m radius may undercut the full start->gold path,
        # but never by more than that radius; SPL stays in (0, 1]
        assert row["path_m"] >= row["shortest_m"] - SUCCESS_RADIUS_M - 1e-9
        assert 0 < row["spl"] <= 1


def test_evaluate_every_mode_runs(single_suite):
    specs, episodes, graphs = single_suite
    for mode in MODES:
        report = evaluate(specs, mode, graphs=graphs, episodes=episodes)
        assert report.n == len(specs)
        assert report.mode == mode
        row_keys = {
            "spec_id", "kind", "success", "path_m", "shortest_m", "spl", "cm",
            "grounded_object_id", "grounding_correct", "steps",
            "recall_semantic", "recall_bm25", "recall_dense",
        }
        assert all(row_keys <= set(row) for row in report.rows)
        if mode.startswith("polar"):
            assert report.recall["semantic"] is not None


def test_only_retrieval_hits_drops_rows_without_recall(single_suite):
    specs, episodes, graphs = single_suite
    # no-prior rows never carry recall values, so the filter empties the report
    report = evaluate(specs, "no-prior", only_retrieval_hits=True)
    assert report.n == 0 and report.sr is None
    kept = evaluate(specs, "polar", graphs=graphs, episodes=episodes, only_retrieval_hits=True)
    assert kept.n == len(specs)


def test_evaluate_mixed_kinds_labels_report(single_suite):
    specs, _, _ = single_suite
    other = gen_scenarios(0, "distractor", 1)
    report = evaluate(specs + other, "no-prior")
    assert report.kind == "mixed"
    assert report.n == len(specs) + 1


# -- reporting ---------------------------------------------------------------------


def test_render_table_picks_primary_retriever(single_suite):
    specs, episodes, graphs = single_suite
    no_prior = evaluate(specs, "no-prior")
    polar = evaluate(specs, "polar", graphs=graphs, episodes=episodes)
    raw = evaluate(specs, "raw-interaction", episodes=episodes)
    table = render_table([no_prior, polar, raw])
    lines = table.splitlines()
    assert lines[0].startswith("mode") and lines[0].rstrip().endswith("recall@5")
    assert lines[1] == "-" * len(lines[0])
    assert len(lines) == 2 + 3
    assert lines[2].rstrip().endswith("n/a")  # no-prior has no retriever
    assert f"{polar.recall['semantic']:.4f}" in lines[3]
    assert f"{raw.recall['bm25']:.4f}" in lines[4]


def test_write_and_load_reports_round_trip(single_suite, tmp_path):
    specs, episodes, graphs = single_suite
    report = evaluate(specs, "polar", graphs=graphs, episodes=episodes)
    json_path, table_path = tmp_path / "metrics.json", tmp_path / "metrics.txt"
    table = write_report([report], str(json_path), str(table_path))
    assert table_path.read_text() == table == render_table([report])
    loaded = load_reports(str(json_path))
    assert len(loaded) == 1
    assert loaded[0].to_json() == report.to_json()


def test_load_reports_rejects_bad_input(tmp_path):
    bad_version = tmp_path / "v9.json"
    bad_version.write_text(json.dumps({"format_version": 9, "reports": []}))
    with pytest.raises(ParseError):
        load_reports(str(bad_version))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"format_version": 1, "reports": [{"mode": "polar"}]}))
    with pytest.raises(ParseError):
        load_reports(str(missing))
    not_json = tmp_path / "junk.json"
    not_json.write_text("][")
    with pytest.raises(ParseError):
        load_reports(str(not_json))


def test_metrics_report_to_json_shape(single_suite):
    specs, _, _ = single_suite
    report = evaluate(specs[:1], "no-prior")
    doc = report.to_json()
    assert set(doc) == {"mode", "kind", "n", "sr", "spl", "cm", "recall", "rows"}
    assert MetricsReport(doc["mode"], doc["kind"], doc["rows"]).to_json() == doc
    with pytest.raises(TypeError):
        MetricsReport(**doc)  # the aggregates are computed from the rows, never passed in
