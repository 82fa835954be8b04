"""Command-line pipeline.

Stages communicate only through files so each one is inspectable and
re-runnable on its own:

    polar world gen      --seed 0 --n-rooms 6 --out world.json [--render]
    polar scenario gen   --seed 0 --kind compositional-single --n 50 --out specs.json
    polar acquire        --specs specs.json --out episodes.jsonl
    polar memorize       --episodes episodes.jsonl --out graphs.json
    polar eval           --specs specs.json --mode polar --graphs graphs.json \
                         --episodes episodes.jsonl --out metrics.json [--table metrics.txt]
    polar report         --metrics metrics.json [more.json ...] --out table.txt
    polar run-all        --seed 0 --out-dir runs/seed0 [--kinds ...] [--modes ...] [--n 5]

`main` resolves one frozen PipelineConfig before any command runs. Every field
a command reads takes its flag, then the --config file, then its default; the
seed alone also reads POLAR_SEED before its default of 0. PipelineConfig.settings
bundles k, the thresholds and the encoder into the one MemorySettings that
generation, memorize_suite and evaluate take, and run-all passes each stage
exactly what the staged command passes, so both honour the same fields.
run-all's config.json records seed, kinds, modes, n and n_rooms.
Exit codes: 0 success, 1 domain error (one-line reason on stderr), 2 usage error.

Each command runs with the cycle collector paused, and `main` restores the
caller's collector state on the way out. polar's records (trajectory steps,
graph nodes, parsed JSON) hold no reference cycles, so reference counting
frees them; left running, the collector would scan the ~100k live records of
a staged episode load hundreds of times per command and free nothing. The
cyclic garbage a command does leave (about 500 objects, its argument parser)
waits for the caller's next collection.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import typing
from dataclasses import dataclass, fields

from .distiller import load_episodes, save_episodes
from .encoder import DEFAULT_ENCODER, EncoderConfig
from .errors import ParseError, PolarError, RejectedInput
from .evaluation import (
    MODES,
    acquire,
    evaluate,
    group_by_scenario,
    load_graphs,
    load_reports,
    memorize_suite,
    render_table,
    save_graphs,
    world_for_spec,
    write_report,
)
from .fileio import MALFORMED, atomic_write_text, dump_json, read_json, record_from_json
from .retrieval import DEFAULT_SETTINGS, MemorySettings
from .scenarios import DEFAULT_N_ROOMS, KINDS, gen_scenarios, load_specs, save_specs
from .world import gen_world

DEFAULT_MODES = ("no-prior", "raw-interaction", "polar")


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting a command reads. The field names are the config file's keys
    and the flags' dests."""

    seed: int = 0
    n_rooms: int = DEFAULT_N_ROOMS
    n: int = 5  # specs per kind
    k: int = DEFAULT_SETTINGS.k
    theta_dedup: float = DEFAULT_SETTINGS.theta_dedup
    theta_obj: float = DEFAULT_SETTINGS.theta_obj
    kinds: tuple[str, ...] = KINDS
    modes: tuple[str, ...] = DEFAULT_MODES
    encoder_mode: str = DEFAULT_ENCODER.mode
    encoder_endpoint: str | None = DEFAULT_ENCODER.endpoint
    encoder_dim: int = DEFAULT_ENCODER.dim
    out_dir: str | None = None

    def __post_init__(self):
        for name, known in (("kinds", KINDS), ("modes", MODES)):
            values = getattr(self, name)
            if not values or any(v not in known for v in values):
                raise RejectedInput(f"{name} must name one or more of {', '.join(known)}; got {list(values)!r}")
        self.settings  # an invalid encoder setting fails here, before any file is written

    @property
    def settings(self) -> MemorySettings:
        """The memory settings every stage takes: the generator's guard, memorize_suite, evaluate."""
        encoder = EncoderConfig(mode=self.encoder_mode, dim=self.encoder_dim, endpoint=self.encoder_endpoint)
        return MemorySettings(encoder, self.theta_dedup, self.theta_obj, self.k)


_HINTS = typing.get_type_hints(PipelineConfig)


def _load_config(path: str | None) -> dict:
    """The fields a config file sets, each read by the record codec for its hint (so
    an int widens to a float and a bool is no number); null leaves a `str | None`
    field unset."""
    if path is None:
        return {}
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("config file must hold a flat object")
    config = {}
    for key, value in doc.items():
        if key not in _HINTS:
            raise RejectedInput(f"unknown config field {key!r}")
        try:
            value = record_from_json(_HINTS[key], value)
        except MALFORMED as exc:
            raise RejectedInput(f"config field {key!r}: {exc}") from exc
        if value is not None:
            config[key] = value
    return config


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """The run's configuration: each field's flag, then the --config file, then
    POLAR_SEED for the seed, then the default. Takes the fields' flags out of
    args, so a command sees only its own files and switches."""
    from_file = _load_config(args.config)
    flags = vars(args)
    values = {}
    for field in fields(PipelineConfig):
        value = flags.pop(field.name, None)
        value = from_file.get(field.name) if value is None else value
        if value is not None:
            values[field.name] = tuple(value) if isinstance(value, list) else value
    env = os.environ.get("POLAR_SEED")
    if "seed" not in values and env is not None:
        try:
            values["seed"] = int(env)
        except ValueError as exc:
            raise RejectedInput(f"POLAR_SEED must be an integer, got {env!r}") from exc
    return PipelineConfig(**values)


# -- subcommand bodies -------------------------------------------------------------


def _parse_objects(pairs: list[str] | None) -> list[tuple[str, int]] | None:
    if not pairs:
        return None
    spec = []
    for pair in pairs:
        category, sep, count = pair.partition("=")
        if not sep or not category:
            raise RejectedInput(f"--objects wants category=count, got {pair!r}")
        try:
            spec.append((category, int(count)))
        except ValueError as exc:
            raise RejectedInput(f"--objects count must be an integer, got {pair!r}") from exc
    return spec


def _cmd_world_gen(config, args):
    world = gen_world(config.seed, config.n_rooms, _parse_objects(args.objects))
    world.save(args.out)
    if args.render:
        sys.stdout.write(world.render_ascii() + "\n")
    return 0


def _cmd_scenario_gen(config, args):
    specs = []
    for kind in config.kinds:
        specs.extend(gen_scenarios(config.seed, kind, config.n, n_rooms=config.n_rooms, settings=config.settings))
    save_specs(specs, args.out)
    sys.stdout.write(f"wrote {len(specs)} specs to {args.out}\n")
    return 0


def _cmd_acquire(config, args):
    specs = load_specs(args.specs)
    episodes = []
    for spec in sorted(specs, key=lambda s: s.scenario_id):
        episodes.extend(acquire(spec))
    save_episodes(episodes, args.out)
    sys.stdout.write(f"wrote {len(episodes)} episodes to {args.out}\n")
    return 0


def _cmd_memorize(config, args):
    graphs = memorize_suite(load_episodes(args.episodes), config.settings)
    save_graphs(graphs, args.out)
    sys.stdout.write(f"wrote {len(graphs)} graphs to {args.out}\n")
    return 0


def _cmd_eval(config, args):
    specs = load_specs(args.specs)
    graphs = load_graphs(args.graphs) if args.graphs else None
    episodes = group_by_scenario(load_episodes(args.episodes)) if args.episodes else None
    report = evaluate(
        specs, args.mode, config.settings, seed=config.seed, graphs=graphs, episodes=episodes,
        only_retrieval_hits=args.only_retrieval_hits,
    )
    table = write_report([report], args.out, args.table)
    sys.stdout.write(table)
    return 0


def _cmd_report(config, args):
    reports = []
    for path in args.metrics:
        reports.extend(load_reports(path))
    table = render_table(reports)
    atomic_write_text(args.out, table)
    sys.stdout.write(table)
    return 0


def _cmd_run_all(config, args):
    out_dir = config.out_dir
    if not out_dir:
        raise RejectedInput("run-all needs --out-dir (or out_dir in the config file)")
    # every kind's specs before any file: a kind the generator refuses leaves no partial tree
    settings = config.settings
    suites = [
        (kind, gen_scenarios(config.seed, kind, config.n, n_rooms=config.n_rooms, settings=settings))
        for kind in config.kinds
    ]
    os.makedirs(out_dir, exist_ok=True)
    recorded = ("seed", "kinds", "modes", "n", "n_rooms")  # json writes the tuples as lists
    dump_json(os.path.join(out_dir, "config.json"), {name: getattr(config, name) for name in recorded})
    all_reports = []
    for kind, specs in suites:
        kind_dir = os.path.join(out_dir, kind)
        os.makedirs(kind_dir, exist_ok=True)
        save_specs(specs, os.path.join(kind_dir, "specs.json"))
        world = world_for_spec(specs[0])
        world.save(os.path.join(kind_dir, "world.json"))
        episodes = []
        for spec in specs:
            episodes.extend(acquire(spec))
        save_episodes(episodes, os.path.join(kind_dir, "episodes.jsonl"))
        graphs = memorize_suite(episodes, settings)
        save_graphs(graphs, os.path.join(kind_dir, "graphs.json"))
        by_scenario = group_by_scenario(episodes)
        reports = [
            evaluate(specs, mode, settings, seed=config.seed, graphs=graphs, episodes=by_scenario)
            for mode in config.modes
        ]
        write_report(reports, os.path.join(kind_dir, "metrics.json"), os.path.join(kind_dir, "metrics.txt"))
        all_reports.extend(reports)
    table = write_report(all_reports, os.path.join(out_dir, "metrics.json"), os.path.join(out_dir, "metrics.txt"))
    sys.stdout.write(table)
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polar", description="object-centric memory graphs for embodied navigation")
    parser.add_argument("--config", help="JSON config file with pipeline defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None, help="base seed (default: config, then POLAR_SEED, then 0)")

    def add_encoder(p):
        p.add_argument("--encoder-mode", choices=("builtin", "remote"), default=None)
        p.add_argument("--encoder-endpoint", default=None)
        p.add_argument("--encoder-dim", type=int, default=None)

    def add_thresholds(p):
        p.add_argument("--theta-dedup", type=float, default=None)
        p.add_argument("--theta-obj", type=float, default=None)

    world = sub.add_parser("world", help="world utilities").add_subparsers(dest="world_command", required=True)
    world_gen = world.add_parser("gen", help="generate a deterministic house world")
    add_seed(world_gen)
    world_gen.add_argument("--n-rooms", type=int, default=None)
    world_gen.add_argument("--objects", nargs="+", default=None, metavar="CATEGORY=COUNT")
    world_gen.add_argument("--out", required=True)
    world_gen.add_argument("--render", action="store_true", help="also print the text map")
    world_gen.set_defaults(func=_cmd_world_gen)

    scenario = sub.add_parser("scenario", help="scenario utilities").add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_gen = scenario.add_parser("gen", help="generate scenario specs")
    add_seed(scenario_gen)
    scenario_gen.add_argument(
        "--kind", dest="kinds", action="append", choices=KINDS, default=None, help="repeatable; default: all kinds"
    )
    scenario_gen.add_argument("--n", type=int, default=None, help="specs per kind")
    scenario_gen.add_argument("--n-rooms", type=int, default=None)
    scenario_gen.add_argument("--k", type=int, default=None)
    add_thresholds(scenario_gen)
    add_encoder(scenario_gen)
    scenario_gen.add_argument("--out", required=True)
    scenario_gen.set_defaults(func=_cmd_scenario_gen)

    acq = sub.add_parser("acquire", help="run acquisition scripts into episode logs")
    acq.add_argument("--specs", required=True)
    acq.add_argument("--out", required=True)
    acq.set_defaults(func=_cmd_acquire)

    mem = sub.add_parser("memorize", help="distill episode logs into per-scenario graphs")
    mem.add_argument("--episodes", required=True)
    add_thresholds(mem)
    add_encoder(mem)
    mem.add_argument("--out", required=True)
    mem.set_defaults(func=_cmd_memorize)

    ev = sub.add_parser("eval", help="run one evaluation mode over specs")
    add_seed(ev)
    ev.add_argument("--specs", required=True)
    ev.add_argument("--mode", required=True, choices=MODES)
    ev.add_argument("--graphs", default=None)
    ev.add_argument("--episodes", default=None)
    ev.add_argument("--k", type=int, default=None)
    ev.add_argument("--only-retrieval-hits", action="store_true")
    add_encoder(ev)
    ev.add_argument("--out", required=True)
    ev.add_argument("--table", default=None)
    ev.set_defaults(func=_cmd_eval)

    rep = sub.add_parser("report", help="render metrics files into one table")
    rep.add_argument("--metrics", nargs="+", required=True)
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=_cmd_report)

    run = sub.add_parser("run-all", help="full pipeline: specs, acquisition, memorization, evaluation")
    add_seed(run)
    run.add_argument("--kinds", nargs="+", choices=KINDS, default=None)
    run.add_argument("--modes", nargs="+", default=None)
    run.add_argument("--n", type=int, default=None)
    run.add_argument("--n-rooms", type=int, default=None)
    run.add_argument("--k", type=int, default=None)
    add_thresholds(run)
    add_encoder(run)
    run.add_argument("--out-dir", default=None)
    run.set_defaults(func=_cmd_run_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # polar's records hold no cycles: reference counting frees them (see the module docstring)
    try:
        args = build_parser().parse_args(argv)
        return args.func(resolve_config(args), args)
    except (PolarError, OSError) as exc:
        sys.stderr.write(f"polar: error: {exc}\n")
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
