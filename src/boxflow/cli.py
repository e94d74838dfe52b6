"""Command line front end: analyze, lyapunov, filtration, verify.

Every command resolves a RunConfig from flags, writes its artifacts
atomically into the output directory, and exits 0 on success, 1 on a
property failure, and 2 on a configuration or ingestion problem.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, asdict

import numpy as np

from .errors import (BoxflowError, CapacityError, CatalogError, ConfigError,
                     FiltrationError, IngestionError, SelectionError)
from .flows import builtin_names, builtin_system, load_system
from .grid import BoxSet, build_grid
from .jsonio import csv_text, load_json, number, positive, string, write_json
from .lyapunov import (Filtration, LyapunovParams, complete_lyapunov, extract_filtration,
                       morse_lyapunov, pair_lyapunov)
from .pairs import IndexPair, build_index_pair, validate_index_pair
from .recurrence import enumerate_ar_pairs, morse_graph
from .transition import build_transition_graph
from .verify import run_suite

_CONFIG_ERRORS = (ConfigError, IngestionError, CatalogError, SelectionError,
                  CapacityError)


@dataclass
class RunConfig:
    """Resolved run parameters shared by every command."""

    system: str = None
    system_file: str = None
    depth: tuple = None
    map_time: float = 1.0
    padding: float = None
    dt: float = 0.05
    t_max: float = 12.0
    epsilon: float = None
    seed: int = 0
    out: str = "out"

    def validate(self):
        if (self.system is None) == (self.system_file is None):
            raise ConfigError("give exactly one of --system or --system-file")
        if self.depth is not None and any(k < 1 for k in self.depth):
            raise ConfigError(f"depth must be at least 1 per axis, got {self.depth}")
        for name, value in (("map time", self.map_time), ("dt", self.dt),
                            ("tmax", self.t_max), ("padding", self.padding),
                            ("epsilon", self.epsilon)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value}")
        if self.map_time <= 0:
            raise ConfigError(f"map time must be positive, got {self.map_time}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.padding is not None and self.padding < 0:
            raise ConfigError(f"padding must be nonnegative, got {self.padding}")
        if self.t_max < 1.0:
            raise ConfigError(f"tmax must be at least 1, got {self.t_max}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        return self

    def to_json(self, path):
        data = asdict(self)
        data["depth"] = list(self.depth) if self.depth is not None else None
        write_json(path, data)

    @classmethod
    def from_json(cls, path):
        def parse(data, where):
            for key in ("system", "system_file", "out"):
                if data.get(key) is not None:
                    string(data[key], f"{where} {key}")
            for key in ("map_time", "padding", "dt", "t_max", "epsilon"):
                if data.get(key) is not None:
                    number(data[key], f"{where} {key}")
            number(data.get("seed", 0), f"{where} seed", int)
            if data.get("depth") is not None:
                data["depth"] = tuple(positive(k, f"{where} depth", int) for k in data["depth"])
            return cls(**data).validate()
        return load_json(path, "config file", parse)


def _parse_depth(text):
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"depth must be integers, got {text!r}") from exc
    return tuple(parts)


def _resolve_system(config):
    if config.system is not None:
        return builtin_system(config.system)
    return load_system(config.system_file)


def _resolve_depth(config, system):
    if config.depth is None:
        return (256,) * system.dimension if system.dimension == 1 \
            else (128,) * system.dimension
    if len(config.depth) == 1:
        return config.depth * system.dimension
    if len(config.depth) != system.dimension:
        raise ConfigError(f"depth has {len(config.depth)} entries for a "
                          f"{system.dimension}-dimensional system")
    return config.depth


def _atomic(path, write_fn):
    tmp = path + ".tmp"
    write_fn(tmp)
    os.replace(tmp, path)


def _write_json(path, data):
    _atomic(path, lambda p: write_json(p, data))


def _write_text(path, *texts):
    """Write the texts one after another, with no joined copy of them; a
    text is a str or an iterable of str blocks, such as a graph's
    _dot_blocks()."""
    def writer(p):
        with open(p, "w") as fh:
            for text in texts:
                if isinstance(text, str):
                    fh.write(text)
                else:
                    fh.writelines(text)
    _atomic(path, writer)


def _prepare(config):
    """Resolve system and grid, make the output directory, echo the config."""
    system = _resolve_system(config)
    depth = _resolve_depth(config, system)
    grid = build_grid(system.domain, depth)
    os.makedirs(config.out, exist_ok=True)
    config.depth = depth
    _atomic(os.path.join(config.out, "config.json"), config.to_json)
    return system, grid


def cmd_analyze(config):
    """Build the transition graph and Morse decomposition, write artifacts."""
    system, grid = _prepare(config)
    graph = build_transition_graph(system, grid, config.map_time, config.padding)
    region = grid.all_boxes()
    mg = morse_graph(graph, region)
    recurrent = mg.recurrent.ids.tolist()

    out = config.out
    _atomic(os.path.join(out, "graph.json"), graph.to_json)
    _write_text(os.path.join(out, "graph.dot"), graph._dot_blocks(), "\n")
    _atomic(os.path.join(out, "morse.json"), mg.to_json)
    _write_text(os.path.join(out, "morse.dot"), mg.to_dot(), "\n")
    _write_json(os.path.join(out, "recurrent.json"), {"boxes": recurrent})

    sizes = [len(m) for m in mg.morse_sets]
    order = ", ".join(f"M{a} > M{b}" for a, b in sorted(mg.partial_order)) or "(none)"
    print(f"system: {system.name}  grid: {grid.shape}  boxes: {grid.n_boxes}")
    print(f"edges: {graph.n_edges}  exit: {'yes' if graph.has_exit else 'no'}")
    print(f"invariant part: {len(mg.invariant)} boxes")
    print(f"morse sets: {mg.n}  sizes: {sizes}")
    print(f"partial order: {order}")
    print(f"recurrent boxes: {len(recurrent)}")
    print(f"artifacts in {out}: graph.json graph.dot morse.json morse.dot "
          f"recurrent.json")
    return 0


def _plot_csv(field):
    centers = field.pair.grid.centers(field.boxes).tolist()
    header = [*(f"x{i}" for i in range(field.pair.grid.dimension)), "value"]
    return csv_text(header, ([*c, v] for c, v in zip(centers, field.values.astype(float).tolist())))


def cmd_lyapunov(config, construction="morse", pair_index=None):
    """Compute one Lyapunov field and write CSV, JSON, and plot data."""
    if pair_index is not None and construction != "pair":
        raise SelectionError(f"--pair-index picks a pair of --construction pair, "
                             f"not of {construction}")
    system, grid = _prepare(config)
    graph = build_transition_graph(system, grid, config.map_time, config.padding)
    mg = morse_graph(graph, grid.all_boxes())
    pair = build_index_pair(mg)
    params = LyapunovParams(dt=config.dt, t_max=config.t_max)

    if construction == "pair":
        pairs = enumerate_ar_pairs(mg)
        labels = [sorted(ar.down_set) for ar in pairs]
        if pair_index is None:
            proper = [i for i, ar in enumerate(pairs)
                      if 0 < len(ar.down_set) < mg.n]
            pair_index = proper[0] if proper else 0
        if not 0 <= pair_index < len(pairs):
            raise SelectionError(
                f"pair index {pair_index} is out of range; valid pairs are "
                + ", ".join(f"{i} (down-set {lab})" for i, lab in enumerate(labels)))
        field = pair_lyapunov(system, pair, pairs[pair_index], params)
    elif construction == "morse":
        field = morse_lyapunov(system, pair, mg, params)
    elif construction == "complete":
        field = complete_lyapunov(system, pair, mg, params)
    else:
        raise SelectionError(
            f"unknown construction {construction!r}; pick pair, morse, or complete")

    out = config.out
    _atomic(os.path.join(out, "field.json"), field.to_json)
    _atomic(os.path.join(out, "field.csv"), field.to_csv)
    _write_text(os.path.join(out, "plot.csv"), _plot_csv(field))

    lo = float(field.values.min()) if field.values.size else 0.0
    hi = float(field.values.max()) if field.values.size else 0.0
    print(f"system: {system.name}  construction: {field.construction}")
    print(f"boxes: {field.boxes.size}  range hint: {field.range_hint}")
    print(f"values: [{lo:.6f}, {hi:.6f}]")
    print(f"artifacts in {out}: field.json field.csv plot.csv")
    return 0


def cmd_filtration(config):
    """Extract a regular index filtration; fail loudly naming the level."""
    system, grid = _prepare(config)
    graph = build_transition_graph(system, grid, config.map_time, config.padding)
    mg = morse_graph(graph, grid.all_boxes())
    out = config.out
    if mg.n == 0:
        trivial = Filtration(levels=[], thresholds=[], pair=IndexPair(grid, BoxSet(), BoxSet()))
        _atomic(os.path.join(out, "filtration.json"), trivial.to_json)
        print("empty invariant part: trivial filtration with 0 levels")
        return 0

    pair = build_index_pair(mg)
    params = LyapunovParams(dt=config.dt, t_max=config.t_max)
    field = morse_lyapunov(system, pair, mg, params)
    rng = np.random.default_rng(config.seed)
    try:
        filtration, report = extract_filtration(system, field, rng=rng)
    except FiltrationError as exc:
        print(f"filtration failed at level {exc.level}: {exc}", file=sys.stderr)
        return 1

    def writer(p):
        filtration.to_json(p, report=report)
    _atomic(os.path.join(out, "filtration.json"), writer)
    sizes = [len(lv) for lv in filtration.levels]
    print(f"system: {system.name}  levels: {len(filtration.levels)}  sizes: {sizes}")
    print(f"thresholds: {filtration.thresholds}")
    print(f"artifacts in {out}: filtration.json")
    return 0


def cmd_verify(config, pair_file=None):
    """Run the check suite; with --pair-file, validate a stored pair instead."""
    system, grid = _prepare(config)
    if pair_file is not None:
        pair = IndexPair.from_json(pair_file)
        if pair.grid != grid:
            raise ConfigError(
                f"pair file grid {pair.grid.shape} on {pair.grid.domain.tolist()} does not "
                f"match the configured grid {grid.shape} on {grid.domain.tolist()}")
        graph = build_transition_graph(system, grid, config.map_time, config.padding)
        verdict = validate_index_pair(graph, pair)
        _write_json(os.path.join(config.out, "pair_check.json"), verdict.to_dict())
        print(f"pair file {pair_file}: {verdict.summary()}")
        return 0 if verdict.passed else 1

    report = run_suite(system, config.depth, map_time=config.map_time,
                       padding=config.padding, dt=config.dt, t_max=config.t_max,
                       epsilon=config.epsilon, seed=config.seed)
    _atomic(os.path.join(config.out, "verify.json"), report.to_json)
    _write_text(os.path.join(config.out, "verify.txt"), report.to_text())
    print(report.to_text(), end="")
    return 0 if report.passed else 1


def _add_common(sp):
    sp.add_argument("--system", help="builtin system name: "
                    + ", ".join(builtin_names()))
    sp.add_argument("--system-file", help="JSON file describing a polynomial field")
    sp.add_argument("--depth", type=_parse_depth,
                    help="boxes per axis, comma separated (default 256 in 1D, 128 in 2D)")
    sp.add_argument("--map-time", type=float, default=1.0)
    sp.add_argument("--padding", type=float, default=None)
    sp.add_argument("--dt", type=float, default=0.05)
    sp.add_argument("--tmax", type=float, default=12.0, dest="t_max")
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="out")


def _config_from(args):
    return RunConfig(system=args.system, system_file=args.system_file,
                     depth=args.depth, map_time=args.map_time,
                     padding=args.padding, dt=args.dt, t_max=args.t_max,
                     epsilon=args.epsilon, seed=args.seed,
                     out=args.out).validate()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="boxflow",
        description="set-oriented analysis of flows on box grids")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "lyapunov", "filtration", "verify"):
        sp = sub.add_parser(name)
        _add_common(sp)
        if name == "lyapunov":
            sp.add_argument("--construction", choices=("pair", "morse", "complete"),
                            default="morse")
            sp.add_argument("--pair-index", type=int, default=None)
        if name == "verify":
            sp.add_argument("--pair-file", default=None)
    args = parser.parse_args(argv)

    try:
        config = _config_from(args)
        if args.command == "analyze":
            return cmd_analyze(config)
        if args.command == "lyapunov":
            return cmd_lyapunov(config, construction=args.construction,
                                pair_index=args.pair_index)
        if args.command == "filtration":
            return cmd_filtration(config)
        return cmd_verify(config, pair_file=args.pair_file)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoxflowError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
