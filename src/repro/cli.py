"""Command-line interface: ``sunmap <command>``.

Commands mirror the tool's phases and the paper's experiments:

* ``apps`` / ``topologies`` / ``library`` — inventory listings;
* ``map`` — map one application onto one topology;
* ``select`` — full phase-1/2 topology selection (Figures 6, 7(b));
  ``--synthesize`` races automatically synthesized custom fabrics
  against the library in the same table;
* ``synthesize`` — application-specific topology synthesis: generate
  custom fabrics from the core graph, rank them by the objective, and
  optionally save the winner for later re-evaluation
  (``--save-topology``);
* ``explore`` — routing-function bandwidth sweep + Pareto points
  (Figure 9);
* ``simulate`` — cycle-accurate latency measurement: one point with
  ``--rate`` (Figures 8(b), 10(c)), or a full engine-parallel campaign
  with ``--rates``/``--patterns``/``--seeds``/``--jobs`` (latency–
  throughput curves with saturation detection);
* ``generate`` — phase-3 SystemC generation (Figure 11);
* ``serve`` / ``submit`` — the async design service and its client:
  concurrent JSON requests against one warm, optionally persistent,
  evaluation cache (``docs/SERVICE_API.md``).

Engine-backed commands accept ``--cache sqlite:PATH`` to persist
evaluations across runs — a warm store answers repeated work without
recomputing, with bit-identical results. They
also accept ``--journal PATH`` to append every completed evaluation to
a run journal as it finishes; after a crash or a kill, re-running the
same command with ``--resume`` replays the journaled prefix and only
computes what is missing — the output is bit-identical to an
uninterrupted run.

Observability (``docs/OBSERVABILITY.md``): ``--trace PATH`` appends
structured spans to a JSONL file, ``--metrics PATH`` dumps the process
metrics registry in Prometheus text format on exit, and the global
``--log-level``/``-v`` flags tune the unified ``repro`` logger. All of
it is passive — traced runs produce bit-identical results.
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import APPLICATIONS, load_application
from repro.core.constraints import DEFAULT_LINK_CAPACITY_MB_S, Constraints
from repro.core.exploration import (
    area_power_exploration,
    minimum_bandwidth_per_routing,
)
from repro.core.mapper import map_onto
from repro.engine.engine import ExplorationEngine
from repro.engine.journal import open_journal
from repro.errors import ReproError
from repro.physical.library import AreaPowerLibrary
from repro.simulation.stats import run_measurement
from repro.simulation.traffic import (
    PATTERNS,
    SyntheticTraffic,
    adversarial_pattern,
)
from repro.sunmap import DEFAULT_ROUTING_FALLBACKS, run_sunmap
from repro.topology.library import available_topologies, make_topology


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--app", choices=sorted(APPLICATIONS), help="built-in application"
    )
    parser.add_argument(
        "--app-file", default=None,
        help="JSON core-graph file (see repro.io schema)",
    )
    parser.add_argument(
        "--routing", default="MP", choices=["DO", "MP", "SM", "SA"],
        help="routing function (paper codes)",
    )
    parser.add_argument(
        "--objective", default="hops",
        choices=["hops", "area", "power", "bandwidth"],
        help="mapping objective",
    )
    parser.add_argument(
        "--capacity", type=float, default=DEFAULT_LINK_CAPACITY_MB_S,
        help="link capacity in MB/s (default: the paper's %(default)s)",
    )


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parallel worker processes (1 = serial, 0 = one per CPU); "
        "results are identical to the serial run",
    )
    parser.add_argument(
        "--cache", default=None, metavar="SPEC",
        help="persistent evaluation-cache backend: 'sqlite:PATH' "
        "(default: in-memory). A warm store skips evaluations from "
        "earlier runs; results are identical either way",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append-only run journal (JSONL): each completed "
        "evaluation is recorded as it finishes, so an interrupted "
        "run can be resumed with --resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from an existing --journal file: journaled "
        "results replay bit-identically and only missing work is "
        "computed (a torn final line from a crash is truncated)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append structured spans (engine passes, per-job timings, "
        "campaign runs) to a JSONL trace file; tracing is passive and "
        "never changes results",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the process metrics registry in Prometheus text "
        "format to PATH when the command finishes",
    )


def _journal(args):
    """Open the run journal requested by ``--journal``/``--resume``."""
    return open_journal(
        getattr(args, "journal", None),
        resume=getattr(args, "resume", False),
    )


def _close_journal(journal) -> None:
    """Report journal counters and release the file handle."""
    if journal is None:
        return
    print(str(journal.stats), file=sys.stderr)
    journal.close()


def _constraints(args) -> Constraints:
    return Constraints(link_capacity_mb_s=args.capacity)


def _load_app(args):
    if getattr(args, "app_file", None):
        from repro.io import load_core_graph

        return load_core_graph(args.app_file)
    if args.app:
        return load_application(args.app)
    raise ReproError("provide --app or --app-file")


def cmd_apps(_args) -> int:
    for name in sorted(APPLICATIONS):
        app = load_application(name)
        print(
            f"{name:10s} cores={app.num_cores:3d} flows={app.num_flows:3d} "
            f"total={app.total_bandwidth():8.1f} MB/s"
        )
    return 0


def cmd_topologies(args) -> int:
    for name in available_topologies():
        try:
            topo = make_topology(name, args.cores)
        except ReproError as exc:
            print(f"{name:12s} (not available for {args.cores} cores: {exc})")
            continue
        rs = topo.resource_summary()
        print(
            f"{name:12s} {topo.name:22s} slots={topo.num_slots:3d} "
            f"switches={rs.num_switches:3d} links={rs.num_links:3d}"
        )
    return 0


def cmd_library(args) -> int:
    library = AreaPowerLibrary()
    print(f"{'config':>8} {'area mm2':>10} {'pJ/bit':>8} {'static mW':>10}")
    for entry in library.table(max_radix=args.max_radix):
        cfg = entry.config
        print(
            f"{cfg.n_in}x{cfg.n_out:>6} {entry.area_mm2:>10.4f} "
            f"{entry.energy_pj_per_bit:>8.3f} {entry.static_power_mw:>10.2f}"
        )
    return 0


def _load_topology_arg(args, app):
    """Resolve --topology / --topology-file into a topology instance."""
    if getattr(args, "topology_file", None):
        from repro.io import load_topology

        return load_topology(args.topology_file)
    if getattr(args, "topology", None):
        return make_topology(args.topology, app.num_cores)
    raise ReproError("provide --topology or --topology-file")


def cmd_map(args) -> int:
    app = _load_app(args)
    topology = _load_topology_arg(args, app)
    evaluation = map_onto(
        app,
        topology,
        routing=args.routing,
        objective=args.objective,
        constraints=_constraints(args),
    )
    row = evaluation.summary_row()
    for key, value in row.items():
        print(f"{key:22s} {value}")
    print("assignment:")
    for core_index, slot in sorted(evaluation.assignment.items()):
        print(f"  {app.core(core_index).name:14s} -> slot {slot}")
    return 0


def _save_best_synthesized(selection, path) -> None:
    """Write the best synthesized fabric of a selection to JSON."""
    from repro.io import save_topology

    synthesized = {
        name: ev
        for name, ev in selection.feasible.items()
        if name in set(selection.synthesized)
    }
    if not synthesized:
        print("no feasible synthesized fabric to save", file=sys.stderr)
        return
    best = min(synthesized, key=lambda n: (synthesized[n].cost, n))
    save_topology(synthesized[best].topology, path)
    print(f"synthesized fabric {best} saved to {path}")


def cmd_select(args) -> int:
    app = _load_app(args)
    topologies = None
    if args.topology_file:
        from repro.io import load_topology
        from repro.topology.library import standard_library

        topologies = standard_library(app.num_cores)
        topologies.append(load_topology(args.topology_file))
    synthesize = None
    if args.synthesize:
        from repro.synthesis import SynthesisConfig

        synthesize = SynthesisConfig(fault_tolerance=args.fault_tolerance)
    journal = _journal(args)
    try:
        report = run_sunmap(
            app,
            routing=args.routing,
            objective=args.objective,
            constraints=_constraints(args),
            topologies=topologies,
            generate=False,
            routing_fallbacks=(
                DEFAULT_ROUTING_FALLBACKS if args.fallback else ()
            ),
            jobs=args.jobs,
            synthesize=synthesize,
            cache_backend=args.cache,
            journal=journal,
        )
    finally:
        _close_journal(journal)
    selection = report.selection
    if args.fallback and not args.markdown:
        print(report.summary())
    else:
        if args.markdown:
            from repro.report import selection_to_markdown

            print(selection_to_markdown(selection))
        else:
            print(selection.format_table())
        print(f"best: {selection.best_name or 'NO FEASIBLE TOPOLOGY'}")
    if args.save:
        from repro.io import save_selection

        save_selection(selection, args.save)
        print(f"selection saved to {args.save}")
    if args.save_topology:
        _save_best_synthesized(selection, args.save_topology)
    return 0


def cmd_synthesize(args) -> int:
    from repro.synthesis import SynthesisConfig, synthesize_topologies

    app = _load_app(args)
    config = SynthesisConfig(
        strategies=_csv(args.strategies, str),
        concentrations=_csv(args.concentrations, int),
        max_switch_degrees=_csv(args.degrees, int),
        max_candidates=args.max_candidates,
        fault_tolerance=args.fault_tolerance,
    )
    journal = _journal(args)
    try:
        result = synthesize_topologies(
            app,
            config=config,
            routing=args.routing,
            objective=args.objective,
            constraints=_constraints(args),
            jobs=args.jobs,
            cache_backend=args.cache,
            journal=journal,
        )
    finally:
        _close_journal(journal)
    print(
        f"synthesized candidates for {app.name} "
        f"[{args.routing}/{result.objective_name}]:"
    )
    print(result.format_table())
    if result.pruned:
        print(f"({len(result.pruned)} candidates pruned before evaluation)")
    best = result.best
    if best is None:
        print("best: NO FEASIBLE SYNTHESIZED FABRIC")
        return 0
    print(f"best: {best.name} (cost {best.cost:.3f})")
    if args.save_topology:
        from repro.io import save_topology

        save_topology(best.topology, args.save_topology)
        print(f"synthesized fabric saved to {args.save_topology}")
    return 0


def cmd_explore(args) -> int:
    app = _load_app(args)
    topology = make_topology(args.topology, app.num_cores)
    journal = _journal(args)
    try:
        engine = ExplorationEngine(
            jobs=args.jobs, cache_backend=args.cache, journal=journal
        )
        print(
            f"minimum link bandwidth per routing function on "
            f"{topology.name}:"
        )
        sweep = minimum_bandwidth_per_routing(app, topology, engine=engine)
        for code, value in sweep.items():
            text = "unsupported" if value is None else f"{value:8.1f} MB/s"
            print(f"  {code}: {text}")
        points, front = area_power_exploration(
            app,
            topology,
            routing=args.routing,
            constraints=_constraints(args),
            engine=engine,
        )
        print(f"area-power exploration: {len(points)} feasible mappings, "
              f"{len(front)} Pareto points:")
        for p in front:
            print(
                f"  area {p.area_mm2:7.2f} mm2   power {p.power_mw:7.1f} mW"
            )
        return 0
    finally:
        _close_journal(journal)


def _csv(text: str, cast):
    try:
        return tuple(cast(part) for part in text.split(",") if part)
    except ValueError:
        raise ReproError(
            f"expected a comma-separated list of {cast.__name__} values, "
            f"got {text!r}"
        ) from None


def cmd_simulate(args) -> int:
    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _cmd_simulate(args)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative")
            print("\n--- cProfile (top 25 by cumulative time) ---",
                  file=sys.stderr)
            stats.print_stats(25)
            if args.profile:
                stats.dump_stats(args.profile)
                print(f"profile data written to {args.profile} "
                      f"(inspect with python -m pstats)", file=sys.stderr)
    return _cmd_simulate(args)


def _cmd_simulate(args) -> int:
    from repro.simulation.campaign import CampaignConfig, run_campaign

    app = load_application(args.app)
    topology = make_topology(args.topology, app.num_cores)
    if args.rates is None:
        # Single-point measurement (the original Figure 8(b) probe),
        # optionally on a degraded fabric (first fault seed only;
        # campaign mode sweeps every seed).
        if args.faults:
            from repro.faults import FaultedTopology, sample_faults

            fault_seed = (_csv(args.fault_seeds, int) or (1,))[0]
            topology = FaultedTopology(
                topology,
                sample_faults(topology, args.faults, seed=fault_seed),
            )
        pattern = args.pattern
        if pattern == "adversarial":
            pattern = adversarial_pattern(topology)
        slots = list(range(min(app.num_cores, topology.num_slots)))
        report = run_measurement(
            topology,
            SyntheticTraffic(pattern, args.rate),
            warmup=args.warmup,
            measure=args.cycles,
            drain=args.drain,
            active_slots=slots,
            offered_rate=args.rate,
        )
        print(
            f"{topology.name} pattern={pattern} rate={args.rate}: "
            f"avg latency {report.avg_latency:.1f} cy, "
            f"p95 {report.p95_latency:.1f} cy, "
            f"delivered {report.delivered_fraction * 100:.1f}%"
        )
        return 0

    # Campaign mode: sweep rates x patterns x seeds through the engine.
    from repro.core.greedy import initial_greedy_mapping

    patterns = _csv(args.patterns, str)
    patterns = tuple(
        dict.fromkeys(  # dedupe, e.g. 'adversarial' aliasing a listed one
            adversarial_pattern(topology) if p == "adversarial" else p
            for p in patterns
        )
    )
    # The campaign validates a mapped design; the greedy phase-1 mapping
    # is deterministic and fast (use `generate`/`run_sunmap` for the
    # fully optimized assignment).
    assignment = initial_greedy_mapping(app, topology)
    config = CampaignConfig(
        rates=_csv(args.rates, float),
        patterns=patterns,
        seeds=_csv(args.seeds, int),
        warmup=args.warmup,
        measure=args.cycles,
        drain=args.drain,
        faults=args.faults,
        fault_seeds=_csv(args.fault_seeds, int),
        sim_engine=args.sim_engine,
    )
    journal = _journal(args)
    try:
        result = run_campaign(
            topology,
            core_graph=app,
            assignment=assignment,
            config=config,
            jobs=args.jobs,
            cache_backend=args.cache,
            journal=journal,
        )
    finally:
        _close_journal(journal)
    if args.markdown:
        from repro.report import campaign_to_markdown

        print(campaign_to_markdown(result))
    else:
        print(result.summary())
    return 0


def cmd_generate(args) -> int:
    app = _load_app(args)
    topologies = None
    if args.topology_file:
        from repro.io import load_topology

        topologies = [load_topology(args.topology_file)]
    elif args.topology:
        topologies = [make_topology(args.topology, app.num_cores)]
    journal = _journal(args)
    try:
        report = run_sunmap(
            app,
            routing=args.routing,
            objective=args.objective,
            constraints=_constraints(args),
            topologies=topologies,
            jobs=args.jobs,
            cache_backend=args.cache,
            journal=journal,
        )
    finally:
        _close_journal(journal)
    print(report.summary())
    if args.output and report.systemc is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.systemc)
        print(f"SystemC written to {args.output}")
    elif report.systemc is not None:
        print(report.systemc)
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.service import DesignService

    service = DesignService(
        jobs=args.jobs,
        cache_backend=args.cache,
        batch_window_s=args.batch_window,
        max_inflight=args.max_inflight,
        max_request_bytes=args.max_request_bytes,
    )
    journal = _journal(args)
    if journal is not None:
        # The BatchingEngine facade mirrors the inner engine's journal
        # reference at construction; attach to both so journaled
        # service computations replay on the next start with --resume.
        service.engine.inner.journal = journal
        service.engine.journal = journal
    backend = service.engine.cache.backend
    print(
        f"design service on {args.host}:{args.port} "
        f"(jobs={args.jobs}, cache={getattr(backend, 'name', 'memory')})",
        file=sys.stderr,
    )
    try:
        asyncio.run(service.serve(args.host, args.port))
    except KeyboardInterrupt:
        print("design service stopped", file=sys.stderr)
    finally:
        _close_journal(journal)
    return 0


def cmd_submit(args) -> int:
    import json

    from repro.io import reject_non_finite
    from repro.service import submit

    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            raw = handle.read()
    else:
        raw = sys.stdin.read()
    raw = raw.strip()
    if not raw:
        raise ReproError("no requests given (pass --file or pipe JSON in)")
    # Accept one JSON value (object or array of objects) or JSON-lines,
    # the same format the wire protocol uses: decode the whole document
    # first, and only a document that is not one JSON value is split
    # into lines. A ``NaN``/``Infinity`` token fails either way
    # (``reject_non_finite`` raises a plain ``ValueError``).
    try:
        try:
            parsed = json.loads(raw, parse_constant=reject_non_finite)
            payloads = parsed if isinstance(parsed, list) else [parsed]
        except json.JSONDecodeError:
            payloads = [
                json.loads(line, parse_constant=reject_non_finite)
                for line in raw.splitlines() if line.strip()
            ]
    except ValueError as exc:
        raise ReproError(f"invalid request JSON: {exc}") from None
    try:
        responses = submit(payloads, host=args.host, port=args.port)
    except OSError as exc:
        raise ReproError(
            f"cannot reach the design service at {args.host}:{args.port} "
            f"({exc}); start one with 'sunmap serve'"
        ) from None
    failures = 0
    for response in responses:
        print(json.dumps(response, indent=None if args.compact else 2))
        if not response.get("ok"):
            failures += 1
    return 1 if failures else 0


def _csv_default(values) -> str:
    """A library default tuple rendered as a comma-separated flag value."""
    return ",".join(str(value) for value in values)


def build_parser() -> argparse.ArgumentParser:
    # Sweep defaults come from the library configs' declared field
    # defaults (read off the classes), so the CLI cannot drift from them.
    from repro.simulation.campaign import CampaignConfig
    from repro.synthesis import SynthesisConfig

    parser = argparse.ArgumentParser(
        prog="sunmap",
        description="SUNMAP reproduction: NoC topology selection & generation",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        help="logging threshold for the unified 'repro' logger "
        "(default WARNING; overrides -v)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise log verbosity: -v = INFO, -vv = DEBUG "
        "(place before the command name)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines instead of plain text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list benchmark applications")

    p = sub.add_parser("topologies", help="list library topologies")
    p.add_argument("--cores", type=int, default=12)

    p = sub.add_parser("library", help="print the switch area/power library")
    p.add_argument("--max-radix", type=int, default=8)

    p = sub.add_parser("map", help="map one application onto one topology")
    _add_common(p)
    p.add_argument("--topology", default=None)
    p.add_argument(
        "--topology-file", default=None, metavar="PATH",
        help="JSON custom-topology file (e.g. saved by synthesize "
        "--save-topology) to map onto instead of a library name",
    )

    p = sub.add_parser("select", help="full topology selection")
    _add_common(p)
    _add_jobs(p)
    p.add_argument(
        "--fallback", action="store_true",
        help="escalate to split routing when nothing is feasible",
    )
    p.add_argument(
        "--markdown", action="store_true",
        help="print the comparison table as markdown",
    )
    p.add_argument(
        "--save", default=None, metavar="PATH",
        help="write the selection outcome as JSON",
    )
    p.add_argument(
        "--synthesize", action="store_true",
        help="race automatically synthesized custom fabrics against "
        "the library in the same selection table",
    )
    p.add_argument(
        "--topology-file", default=None, metavar="PATH",
        help="add a saved custom topology (JSON) to the candidate "
        "library",
    )
    p.add_argument(
        "--save-topology", default=None, metavar="PATH",
        help="write the best feasible synthesized fabric as JSON",
    )
    p.add_argument(
        "--fault-tolerance", type=int,
        default=SynthesisConfig.fault_tolerance, metavar="K",
        help="with --synthesize: candidate fabrics stay connected "
        "under any K dead inter-switch links (k-connectivity)",
    )

    p = sub.add_parser(
        "synthesize",
        help="generate application-specific custom fabrics and rank "
        "them by the objective",
    )
    _add_common(p)
    _add_jobs(p)
    p.add_argument(
        "--strategies", default=_csv_default(SynthesisConfig.strategies),
        metavar="S1,S2,...",
        help="partition strategies to sweep",
    )
    p.add_argument(
        "--concentrations",
        default=_csv_default(SynthesisConfig.concentrations),
        metavar="C1,C2,...",
        help="cores-per-switch bounds to sweep",
    )
    p.add_argument(
        "--degrees",
        default=_csv_default(SynthesisConfig.max_switch_degrees),
        metavar="D1,D2,...",
        help="max network channels per switch to sweep",
    )
    p.add_argument(
        "--max-candidates", type=int,
        default=SynthesisConfig.max_candidates,
        help="cap on candidates evaluated after pruning",
    )
    p.add_argument(
        "--save-topology", default=None, metavar="PATH",
        help="write the best synthesized fabric as JSON (reload with "
        "map/select/generate --topology-file)",
    )
    p.add_argument(
        "--fault-tolerance", type=int,
        default=SynthesisConfig.fault_tolerance, metavar="K",
        help="candidate fabrics stay connected under any K dead "
        "inter-switch links (k-connectivity objective)",
    )

    p = sub.add_parser("explore", help="routing sweep + Pareto exploration")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--topology", required=True)

    p = sub.add_parser(
        "simulate",
        help="cycle-accurate latency measurement (single point or "
        "campaign sweep)",
    )
    p.add_argument("--app", required=True, choices=sorted(APPLICATIONS))
    p.add_argument("--topology", required=True)
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument(
        "--pattern", default="adversarial",
        choices=sorted(PATTERNS) + ["adversarial"],
    )
    p.add_argument(
        "--cycles", type=int, default=CampaignConfig.measure,
        help="measured cycles per point (default: %(default)s)",
    )
    p.add_argument(
        "--warmup", type=int, default=CampaignConfig.warmup,
        help="warm-up cycles per point (default: %(default)s)",
    )
    p.add_argument(
        "--drain", type=int, default=CampaignConfig.drain,
        help="drain cycles per point (default: %(default)s)",
    )
    p.add_argument(
        "--rates", default=None, metavar="R1,R2,...",
        help="campaign mode: sweep these injection rates "
        "(flits/cycle/node) instead of the single --rate point",
    )
    p.add_argument(
        "--patterns", default=_csv_default(CampaignConfig.patterns),
        metavar="P1,P2,...",
        help="campaign traffic patterns ('app' = application trace, "
        "'adversarial' = the topology's stress permutation)",
    )
    p.add_argument(
        "--seeds", default=_csv_default(CampaignConfig.seeds),
        metavar="S1,S2,...",
        help="campaign traffic seeds; curves average across them",
    )
    p.add_argument(
        "--faults", type=int, default=CampaignConfig.faults, metavar="K",
        help="dead random inter-switch links per fault variant "
        "(0 = pristine fabric); single-point mode degrades with the "
        "first fault seed, campaign mode sweeps every fault seed",
    )
    p.add_argument(
        "--fault-seeds", default=_csv_default(CampaignConfig.fault_seeds),
        metavar="S1,S2,...",
        help="fault-sampling seeds: one deterministic non-partitioning "
        "fault set per seed; campaign curves average across them",
    )
    p.add_argument(
        "--sim-engine", default="exact", choices=["exact", "batch"],
        help="campaign simulator lane: 'exact' runs the bit-identical "
        "reference kernel point by point; 'batch' advances every point "
        "of a fault variant in lockstep through the vectorized numpy "
        "kernel (statistically equivalent curves, much faster)",
    )
    p.add_argument(
        "--markdown", action="store_true",
        help="print campaign curves as a markdown table",
    )
    p.add_argument(
        "--profile", nargs="?", const="", default=None, metavar="PATH",
        help="profile the simulation under cProfile and print the top "
        "functions to stderr; with PATH, also dump the raw stats for "
        "python -m pstats",
    )
    _add_jobs(p)

    p = sub.add_parser("generate", help="select and emit SystemC")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--topology", default=None)
    p.add_argument(
        "--topology-file", default=None, metavar="PATH",
        help="generate for a saved custom topology (JSON) instead of "
        "running library selection",
    )
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser(
        "serve",
        help="run the async design service (JSON requests over TCP; "
        "see docs/SERVICE_API.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument(
        "--batch-window", type=float, default=0.005, metavar="SECONDS",
        help="straggler window for merging concurrent requests into "
        "one engine pass (0 disables the wait)",
    )
    p.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admission budget: at most N computations in flight; "
        "excess requests get a retryable typed 'busy' error "
        "(default: unlimited)",
    )
    p.add_argument(
        "--max-request-bytes", type=int, default=1_048_576, metavar="B",
        help="largest accepted request line; longer lines get a "
        "ContractError response and the connection survives",
    )
    _add_jobs(p)

    p = sub.add_parser(
        "submit",
        help="submit design requests to a running service and print "
        "the responses",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument(
        "--file", "-f", default=None, metavar="PATH",
        help="JSON request file: one object, an array, or JSON-lines "
        "(default: read stdin)",
    )
    p.add_argument(
        "--compact", action="store_true",
        help="one response per line instead of pretty-printed JSON",
    )
    return parser


_COMMANDS = {
    "apps": cmd_apps,
    "topologies": cmd_topologies,
    "library": cmd_library,
    "map": cmd_map,
    "select": cmd_select,
    "synthesize": cmd_synthesize,
    "explore": cmd_explore,
    "simulate": cmd_simulate,
    "generate": cmd_generate,
    "serve": cmd_serve,
    "submit": cmd_submit,
}


def _log_level(args) -> str:
    """Resolve --log-level / -v into a level name (explicit flag wins)."""
    if args.log_level:
        return args.log_level
    if args.verbose >= 2:
        return "DEBUG"
    if args.verbose == 1:
        return "INFO"
    return "WARNING"


def _setup_observability(args):
    """Configure logging and install the --trace sink; return the sink."""
    from repro.obs import JsonlSink, add_sink, configure_logging

    configure_logging(level=_log_level(args), json=args.log_json)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return None
    sink = JsonlSink(trace_path)
    add_sink(sink)
    return sink


def _teardown_observability(args, sink) -> None:
    """Detach the trace sink and honour --metrics on command exit."""
    from repro.obs import get_registry, remove_sink

    if sink is not None:
        remove_sink(sink)
        sink.close()
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        with open(metrics_path, "w", encoding="utf-8") as handle:
            handle.write(get_registry().exposition())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    sink = _setup_observability(args)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except OSError as exc:
        # Transport-level failures (service bind/connect, file I/O)
        # deserve a one-line diagnosis, not a traceback. Ordered after
        # BrokenPipeError, which is an OSError subclass.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _teardown_observability(args, sink)


if __name__ == "__main__":
    sys.exit(main())
