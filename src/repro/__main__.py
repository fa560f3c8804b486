"""Command-line entry point: ``python -m repro <command>``.

Commands
--------

``list``
    Show every reproducible artefact (paper figures/tables, ablations,
    extensions).
``run <name> [...]``
    Regenerate one or more artefacts by name, print them, and save
    ``reports/out_<name>.txt``.
``all``
    Regenerate everything.  ``--jobs N`` fans the simulations over N fork
    workers; results are served from the persistent cache under
    ``~/.cache/repro`` (``--cache-dir`` moves it, ``--no-cache`` disables
    it) so repeat invocations are near-instant.  See
    ``docs/performance.md``.
``workload <name> [--mode MODE]``
    Run one GPMbench workload under one persistence mode and report its
    simulated time and traffic.
``trace <name> [--mode MODE] [--out DIR]``
    Run one workload while recording the hardware event bus; saves a
    replayable JSONL event log and a Chrome-trace JSON (load in
    ``chrome://tracing`` or Perfetto).  See ``docs/observability.md``.
``check <target> [--mode MODE] [--max-frontiers N] [--frontier SPEC] [--images]``
    Systematically crash the target at every distinct frontier, recover,
    and verify its invariants; non-zero exit and a reproducer command on
    any violation.  ``--images`` counts the distinct durable images among
    the crash states instead.  See ``docs/crash-consistency.md``.
``serve [--tenants N --shards N --rate R --duration S --seed S ...]``
    Run the multi-tenant request-serving layer over gpKVS (admission
    control, warp-sized batching, sharded HCL logs) and print the service
    summary; same seed, byte-identical summary.  See ``docs/service.md``.

Performance is measured by the repository benchmark, ``python3
bench/run.py`` (see ``bench/README.md``), not by this CLI.
"""

from __future__ import annotations

import argparse
import os
import sys


def _cmd_list(_args) -> int:
    from .experiments import ALL_EXPERIMENTS
    from .workloads import gpmbench_suite

    print("artefacts (python -m repro run <name>):")
    for name in ALL_EXPERIMENTS:
        print(f"  {name}")
    print("\nworkloads (python -m repro workload <name> [--mode m]):")
    for w in gpmbench_suite():
        print(f"  {w.name}")
    from .check import CHECK_TARGETS

    print("\ncheck targets (python -m repro check <target>):")
    for name in sorted(CHECK_TARGETS):
        print(f"  {name}")
    return 0


def _resolve(name: str):
    from .experiments import ALL_EXPERIMENTS

    if name in ALL_EXPERIMENTS:
        return ALL_EXPERIMENTS[name]
    raise SystemExit(f"unknown artefact {name!r}; see `python -m repro list`")


def _setup_engine(args) -> None:
    """Apply the shared ``--jobs`` / ``--cache-dir`` / ``--no-cache`` flags."""
    from .experiments import ResultCache, set_default_jobs, set_disk_cache

    set_default_jobs(args.jobs)
    if getattr(args, "no_cache", False):
        set_disk_cache(None)
    else:
        set_disk_cache(ResultCache(getattr(args, "cache_dir", None)))


def _cmd_run(args) -> int:
    from .experiments import prefetch, requests_for, run_artefact

    _setup_engine(args)
    for name in args.names:
        _resolve(name)
    prefetch(requests_for(args.names))
    for name in args.names:
        table = run_artefact(name)
        path = table.save(args.reports)
        print(table.to_text())
        if args.bars:
            try:
                print(table.to_bars(args.bars, log=args.log))
            except ValueError:
                print(f"(column {args.bars!r} not in {name})")
        print(f"saved {path}\n")
    return 0


def _cmd_all(args) -> int:
    from .experiments import run_all

    _setup_engine(args)
    run_all(directory=args.reports, verbose=True, jobs=args.jobs)
    return 0


def _cmd_serve(args) -> int:
    from .serve import ServiceConfig, run_service
    from .serve.metrics import render_summary, summary_json

    _parse_mode(args.mode)
    try:
        config = ServiceConfig(
            mode=args.mode, tenants=args.tenants, shards=args.shards,
            rate=args.rate, duration=args.duration, seed=args.seed,
            read_fraction=args.read_fraction,
            delete_fraction=args.delete_fraction, theta=args.theta,
            target_batch=args.target_batch, linger=args.linger,
        )
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    result = run_service(config)
    if args.json:
        print(summary_json(result["summary"]))
    else:
        print(f"served {config.tenants} tenants x {config.rate / 1e6:.2f} M ops/s "
              f"for {config.duration * 1e3:.2f} ms simulated "
              f"({config.shards} log shards, seed {config.seed}):")
        print(render_summary(result["summary"]))
    return 0


def _find_workload(name: str):
    from .workloads import gpmbench_suite

    for w in gpmbench_suite():
        if w.name.lower() == name.lower():
            return w
    known = ", ".join(w.name for w in gpmbench_suite())
    raise SystemExit(f"unknown workload {name!r}; one of: {known}")


def _parse_mode(name: str):
    from .workloads import Mode

    try:
        return Mode.from_name(name)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _cmd_workload(args) -> int:
    mode = _parse_mode(args.mode)
    target = _find_workload(args.name)
    result = target.run(mode)
    print(f"{target.name} under {mode.value}:")
    print(f"  simulated time     {result.elapsed * 1e3:.4f} ms")
    print(f"  PM bytes persisted {result.bytes_persisted:,}")
    print(f"  PCIe write BW      {result.pcie_write_bandwidth / 1e9:.2f} GB/s")
    for key, value in result.extras.items():
        print(f"  {key:<18} {value}")
    return 0


def _cmd_trace(args) -> int:
    from .sim.events import stats_from_events
    from .sim.trace import record_events

    mode = _parse_mode(args.mode)
    target = _find_workload(args.name)
    with record_events() as recorder:
        result = target.run(mode)
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, f"trace_{target.name.lower()}_{mode.value}")
    jsonl_path = recorder.save_jsonl(base + ".jsonl")
    chrome_path = recorder.save_chrome_trace(base + ".json")
    replayed = stats_from_events(recorder.records)
    print(f"{target.name} under {mode.value}: {len(recorder)} events, "
          f"{result.elapsed * 1e3:.4f} ms simulated")
    for etype, count in sorted(recorder.counts().items()):
        print(f"  {etype:<20} {count}")
    print(f"  replayed fences    {replayed.system_fences}")
    print(f"  replayed PM bytes  {replayed.pm_bytes_written:,}")
    print(f"saved {jsonl_path}")
    print(f"saved {chrome_path}")
    return 0


def _cmd_check_litmus(args) -> int:
    from .check.litmus import run_campaign

    _setup_engine(args)
    report = run_campaign(args.litmus, args.seed, jobs=args.jobs,
                          max_frontiers=args.litmus_frontiers,
                          corpus=not args.no_corpus)
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_check_litmus_replay(args) -> int:
    from .check.litmus import config_matrix, execute_point, generate_test
    from .check.report import litmus_reproducer_command

    seed, sep, index = args.litmus_replay.partition(":")
    if not sep or not seed.lstrip("-").isdigit() or not index.isdigit():
        raise SystemExit(f"--litmus-replay wants SEED:INDEX, "
                         f"got {args.litmus_replay!r}")
    test = generate_test(int(seed), int(index))
    print(test.describe())
    for p, phase in enumerate(test.phases):
        steps = " ".join(
            f"w(r{s[1]},slot{s[2]}+)" if s[0] == "write" else "fence"
            for s in phase)
        print(f"  phase {p}: {steps}")
    specs = ([args.litmus_config] if args.litmus_config
             else [pt.spec() for pt in config_matrix()])
    failed = 0
    for spec in specs:
        result = execute_point(test.payload(), spec, mutant=args.mutant,
                               max_frontiers=args.litmus_frontiers,
                               frontier_spec=args.frontier)
        if result["ok"]:
            print(f"  {spec}: ok "
                  f"({result['frontiers_explored']} crash states)")
            continue
        failed += 1
        print(f"  {spec}: FAIL")
        for v in result["violations"]:
            print(f"    {v['name']} at {v['frontier']}: {v['detail']}")
            print("    reproduce: " + litmus_reproducer_command(
                test.seed, test.index, spec, v["frontier"], args.mutant))
    print("PASS" if not failed else f"FAIL ({failed}/{len(specs)} configs)")
    return 0 if not failed else 1


def _check_litmus_flags(args) -> None:
    """Reject litmus replay flags that would be ignored or fail mid-run."""
    from .check.litmus import parse_config_point
    from .sim.persistency import SENTINEL_MUTANTS

    for flag in ("mutant", "litmus_config"):
        if getattr(args, flag) is not None and not args.litmus_replay:
            raise SystemExit(f"check: --{flag.replace('_', '-')} applies only "
                             f"with --litmus-replay SEED:INDEX")
    if args.images and (args.litmus or args.litmus_replay):
        raise SystemExit("check: --images applies to a target, not to "
                         "--litmus or --litmus-replay")
    if args.frontier and args.litmus and not args.litmus_replay:
        raise SystemExit("check: --frontier applies to a target or to "
                         "--litmus-replay SEED:INDEX, not to --litmus N")
    if args.mutant is not None and args.mutant not in SENTINEL_MUTANTS:
        raise SystemExit(f"check: unknown --mutant {args.mutant!r} "
                         f"(one of: {', '.join(SENTINEL_MUTANTS)})")
    if args.litmus_config is not None:
        try:
            parse_config_point(args.litmus_config)
        except ValueError as exc:
            raise SystemExit(f"check: {exc}")


def _cmd_check(args) -> int:
    from .check import explore, make_oracle, parse_frontier
    from .check.explorer import count_images, explore_frontier
    from .check.report import render_single

    for flag in ("max_frontiers", "litmus", "litmus_frontiers"):
        if getattr(args, flag) < 0:
            raise SystemExit(f"check: --{flag.replace('_', '-')} must be "
                             f">= 0, got {getattr(args, flag)}")
    if args.window_samples < 1:
        raise SystemExit(f"check: --window-samples must be >= 1, "
                         f"got {args.window_samples}")
    try:
        frontier = parse_frontier(args.frontier) if args.frontier else None
    except ValueError as exc:
        raise SystemExit(f"check: {exc}")
    _check_litmus_flags(args)
    if args.litmus_replay:
        return _cmd_check_litmus_replay(args)
    if args.litmus:
        return _cmd_check_litmus(args)
    if not args.target:
        raise SystemExit("check: name a target, or use --litmus N / "
                         "--litmus-replay SEED:INDEX")
    mode = _parse_mode(args.mode)
    try:
        make_oracle(args.target)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.images:
        if frontier is not None:
            raise SystemExit("check: --images counts a whole exploration; "
                             "drop --frontier")
        print(count_images(args.target, mode, args.max_frontiers,
                           args.window_samples).describe())
        return 0
    if frontier is not None:
        result = explore_frontier(args.target, mode.value, frontier)
        print(render_single(args.target, mode.value, result))
        return 0 if result.status == "ok" else 1
    report = explore(args.target, mode, max_frontiers=args.max_frontiers,
                     window_samples=args.window_samples, jobs=args.jobs)
    print(report.describe())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GPM (ASPLOS '22) simulated reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list artefacts and workloads")
    def engine_flags(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes for the simulations")
        p.add_argument("--cache-dir", default=None,
                       help="persistent result/verdict cache directory "
                            "(default: ~/.cache/repro or $REPRO_CACHE_DIR)")
        p.add_argument("--no-cache", action="store_true",
                       help="do not read or write the persistent cache")

    run = sub.add_parser("run", help="regenerate named artefacts")
    run.add_argument("names", nargs="+")
    run.add_argument("--reports", default="reports")
    run.add_argument("--bars", metavar="COLUMN",
                     help="also render an ASCII bar chart of COLUMN")
    run.add_argument("--log", action="store_true",
                     help="log-scale the bar chart")
    engine_flags(run)
    allp = sub.add_parser("all", help="regenerate everything")
    allp.add_argument("--reports", default="reports")
    engine_flags(allp)
    from .sim.persistency import known_mode_names

    mode_help = " | ".join(known_mode_names())
    sv = sub.add_parser(
        "serve", help="run the multi-tenant request-serving layer over gpKVS")
    sv.add_argument("--mode", default="gpm",
                    help="PM-direct persistence mode (gpm | gpm-eadr | ...)")
    sv.add_argument("--tenants", type=int, default=4)
    sv.add_argument("--shards", type=int, default=4,
                    help="independent HCL log shards (key-hash ranges)")
    sv.add_argument("--rate", type=float, default=500_000.0,
                    help="per-tenant offered load, ops per simulated second")
    sv.add_argument("--duration", type=float, default=2e-3,
                    help="simulated seconds of traffic")
    sv.add_argument("--seed", type=int, default=42,
                    help="traffic seed; same seed, byte-identical summary")
    sv.add_argument("--read-fraction", type=float, default=0.5)
    sv.add_argument("--delete-fraction", type=float, default=0.05)
    sv.add_argument("--theta", type=float, default=0.99,
                    help="Zipfian key skew (0 = uniform)")
    sv.add_argument("--target-batch", type=int, default=128,
                    help="flush when this many requests are pending")
    sv.add_argument("--linger", type=float, default=20e-6,
                    help="flush when the oldest request waited this long (s)")
    sv.add_argument("--json", action="store_true",
                    help="print the canonical JSON summary instead of text")
    wl = sub.add_parser("workload", help="run one workload under one mode")
    wl.add_argument("name")
    wl.add_argument("--mode", default="gpm", help=mode_help)
    tr = sub.add_parser("trace", help="run one workload recording the event bus")
    tr.add_argument("name")
    tr.add_argument("--mode", default="gpm", help=mode_help)
    tr.add_argument("--out", default="reports",
                    help="directory for the JSONL + Chrome-trace files")
    ck = sub.add_parser(
        "check", help="systematically crash a target at every frontier")
    ck.add_argument("target", nargs="?", default=None,
                    help="prefix_sum | kvs | checkpointed-dnn | hashmap | "
                         "ring | broken-demo (omit with --litmus)")
    ck.add_argument("--mode", default="gpm",
                    help="persistence mode to explore (default: gpm)")
    ck.add_argument("--max-frontiers", type=int, default=128,
                    help="exploration budget; 0 explores every frontier")
    ck.add_argument("--window-samples", type=int, default=3,
                    help="thread-count samples per unfenced window")
    ck.add_argument("--frontier", metavar="SPEC",
                    help="replay one crash, e.g. event:17 or threads:113")
    ck.add_argument("--images", action="store_true",
                    help="count the distinct durable images among the "
                         "crash states instead of judging them")
    ck.add_argument("--litmus", type=int, metavar="N", default=0,
                    help="fuzz N generated litmus tests across the full "
                         "persistency config matrix")
    ck.add_argument("--seed", type=int, default=0,
                    help="litmus generator seed (same seed, same tests)")
    ck.add_argument("--litmus-replay", metavar="SEED:INDEX",
                    help="re-generate one litmus test and re-judge it "
                         "(with --litmus-config / --frontier / --mutant "
                         "from a failure's reproducer line)")
    ck.add_argument("--litmus-config", metavar="SPEC",
                    help="one matrix point, e.g. strict:window:adr")
    ck.add_argument("--mutant", default=None,
                    help="arm a sentinel mutant during the replay "
                         "(fence-order | epoch-boundary)")
    from .check.litmus import DEFAULT_LITMUS_FRONTIERS

    ck.add_argument("--litmus-frontiers", type=int,
                    default=DEFAULT_LITMUS_FRONTIERS,
                    help="crash-state budget per (test, config) point on "
                         "top of the always-explored ordering frontiers")
    ck.add_argument("--no-corpus", action="store_true",
                    help="skip the seed-corpus pin stage")
    engine_flags(ck)
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        raise SystemExit(f"{args.command}: --jobs must be >= 1, "
                         f"got {args.jobs}")
    return {"list": _cmd_list, "run": _cmd_run, "all": _cmd_all,
            "workload": _cmd_workload, "trace": _cmd_trace,
            "check": _cmd_check, "serve": _cmd_serve}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
