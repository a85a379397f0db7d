#!/usr/bin/env python
"""Campaign CLI: local runs, distributed coordination, workers, status.

Subcommands:

``run``
    Execute a (subset of the) 130-scenario campaign locally — the
    original single-host driver, flags unchanged.  Invocations that
    omit the subcommand keep working (``run`` is implied).
``serve``
    Start a campaign coordinator: an HTTP service that leases the
    selected scenarios to workers over a campaign store and ingests
    their shards.
``work``
    Start a worker agent against a coordinator URL: poll for leases,
    execute scenarios, push shards back.  Ctrl-C drains gracefully
    (the in-flight scenario finishes and commits).
``status``
    Inspect a campaign — progress, leases, outcome totals and the
    per-scenario failure records — from a coordinator URL or directly
    from a store directory; ``--table`` renders an analysis table.

Examples::

    # the full paper matrix, 8 workers, resumable store (local mode)
    python scripts/run_campaign.py run --store campaign.store --workers 8

    # continue an interrupted local campaign
    python scripts/run_campaign.py run --apps IS --isas armv8 --faults 100 \
        --store is.store --workers 4 --resume

    # distributed: coordinator on one host ...
    python scripts/run_campaign.py serve --store campaign.store \
        --host 0.0.0.0 --port 8018 --faults 8000

    # ... any number of workers on any hosts ...
    python scripts/run_campaign.py work --coordinator http://box1:8018 --workers 8

    # ... and progress/failures/tables from anywhere
    python scripts/run_campaign.py status --coordinator http://box1:8018
    python scripts/run_campaign.py status --store campaign.store --table table1

    # dry-run the expanded matrix with hardening tags
    python scripts/run_campaign.py run --apps LU --hardening off dwc+cfc --list
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import SimulatorError
from repro.hardening import HARDENING_SCHEMES, normalize_hardening
from repro.injection.campaign import CampaignConfig
from repro.npb.suite import APPLICATIONS, ISAS, build_scenario_suite
from repro.orchestration import CampaignRunner, CampaignStore, DEFAULT_LEASE_TTL
from repro.orchestration.logging import add_logging_arguments, logger_from_args
from repro.service import (
    CampaignCoordinator,
    CoordinatorClient,
    ResultsService,
    TABLE_NAMES,
    WorkerAgent,
    format_status,
    serve,
)

SUBCOMMANDS = ("run", "serve", "work", "status", "analyze")


def hardening_scheme(value: str) -> str:
    """Argparse validator for --hardening: the registry schemes plus the
    selective ``dwcN`` grammar (e.g. ``dwc4``, ``cfc+dwc4``)."""
    try:
        normalize_hardening(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def add_selection_arguments(parser: argparse.ArgumentParser) -> None:
    select = parser.add_argument_group("scenario selection")
    select.add_argument("--apps", nargs="+", metavar="APP", choices=sorted(APPLICATIONS),
                        help="restrict to these applications (default: all)")
    select.add_argument("--modes", nargs="+", metavar="MODE", choices=["serial", "omp", "mpi"],
                        help="restrict to these programming models (default: all)")
    select.add_argument("--isas", nargs="+", metavar="ISA", choices=list(ISAS),
                        help="restrict to these ISAs (default: both)")
    select.add_argument("--cores", nargs="+", type=int, metavar="N", choices=[1, 2, 4],
                        help="restrict to these core counts (default: all)")
    select.add_argument("--hardening", nargs="+", metavar="SCHEME",
                        type=hardening_scheme,
                        help="sweep these software-hardening schemes across the selected "
                             f"scenarios: one of {', '.join(HARDENING_SCHEMES)}, a "
                             "selective dwcN variant such as dwc4, or a checkpoint-"
                             "rollback recovery policy appended as +rec / +recN "
                             "(e.g. dwc+rec, dwc2+cfc+rec5; N bounds the retries) "
                             "(default: off — the paper's unhardened binaries)")
    select.add_argument("--list", "--list-scenarios", dest="list", action="store_true",
                        help="dry run: print the expanded scenario matrix (with hardening "
                             "tags) and exit without running anything")


def add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    campaign = parser.add_argument_group("campaign")
    campaign.add_argument("--faults", type=int, default=200,
                          help="faults injected per scenario (the paper uses 8000)")
    campaign.add_argument("--seed", type=int, default=2018, help="campaign seed")
    campaign.add_argument("--keep-injections", action="store_true",
                          help="keep per-injection records (larger shards)")


def add_adaptive_arguments(parser: argparse.ArgumentParser) -> None:
    adaptive = parser.add_argument_group(
        "adaptive sampling",
        "CI-driven stopping: draw stratified batches until every tracked "
        "outcome rate's confidence interval is tight enough, instead of a "
        "fixed --faults count (see docs/statistics.md)",
    )
    adaptive.add_argument("--adaptive", action="store_true",
                          help="enable CI-driven adaptive sampling (--faults is ignored)")
    adaptive.add_argument("--ci-half-width", type=float, default=0.02, metavar="W",
                          help="stop when every tracked rate's half-width is <= W")
    adaptive.add_argument("--confidence", type=float, default=0.95,
                          help="confidence level of the stopping intervals")
    adaptive.add_argument("--batch-size", type=int, default=64,
                          help="faults drawn per adaptive batch")
    adaptive.add_argument("--min-faults", type=int, default=64,
                          help="never stop before this many faults per scenario")
    adaptive.add_argument("--max-faults", type=int, default=4096,
                          help="per-scenario fault budget ceiling")
    adaptive.add_argument("--prior-store", type=Path, default=None, metavar="DIR",
                          help="mine allocation priors from this *completed* campaign "
                               "store (needs shards kept with --keep-injections)")


def sampling_plan(args: argparse.Namespace):
    """The SamplingPlan for --adaptive runs, or None."""
    if not getattr(args, "adaptive", False):
        return None
    from repro.hardening import recovery_retries
    from repro.stats import SamplingPlan
    from repro.stats.estimators import TRACKED_RATES

    # recovery sweeps opt the Recovered rate into the stopping rule;
    # rec-less sweeps keep the default track so their draws are identical
    extra = {}
    schemes = getattr(args, "hardening", None) or []
    if any(recovery_retries(scheme) is not None for scheme in schemes):
        extra["track"] = TRACKED_RATES + ("Recovered",)
    return SamplingPlan(
        target_half_width=args.ci_half_width,
        confidence=args.confidence,
        min_faults=args.min_faults,
        max_faults=args.max_faults,
        batch_size=args.batch_size,
        **extra,
    )


def mined_prior(args: argparse.Namespace):
    """The MinedPrior for --adaptive --prior-store runs, or None."""
    if not getattr(args, "adaptive", False) or args.prior_store is None:
        return None
    from repro.stats import MinedPrior

    prior = MinedPrior.from_store(CampaignStore(args.prior_store))
    if not prior.cells:
        raise SimulatorError(
            f"prior store {args.prior_store} yielded no mineable injections "
            "(was the campaign run with --keep-injections?)"
        )
    return prior


def add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    execution = parser.add_argument_group("execution")
    execution.add_argument("--workers", type=int, default=4,
                           help="worker processes (0/1 = in-process)")
    execution.add_argument("--faults-per-job", type=int, default=16,
                           help="injection batch size per pool job")
    execution.add_argument("--job-retries", type=int, default=1,
                           help="extra rounds granted to failed jobs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Fault-injection campaigns: local runs, distributed "
                    "coordination, workers and status.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # -- run ------------------------------------------------------------
    run = subparsers.add_parser(
        "run", help="execute a campaign locally (the original driver)",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    add_selection_arguments(run)
    add_campaign_arguments(run)
    add_adaptive_arguments(run)
    add_execution_arguments(run)
    run.add_argument("--throughput", action="store_true",
                     help="report aggregate guest MIPS and per-scenario wall time "
                          "in the suite ETA line (campaign speed visibility), "
                          "plus injections per second; the MIPS figure sums the "
                          "records' executed instructions, which for runs that "
                          "converged or were decided from the golden run is the "
                          "golden instruction count, not simulated work")
    persist = run.add_argument_group("persistence")
    persist.add_argument("--store", type=Path, default=None, metavar="DIR",
                         help="campaign store directory (shards + manifest)")
    persist.add_argument("--resume", action="store_true",
                         help="skip scenarios whose shards already exist in --store")
    persist.add_argument("--out", type=Path, default=None, metavar="FILE.json",
                         help="write the assembled database as JSON")
    persist.add_argument("--csv", type=Path, default=None, metavar="FILE.csv",
                         help="export the per-scenario records as CSV")
    add_logging_arguments(run)

    # -- serve ----------------------------------------------------------
    serve_parser = subparsers.add_parser(
        "serve", help="start a campaign coordinator over a store",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    add_selection_arguments(serve_parser)
    add_campaign_arguments(serve_parser)
    add_adaptive_arguments(serve_parser)
    serve_parser.add_argument("--store", type=Path, required=True, metavar="DIR",
                              help="campaign store directory (the source of truth)")
    serve_parser.add_argument("--resume", action="store_true",
                              help="continue the campaign the store already holds")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (0.0.0.0 to accept remote workers)")
    serve_parser.add_argument("--port", type=int, default=8018,
                              help="bind port (0 = ephemeral)")
    serve_parser.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL,
                              metavar="SECONDS",
                              help="lease lifetime; a worker silent this long is "
                                   "presumed dead and its scenario is reclaimed")
    serve_parser.add_argument("--until-complete", action="store_true",
                              help="exit once every scenario has a shard "
                                   "(batch mode; default serves forever)")
    add_logging_arguments(serve_parser)

    # -- work -----------------------------------------------------------
    work = subparsers.add_parser(
        "work", help="start a worker agent against a coordinator",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    work.add_argument("--coordinator", required=True, metavar="URL",
                      help="coordinator base URL, e.g. http://box1:8018")
    work.add_argument("--worker-id", default=None,
                      help="lease owner name (default: worker-<pid>)")
    add_execution_arguments(work)
    work.add_argument("--poll-interval", type=float, default=1.0, metavar="SECONDS",
                      help="base delay between idle polls (jittered, "
                           "exponential backoff while everything is leased)")
    add_logging_arguments(work)

    # -- analyze --------------------------------------------------------
    analyze = subparsers.add_parser(
        "analyze", help="static vulnerability analysis: predicted AVF tables, "
                        "variable ranks and predicted-vs-measured validation",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    add_selection_arguments(analyze)
    analyze.add_argument("--validate", type=Path, default=None, metavar="STORE",
                         help="correlate predictions with the measured masking in an "
                              "existing campaign store directory (or saved results "
                              "JSON) — no injections are re-run")
    analyze.add_argument("--static-only", action="store_true",
                         help="skip the golden profiling run and weight every "
                              "instruction equally (faster, less accurate)")
    analyze.add_argument("--variables", action="store_true",
                         help="also print per-function variable vulnerability ranks "
                              "(what selective dwcN hardening consumes)")
    analyze.add_argument("--top", type=int, default=5, metavar="N",
                         help="variables per function shown with --variables")
    add_logging_arguments(analyze)

    # -- status ---------------------------------------------------------
    status = subparsers.add_parser(
        "status", help="inspect campaign progress, failures and tables",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    source = status.add_mutually_exclusive_group(required=True)
    source.add_argument("--coordinator", metavar="URL",
                        help="query a running coordinator")
    source.add_argument("--store", type=Path, metavar="DIR",
                        help="read a campaign store directly")
    status.add_argument("--table", choices=TABLE_NAMES, default=None,
                        help="also render one analysis table")
    add_logging_arguments(status)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: pre-subcommand invocations (run_campaign.py --apps IS
    # ...) keep working — anything that doesn't start with a known
    # subcommand is a `run`.
    if argv and argv[0] not in SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.resume and args.store is None:
        parser.error("--resume requires --store")
    return args


def select_suite(args: argparse.Namespace):
    suite = build_scenario_suite(isas=args.isas or ISAS).filter(
        apps=args.apps, modes=args.modes, core_counts=args.cores
    )
    if args.hardening:
        suite = suite.sweep_hardenings(
            [None if scheme == "off" else scheme for scheme in args.hardening]
        )
    return suite


def list_suite(suite) -> int:
    """The --list dry run: print the expanded scenario matrix."""
    for scenario in suite:
        print(scenario.scenario_id)
    print(f"-- {len(suite)} scenarios")
    return 0


def campaign_config(args: argparse.Namespace) -> CampaignConfig:
    return CampaignConfig(
        faults_per_scenario=args.faults,
        seed=args.seed,
        keep_individual_results=args.keep_injections,
    )


def cmd_run(args: argparse.Namespace) -> int:
    logger = logger_from_args(args, "run")
    suite = select_suite(args)
    if len(suite) == 0:
        print("no scenarios match the given filters", file=sys.stderr)
        return 2
    if args.list:
        return list_suite(suite)

    try:
        plan = sampling_plan(args)
        prior = mined_prior(args)
    except (SimulatorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = CampaignRunner(
        campaign_config(args),
        workers=args.workers,
        faults_per_job=args.faults_per_job,
        job_retries=args.job_retries,
        progress=logger.progress(),
        throughput=args.throughput,
        plan=plan,
        prior=prior,
    )
    store = CampaignStore(args.store) if args.store is not None else None
    resumed = len(store.completed_ids()) if (store is not None and args.resume) else 0
    if plan is not None:
        shape = (f"adaptive to ±{plan.target_half_width} at "
                 f"{plan.confidence:.0%} (<= {plan.max_faults} faults)"
                 + (", mined prior" if prior is not None else ""))
    else:
        shape = f"{args.faults} faults"
    logger.info(
        f"campaign: {len(suite)} scenarios x {shape}, "
        f"{args.workers} workers"
        + (f", resuming past {resumed} completed shard(s)" if resumed else "")
    )
    start = time.monotonic()
    try:
        database = runner.run_suite(suite, store=store, resume=args.resume)
    except KeyboardInterrupt:
        print("\ninterrupted — completed shards are preserved; rerun with --resume")
        return 130
    except SimulatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start

    totals = database.outcome_totals()
    print(
        f"\ncompleted {len(database)}/{len(suite)} scenarios "
        f"({database.total_injections()} injections) in {elapsed:.1f}s"
    )
    if args.throughput and elapsed > 0:
        print(f"throughput: {runner.guest_instructions / elapsed / 1e6:.2f} aggregate guest MIPS "
              f"({runner.guest_instructions} guest instructions), "
              f"{runner.injections / elapsed:.1f} injections/s")
    print("outcomes: " + ", ".join(f"{k}={v}" for k, v in totals.items()))
    if plan is not None and len(database):
        from repro.analysis import efficiency_rows, render_efficiency_table

        print()
        print(render_efficiency_table(efficiency_rows(database)))
    for failure in database.failures:
        print(f"FAILED {failure.scenario_id} [{failure.phase}]: "
              f"{failure.error_type}: {failure.error}")
    if args.out is not None:
        print(f"database -> {database.save_json(args.out)}")
    if args.csv is not None:
        print(f"csv      -> {database.export_csv(args.csv)}")
    return 1 if database.failures else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import render_predicted_avf, render_table
    from repro.npb.suite import build_program
    from repro.staticlint import (
        analyze_liveness,
        analyze_scenario,
        validate_store,
        variable_ranks,
    )
    from repro.stats.strata import static_vulnerability

    if args.validate is not None:
        report = validate_store(args.validate)
        if not report.rows:
            print("no register-file scenarios to validate in this store", file=sys.stderr)
            return 2
        print(report.render())
        return 0

    suite = select_suite(args)
    if len(suite) == 0:
        print("no scenarios match the given filters", file=sys.stderr)
        return 2
    if args.list:
        return list_suite(suite)

    vulnerabilities = []
    for scenario in suite:
        if args.static_only:
            vulnerabilities.append(static_vulnerability(scenario))
        else:
            vulnerabilities.append(analyze_scenario(scenario))
    print(render_predicted_avf(vulnerabilities))

    if args.variables:
        seen = set()
        for scenario in suite:
            variant = (scenario.app, scenario.mode, scenario.isa, scenario.hardening_label)
            if variant in seen:
                continue
            seen.add(variant)
            program = build_program(
                scenario.app, scenario.mode, scenario.isa, scenario.hardening
            )
            ranks = variable_ranks(program, analyze_liveness(program))
            rows = []
            for function in sorted(ranks):
                ordered = sorted(ranks[function].items(), key=lambda item: (-item[1], item[0]))
                for variable, score in ordered[: args.top]:
                    rows.append({"function": function, "variable": variable,
                                 "score": round(score, 1)})
            print()
            print(render_table(rows, ["function", "variable", "score"],
                               title=f"Variable vulnerability ranks: {'/'.join(variant)}"))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    logger = logger_from_args(args, "coordinator")
    suite = select_suite(args)
    if len(suite) == 0:
        print("no scenarios match the given filters", file=sys.stderr)
        return 2
    if args.list:
        return list_suite(suite)
    try:
        coordinator = CampaignCoordinator(
            CampaignStore(args.store),
            suite,
            campaign_config(args),
            resume=args.resume,
            lease_ttl=args.lease_ttl,
            logger=logger,
            plan=sampling_plan(args),
            prior=mined_prior(args),
        )
    except (SimulatorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    serve(
        coordinator,
        host=args.host,
        port=args.port,
        until_complete=args.until_complete,
    )
    return 0 if coordinator.done else 130


def cmd_work(args: argparse.Namespace) -> int:
    worker_id = args.worker_id or None
    agent = WorkerAgent(
        args.coordinator,
        worker_id=worker_id,
        workers=args.workers,
        faults_per_job=args.faults_per_job,
        job_retries=args.job_retries,
        poll_interval=args.poll_interval,
        logger=logger_from_args(args, worker_id or "worker"),
    )

    def drain(signum, frame):  # first Ctrl-C: finish the scenario, then exit
        agent.logger.warning("stop requested; draining (Ctrl-C again to abort)")
        agent.request_stop()
        signal.signal(signal.SIGINT, signal.default_int_handler)

    previous = signal.signal(signal.SIGINT, drain)
    try:
        agent.run()
    except KeyboardInterrupt:
        print("\naborted — the in-flight lease will expire and be reclaimed")
        return 130
    except SimulatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGINT, previous)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    try:
        if args.coordinator:
            client = CoordinatorClient(args.coordinator)
            status = client.get("/status")
            table = client.get(f"/results/{args.table}") if args.table else None
        else:
            service = ResultsService(CampaignStore(args.store))
            status = service.status()
            table = service.table(args.table) if args.table else None
    except (SimulatorError, ConnectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_status(status))
    if table is not None:
        print()
        print(table["rendered"])
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return {
        "run": cmd_run,
        "serve": cmd_serve,
        "work": cmd_work,
        "status": cmd_status,
        "analyze": cmd_analyze,
    }[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
