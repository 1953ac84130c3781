"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro list --json          # same catalogue, machine-readable
    python -m repro fig12                # one figure at bench scale
    python -m repro fig15 --quick        # one figure at smoke scale
    python -m repro run fig12-fm-seeding # any registered scenario, by alias
    python -m repro run my_scenario.yaml --seed 7   # a DSL payload file
    python -m repro validate my_scenario.yaml       # check a payload only
    python -m repro catalogue --markdown # scenario table for the docs
    python -m repro all --jobs 4         # the whole evaluation, 4 processes
    python -m repro bench                # perf baseline -> BENCH_results.json
    python -m repro trace fig12 --trace-out run.json   # traced quick run
    python -m repro profile fig16        # latency attribution -> profile.json
    python -m repro profile --diff a.json b.json       # rank attribution deltas
    python -m repro status runs.jsonl    # summarize a sweep run ledger
    python -m repro bench --compare BENCH_results.json  # regression gate
    python -m repro lint                 # simulator-aware static analysis

Sweep points within a figure are independent simulations; ``--jobs N`` (or
the ``REPRO_JOBS`` environment variable) fans them out over N processes
with results identical to a serial run.  ``--trace-dir DIR`` collects one
Perfetto trace per sweep point and ``--profile-dir DIR`` one latency-
attribution report per sweep point; ``trace`` runs one figure in-process
at quick scale and writes a single combined trace, ``profile`` does the
same under the in-stream latency profiler and writes a ProfileReport plus
a collapsed-stack flamegraph (see docs/OBSERVABILITY.md).

Fleet telemetry: ``--ledger FILE`` (or ``REPRO_LEDGER``) appends one JSONL
lifecycle event per sweep job, ``--progress`` (or ``REPRO_PROGRESS=1``)
draws a stderr progress line, ``status`` summarizes a ledger
(completed/running/failed, throughput, ETA, slowest jobs), and ``bench
--compare OLD.json`` gates per-figure events/sec against a baseline
(non-zero exit on regression; ``--against NEW.json`` compares two saved
payloads without re-benching).  See docs/OBSERVABILITY.md, "Fleet
telemetry".
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments import ExperimentScale, ParallelSweepRunner, tables
from repro.experiments.scenarios import (
    SCENARIOS,
    ensure_registered,
    get_scenario,
    resolve_scenario,
    scenario_names,
)

ensure_registered()


def _scenario_entry(name):
    """(description, runner-callable) pair for one registered scenario."""
    spec = SCENARIOS[name]
    return (spec.title,
            lambda scale, runner: spec.main(scale, runner=runner))


#: The paper's artifact catalogue: the scenario-backed figures plus the
#: two static tables.  (``scalability`` is an extension study: it is
#: benched and reachable via ``run``, but not part of the paper's set.)
EXPERIMENTS = {
    name: _scenario_entry(name)
    for name in ("fig3", "fig12", "fig13", "fig14", "fig15", "fig16",
                 "fig17", "sec6g")
}
EXPERIMENTS["table1"] = ("experimental configuration",
                         lambda scale, runner: tables.main())
EXPERIMENTS["table2"] = ("PE hardware overhead",
                         lambda scale, runner: tables.main())


def _is_payload_path(target: str) -> bool:
    """Does a ``run``/``validate`` target name a payload file (not a
    registered scenario)?  Payload files are recognized by extension or
    by containing a path separator."""
    return target.endswith((".yaml", ".yml", ".json")) or os.sep in target


def _run_scenario(args, parser) -> int:
    """``python -m repro run <scenario-or-payload>``: execute one
    registered scenario (canonical name or alias) or a DSL payload file
    through the unified scenario layer."""
    if args.target is None:
        parser.error(f"run needs a scenario: one of {scenario_names()} "
                     "(or a payload file, see docs/SCENARIOS.md)")
    runner = ParallelSweepRunner(jobs=args.jobs, trace_dir=args.trace_dir,
                                 profile_dir=args.profile_dir,
                                 ledger_path=args.ledger,
                                 progress=args.progress or None)
    scale = ExperimentScale.quick() if args.quick else ExperimentScale.bench()
    if _is_payload_path(args.target):
        from repro.experiments import dsl

        try:
            spec = dsl.load_scenario_file(args.target, seed=args.seed)
        except (dsl.PayloadError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # No wall-clock footer here: payload runs must be bit-identical
        # across invocations (the DSL's determinism contract).
        print(f"\n=== {spec.name}: {spec.title} ===")
        spec.main(scale, runner=runner)
        return 0
    canonical = resolve_scenario(args.target)
    if canonical is None:
        parser.error(f"unknown scenario {args.target!r}; "
                     f"known: {scenario_names()}")
    spec = get_scenario(canonical)
    print(f"\n=== {canonical}: {spec.title} ===")
    started = time.time()
    spec.main(scale, runner=runner)
    print(f"[{canonical} took {time.time() - started:.1f}s]")
    return 0


def _run_validate(args, parser) -> int:
    """``python -m repro validate <payload>``: schema-check one payload
    file without running it."""
    from repro.experiments import dsl

    if args.target is None:
        parser.error("validate needs a payload file (YAML or JSON)")
    try:
        payload = dsl.validate_payload(dsl.load_payload(args.target))
    except (dsl.PayloadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {args.target} -> scenario {payload.name!r} "
          f"(kind {payload.kind}; backends {', '.join(payload.backends)})")
    return 0


def _run_catalogue(args, parser) -> int:
    """``python -m repro catalogue``: the registered-scenario table
    (``--markdown`` for the docs copy, ``--check`` for the CI sync gate)."""
    from repro.experiments import catalogue

    if args.check:
        ok, message = catalogue.check_docs_sync()
        print(message)
        return 0 if ok else 1
    print(catalogue.render_markdown() if args.markdown
          else catalogue.render_text())
    return 0


def _list_json() -> str:
    """The ``list --json`` document: experiments + scenario catalogue."""
    import json

    ensure_registered()
    scenarios = []
    for name, spec in SCENARIOS.items():
        scenarios.append({
            "name": name,
            "title": spec.title,
            "aliases": list(spec.aliases),
            "backends": list(spec.backends),
            "drivers": list(spec.drivers),
            "sweep_axes": list(spec.sweep_axes),
        })
    return json.dumps({
        "experiments": {
            name: description
            for name, (description, _run) in sorted(EXPERIMENTS.items())
        },
        "scenarios": scenarios,
    }, indent=2, sort_keys=True)


def _run_trace(args, parser) -> int:
    """``python -m repro trace <figure>``: one traced quick-scale run."""
    from repro.obs import TRACE_CATEGORIES, TraceSession, busiest_components
    from repro.perf.harness import BENCH_FIGURES

    figure = args.target
    if figure is None or figure not in BENCH_FIGURES:
        parser.error(
            f"trace needs a figure to run: one of {sorted(BENCH_FIGURES)}"
        )
    categories = None
    if args.trace_filter:
        categories = frozenset(
            part.strip() for part in args.trace_filter.split(",") if part.strip()
        )
        unknown = categories - set(TRACE_CATEGORIES)
        if unknown:
            parser.error(
                f"unknown trace categories {sorted(unknown)}; "
                f"known: {list(TRACE_CATEGORIES)}"
            )
    if args.jobs is not None and args.jobs > 1:
        print("[trace] note: traced runs are in-process; ignoring --jobs")
    metrics_interval = args.metrics_interval
    if metrics_interval is None and args.metrics_out:
        from repro.obs.session import DEFAULT_METRICS_INTERVAL

        metrics_interval = DEFAULT_METRICS_INTERVAL

    session = TraceSession(
        categories=categories,
        limit=args.trace_limit,
        metrics_interval=metrics_interval,
    )
    runner = ParallelSweepRunner(jobs=1)
    started = time.time()
    with session:
        BENCH_FIGURES[figure](ExperimentScale.quick(), runner=runner)
    elapsed = time.time() - started
    recorder = session.recorder
    session.save(args.trace_out, metrics_path=args.metrics_out or None)
    size_mb = os.path.getsize(args.trace_out) / 1e6
    print(f"\n[trace] {figure} took {elapsed:.1f}s at quick scale")
    print(f"[trace] {recorder.recorded} events recorded "
          f"({recorder.dropped} dropped) across layers: "
          f"{', '.join(sorted(recorder.layers()))}")
    print(f"[trace] wrote {args.trace_out} ({size_mb:.1f} MB)")
    if args.metrics_out and session.sampler is not None:
        print(f"[trace] wrote {args.metrics_out} "
              f"({session.sampler.sample_count} metric samples)")
    print("[trace] top components by busy time:")
    for path, busy_us in busiest_components(recorder.chrome_events()):
        print(f"    {path:44s} {busy_us:14,.1f} us")
    print("[trace] open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _run_profile(args, parser) -> int:
    """``python -m repro profile <figure>`` (or ``--diff a b``): latency
    attribution from an in-stream profiled quick-scale run."""
    from repro.obs import (
        ProfileReport,
        TraceSession,
        diff_reports,
        format_diff,
        render_summary,
        write_flamegraph,
    )
    from repro.perf.harness import BENCH_FIGURES, resolve_figure

    if args.diff:
        path_a, path_b = args.diff
        deltas = diff_reports(ProfileReport.load(path_a),
                              ProfileReport.load(path_b))
        print(f"[profile] attribution deltas, {path_a} -> {path_b}:")
        print(format_diff(deltas), end="")
        return 0

    if args.target is None:
        parser.error(
            "profile needs a figure to run (one of "
            f"{sorted(BENCH_FIGURES)}) or --diff A.json B.json"
        )
    figure = resolve_figure(args.target)
    if figure is None:
        parser.error(
            f"unknown figure {args.target!r}; known: {sorted(BENCH_FIGURES)}"
        )
    if args.jobs is not None and args.jobs > 1:
        print("[profile] note: profiled runs are in-process; ignoring --jobs")

    session = TraceSession(limit=0, profile=True)
    runner = ParallelSweepRunner(jobs=1)
    started = time.time()
    with session:
        BENCH_FIGURES[figure](ExperimentScale.quick(), runner=runner)
    elapsed = time.time() - started
    report = session.profile_report(figure=figure, scale="quick")
    report.save(args.profile_out)
    stacks = write_flamegraph(report, args.flame_out)
    print(render_summary(report), end="")
    print(f"[profile] {figure} took {elapsed:.1f}s at quick scale "
          f"({report.events_seen} events profiled in-stream)")
    print(f"[profile] wrote {args.profile_out} (schema {report.schema})")
    print(f"[profile] wrote {args.flame_out} ({stacks} collapsed stacks; "
          "feed to any flamegraph tool)")
    return 0


def _run_status(args, parser) -> int:
    """``python -m repro status <ledger>``: summarize a sweep run ledger
    (completed/running/failed, throughput, ETA, slowest jobs;
    ``--json`` for the machine-readable form)."""
    import json

    from repro.obs.telemetry import (
        LedgerError,
        read_ledger,
        render_status,
        summarize_ledger,
    )

    if args.target is None:
        parser.error("status needs a ledger file (written via --ledger "
                     "FILE or $REPRO_LEDGER; see docs/OBSERVABILITY.md)")
    try:
        events = read_ledger(args.target)
    except (LedgerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = summarize_ledger(events)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_status(summary), end="")
    return 0


def _run_bench(args, parser) -> int:
    """``python -m repro bench``: the perf baseline, optionally gated.

    ``--compare OLD.json`` runs the bench and then gates the fresh
    payload against the baseline (non-zero exit on any figure below
    ``--threshold`` x baseline events/sec); adding ``--against NEW.json``
    skips benching entirely and compares two saved payloads — the cheap
    CI path when a bench artifact already exists.
    """
    from repro.obs.telemetry import (
        DEFAULT_THRESHOLD,
        CompareError,
        compare_bench,
        load_bench_payload,
        render_compare,
    )
    from repro.perf import run_bench

    threshold = (args.threshold if args.threshold is not None
                 else DEFAULT_THRESHOLD)
    if args.against is not None and args.compare is None:
        parser.error("--against needs --compare OLD.json")
    try:
        if args.compare is not None and args.against is not None:
            old = load_bench_payload(args.compare)
            new = load_bench_payload(args.against)
        else:
            old = (load_bench_payload(args.compare)
                   if args.compare is not None else None)
            new = run_bench(jobs=args.jobs, verify=not args.no_verify,
                            output=args.output,
                            trace_verify=args.verify_tracing,
                            attribution=args.attribution,
                            telemetry_verify=args.verify_telemetry,
                            repeats=args.repeats)
        if old is None:
            return 0
        report = compare_bench(old, new, threshold=threshold)
    except CompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_compare(report), end="")
    return 0 if report["ok"] else 1


def main(argv=None) -> int:
    """Run the experiment and print the paper-style rows."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The lint pass has its own flag set (--json/--rule/...); hand the
        # rest of the command line to its parser untouched.
        from repro.analysis.cli import main as lint_main

        return lint_main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the BEACON paper's evaluation artifacts.",
    )
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "list", "bench",
                                                       "run", "trace",
                                                       "profile", "lint",
                                                       "validate",
                                                       "catalogue",
                                                       "status"],
                        help="which table/figure to regenerate ('run' "
                             "executes any registered scenario by name or "
                             "alias, or a DSL payload file; 'validate' "
                             "schema-checks a payload file; 'catalogue' "
                             "prints the scenario table; 'bench' times the "
                             "quick-scale suite and writes the perf "
                             "baseline; 'trace' runs one figure at quick "
                             "scale with tracing on; 'profile' runs one "
                             "figure under the latency profiler; 'status' "
                             "summarizes a sweep run ledger; 'lint' "
                             "runs the simulator-aware static-analysis "
                             "pass)")
    parser.add_argument("target", nargs="?", default=None,
                        help="run/trace/profile/validate/status only: the "
                             "scenario, figure, payload file, or ledger "
                             "file to act on")
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale (seconds instead of minutes)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan independent sweep points out over N "
                             "processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--output", default="BENCH_results.json",
                        help="bench only: where to write the perf baseline "
                             "(default: %(default)s)")
    parser.add_argument("--no-verify", action="store_true",
                        help="bench only: skip the bit-identical check "
                             "against the serial/uncached reference")
    parser.add_argument("--verify-tracing", action="store_true",
                        help="bench only: also verify results are "
                             "bit-identical with tracing enabled")
    parser.add_argument("--trace-out", default="trace.json", metavar="FILE",
                        help="trace only: Perfetto JSON output path "
                             "(default: %(default)s)")
    parser.add_argument("--trace-filter", default=None, metavar="CATS",
                        help="trace only: comma-separated categories to "
                             "keep (dram,cxl,ndp,mem; default: all)")
    parser.add_argument("--trace-limit", type=int, default=None, metavar="N",
                        help="trace only: cap recorded events at N "
                             "(default: 2,000,000)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="trace only: also write sampled StatScope "
                             "counters as CSV")
    parser.add_argument("--metrics-interval", type=int, default=None,
                        metavar="CYCLES",
                        help="trace only: metric sampling interval in "
                             "simulated cycles (default: 50,000)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="figure runs: write one trace per sweep job "
                             "into DIR (also $REPRO_TRACE_DIR)")
    parser.add_argument("--profile-dir", default=None, metavar="DIR",
                        help="figure runs: write one latency-attribution "
                             "report per sweep job into DIR (also "
                             "$REPRO_PROFILE_DIR)")
    parser.add_argument("--profile-out", default="profile.json",
                        metavar="FILE",
                        help="profile only: ProfileReport JSON output path "
                             "(default: %(default)s)")
    parser.add_argument("--flame-out", default="profile.folded",
                        metavar="FILE",
                        help="profile only: collapsed-stack flamegraph "
                             "output path (default: %(default)s)")
    parser.add_argument("--diff", nargs=2, default=None,
                        metavar=("A.json", "B.json"),
                        help="profile only: compare two saved "
                             "ProfileReports and rank attribution deltas")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="run only, payload files: override the "
                             "payload's seed")
    parser.add_argument("--json", action="store_true",
                        help="list/status: emit the catalogue or ledger "
                             "summary as JSON")
    parser.add_argument("--dsl", action="store_true",
                        help="list only: also print the scenario-payload "
                             "schema reference")
    parser.add_argument("--markdown", action="store_true",
                        help="catalogue only: emit a markdown table "
                             "(the docs/SCENARIOS.md copy)")
    parser.add_argument("--check", action="store_true",
                        help="catalogue only: verify the committed copy "
                             "in docs/SCENARIOS.md matches the registry")
    parser.add_argument("--attribution", action="store_true",
                        help="bench only: run each figure once more under "
                             "the latency profiler and write phase "
                             "attribution into BENCH_results.json")
    parser.add_argument("--ledger", default=None, metavar="FILE",
                        help="figure runs: append one JSONL lifecycle "
                             "event per sweep job to FILE (also "
                             "$REPRO_LEDGER; summarize with 'status')")
    parser.add_argument("--progress", action="store_true",
                        help="figure runs: draw an in-terminal progress "
                             "line on stderr as sweep jobs complete "
                             "(also $REPRO_PROGRESS=1)")
    parser.add_argument("--verify-telemetry", action="store_true",
                        help="bench only: also verify results are "
                             "bit-identical with the run ledger and "
                             "progress line enabled")
    parser.add_argument("--compare", default=None, metavar="OLD.json",
                        help="bench only: regression-gate the fresh bench "
                             "against a baseline payload (non-zero exit "
                             "when any figure drops below the threshold)")
    parser.add_argument("--against", default=None, metavar="NEW.json",
                        help="bench only, with --compare: skip benching "
                             "and compare two saved payloads instead")
    parser.add_argument("--threshold", type=float, default=None, metavar="R",
                        help="bench --compare: regression threshold as a "
                             "fraction of baseline events/sec "
                             "(default: 0.75)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="bench only: timed runs per figure; the "
                             "fastest is recorded (best-of-N defeats "
                             "quick-scale machine noise; default: "
                             "%(default)s)")
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    if args.experiment == "trace":
        return _run_trace(args, parser)
    if args.experiment == "profile":
        return _run_profile(args, parser)
    if args.experiment == "run":
        return _run_scenario(args, parser)
    if args.experiment == "validate":
        return _run_validate(args, parser)
    if args.experiment == "catalogue":
        return _run_catalogue(args, parser)
    if args.experiment == "status":
        return _run_status(args, parser)
    if args.target is not None:
        parser.error("a second positional argument is only valid for "
                     "'run', 'trace', 'profile', 'validate', and 'status'")

    if args.experiment == "list":
        if args.json:
            print(_list_json())
            return 0
        for name, (description, _run) in sorted(EXPERIMENTS.items()):
            print(f"  {name:8s} {description}")
        print("  bench    perf baseline: time every figure at quick scale")
        print("  run      any registered scenario by name or alias "
              "(or a payload file, see docs/SCENARIOS.md):")
        for name in scenario_names():
            spec = SCENARIOS[name]
            alias_note = (f"  (aliases: {', '.join(spec.aliases)})"
                          if spec.aliases else "")
            print(f"    {name:14s} {spec.title}{alias_note}")
        print("  validate  schema-check a scenario payload file")
        print("  catalogue scenario table (--markdown / --check)")
        print("  trace    one traced figure run -> Perfetto JSON")
        print("  profile  one profiled figure run -> latency attribution")
        print("  status   summarize a sweep run ledger "
              "(--ledger FILE / $REPRO_LEDGER)")
        print("  lint     simulator-aware static analysis (determinism, "
              "cycle-safety, trace discipline, whole-program call-graph "
              "rules)")
        if args.dsl:
            from repro.experiments.dsl import schema_reference

            print()
            print(schema_reference())
        return 0

    if args.experiment == "bench":
        return _run_bench(args, parser)

    runner = ParallelSweepRunner(jobs=args.jobs, trace_dir=args.trace_dir,
                                 profile_dir=args.profile_dir,
                                 ledger_path=args.ledger,
                                 progress=args.progress or None)
    scale = ExperimentScale.quick() if args.quick else ExperimentScale.bench()
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        description, run = EXPERIMENTS[name]
        print(f"\n=== {name}: {description} ===")
        started = time.time()
        run(scale, runner)
        print(f"[{name} took {time.time() - started:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
