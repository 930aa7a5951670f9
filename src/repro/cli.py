"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run FILE``
    Assemble and execute an assembly file on the full machine (kernel +
    out-of-order pipeline), printing the exit reason and pipeline/cache
    statistics.  ``--func`` uses the functional simulator instead;
    ``--icm`` attaches the RSE with the ICM checking all control flow.

``experiment {table4,table5,fig9,ablations,attack-matrix}``
    Run an experiment harness and print its paper-style table
    (``--quick`` for the reduced configuration).

``campaign run [FILE]`` / ``campaign serve PATHS``
    Fault-injection campaigns: ``run`` executes (or resumes) one —
    serially, or sharded over ``--workers`` processes; ``serve``
    tails campaign stores and aggregates live outcome counts and
    Wilson-CI detection matrices (``--watch`` to follow a campaign as
    it runs).  The bare historical spelling ``repro campaign <flags>``
    still means ``campaign run``.

``attack {stack,got,run,matrix}``
    Security harness: ``stack``/``got`` run the hand-written exploit
    demos under a chosen ``--defense`` (on any ``--engine``); ``run``
    generates and executes one seeded attack variant from the corpus
    (:mod:`repro.security.attackgen`); ``matrix`` runs the full module
    × attack-class detection-coverage matrix with Wilson CIs.

``stats FILE``
    Pretty-print (or ``--diff`` two) telemetry files: either a
    ``Machine.snapshot()`` JSON document (``repro run --stats-json``)
    or a campaign JSONL store.

``assertions list``
    Print the portable invariant catalog (:mod:`repro.assertions`);
    ``--assert`` on ``run``, ``difftest`` and ``campaign`` runs the
    same properties live against the chosen engine(s).

``info``
    Print the simulated machine configuration and the Section 3.1
    hardware-cost estimates.

Every data-producing subcommand takes ``--json``; all machine-readable
output is routed through one serializer (:func:`emit_json`).  A user
error (a bad flag, an input file that cannot be read, a malformed
program, a campaign store or checkpoint image from another
configuration) prints one ``repro: error:`` line on stderr and exits
2; any other exception is a bug and keeps its traceback.
"""

import argparse
import json
import os
import sys

from repro.analysis.hardware_cost import framework_input_cost, \
    mlr_hardware_cost
from repro.analysis.tables import format_table


# ------------------------------------------------------------- serializer

def jsonable(value):
    """Coerce *value* into plain JSON-compatible data.

    Dicts/lists/tuples recurse; objects expose themselves via
    ``snapshot()`` or their ``__dict__``; anything else falls back to
    ``str``.  This is the single normalization point every ``--json``
    flag routes through.
    """
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    snapshot = getattr(value, "snapshot", None)
    if callable(snapshot):
        return jsonable(snapshot())
    if hasattr(value, "__dict__"):
        return {key: jsonable(item)
                for key, item in vars(value).items()
                if not key.startswith("_")}
    return str(value)


def emit_json(payload, stream=None):
    """The one JSON serializer behind every ``--json`` flag."""
    stream = stream or sys.stdout
    json.dump(jsonable(payload), stream, indent=2, sort_keys=True)
    stream.write("\n")


def flatten_doc(doc, prefix=""):
    """Flatten a nested snapshot document to ordered dotted-key pairs."""
    pairs = []
    for key, value in doc.items():
        path = "%s.%s" % (prefix, key) if prefix else str(key)
        if isinstance(value, dict):
            pairs.extend(flatten_doc(value, path))
        else:
            pairs.append((path, value))
    return pairs


class UsageError(Exception):
    """A bad flag combination or an unreadable input file: ``main``
    prints it as one line and exits 2."""


def _read_input(path):
    """The text of the input file the user named."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(exc) from exc


def _cmd_run(args):
    from repro.funcsim import FuncSim
    from repro.memory.mainmem import MainMemory
    from repro.program.layout import MemoryLayout
    from repro.rse.check import MODULE_ICM
    from repro.rse.modules.icm import build_checker_memory, make_icm_injector
    from repro.system import build_machine
    from repro.workloads.asmlib import build_workload_image, std_constants

    source = _read_input(args.file)

    engine = args.engine or ("predecode" if args.func else "pipeline")
    if args.func and engine == "pipeline":
        raise UsageError("--func contradicts --engine pipeline")

    if engine != "pipeline":
        from repro.isa.assembler import assemble

        if args.stats_json:
            raise UsageError("--stats-json needs the full machine "
                             "(use --engine pipeline)")
        asm = assemble(source, constants=std_constants())
        memory = MainMemory()
        memory.store_bytes(asm.text_base, asm.text)
        memory.store_bytes(asm.data_base, asm.data)
        sim = FuncSim(memory, entry=asm.entry, sp=0x7FFF0000,
                      predecode_enabled=(engine != "interp"),
                      jit_enabled=(engine == "jit" and not args.no_jit))
        adapter = None
        if args.with_assertions:
            from repro.assertions import attach_funcsim

            adapter = attach_funcsim(sim)
        result = sim.run(max_steps=args.max_cycles)
        violations = []
        if adapter is not None:
            adapter.detach()          # runs the end-of-run sweeps
            violations = adapter.monitor.violations
        if args.json:
            payload = {"mode": "functional", "engine": engine,
                       "result": result.value,
                       "instret": sim.instret,
                       "fault": ("pc=0x%08x %s" % sim.fault
                                 if sim.fault else None)}
            if sim.trace_cache is not None:
                payload["trace_cache"] = sim.trace_cache.stats()
            if args.with_assertions:
                payload["assertions"] = adapter.monitor.snapshot()
            emit_json(payload)
            return 1 if violations else 0
        print("functional run (%s): %s after %d instructions"
              % (engine, result.value, sim.instret))
        if sim.trace_cache is not None:
            stats = sim.trace_cache.stats()
            print("trace JIT: %d traces live, %d compiled, "
                  "%d invalidated, %d deopt runs"
                  % (stats["traces_live"], stats["compiled"],
                     stats["invalidated"], stats["deopt_runs"]))
        if sim.fault:
            print("fault: pc=0x%08x %s" % sim.fault)
        _print_violations(violations, args.with_assertions)
        return 1 if violations else 0

    from repro.pipeline.config import PipelineConfig

    machine = build_machine(with_rse=args.icm,
                            modules=("icm",) if args.icm else (),
                            pipeline_config=(PipelineConfig(batch=False)
                                             if args.no_jit else None))
    image, asm = build_workload_image(source, MemoryLayout())
    machine.kernel.load_process(image)
    if args.with_assertions:
        machine.assertions.attach()
    if args.icm:
        icm = machine.module(MODULE_ICM)
        text = image.segment(".text")
        checker_map = build_checker_memory(machine.memory, text.base,
                                           len(text.data))
        icm.configure(checker_map)
        machine.rse.enable_module(MODULE_ICM)
        machine.pipeline.check_injector = make_icm_injector(checker_map)
    result = machine.kernel.run(max_cycles=args.max_cycles)
    snapshot = result.snapshot
    violations = []
    if args.with_assertions:
        machine.assertions.detach()       # runs the end-of-run sweeps
        violations = machine.assertions.violations()
    if args.stats_json:
        with open(args.stats_json, "w") as handle:
            emit_json(snapshot, stream=handle)
    if args.json:
        payload = {"mode": "machine", "engine": "pipeline",
                   "batch": not args.no_jit, "reason": result.reason,
                   "cycles": result.cycles,
                   "output": [value for __, value in machine.kernel.output],
                   "snapshot": snapshot}
        if args.with_assertions:
            payload["assertions"] = machine.assertions.snapshot()
        emit_json(payload)
        if violations:
            return 1
        return 0 if result.reason in ("halt", "all_exited") else 1
    pipeline = snapshot["pipeline"]
    print("run ended: %s" % result.reason)
    print("cycles: %d   instructions: %d   IPC: %.2f"
          % (pipeline["cycles"], pipeline["instret"], pipeline["ipc"]))
    print("branches: %d   mispredicts: %d   loads: %d   stores: %d"
          % (pipeline["branches"], pipeline["mispredicts"],
             pipeline["loads"], pipeline["stores"]))
    mem = snapshot["memory"]
    print("il1 miss: %.2f%%   dl1 miss: %.2f%%"
          % (100 * mem["il1"]["miss_rate"], 100 * mem["dl1"]["miss_rate"]))
    for kind, value in machine.kernel.output:
        print("guest output: %s" % value)
    if args.icm:
        icm = machine.module(MODULE_ICM)
        print("ICM: %d checks, %d mismatches, %.1f%% cache hit rate"
              % (icm.checks_completed, icm.mismatches,
                 100 * icm.cache_hit_rate))
    if args.stats_json:
        print("snapshot written to %s" % args.stats_json)
    _print_violations(violations, args.with_assertions)
    if violations:
        return 1
    return 0 if result.reason in ("halt", "all_exited") else 1


def _print_violations(violations, watched):
    """Human-readable assertion summary for ``repro run --assert``."""
    if not watched:
        return
    if not violations:
        print("assertions: all properties held")
        return
    print("assertions: %d VIOLATION(S):" % len(violations))
    for violation in violations:
        where = ("" if violation.pc is None
                 else " pc=0x%08x" % violation.pc)
        print("  [%s]%s %s" % (violation.property_id, where,
                               violation.detail))


def _cmd_experiment(args):
    from repro.experiments import ablations, fig9, table4, table5

    if args.name == "attack-matrix":
        from repro.experiments import attack_matrix as harness

        results = harness.run_attack_matrix(quick=args.quick)
        if args.json:
            emit_json({"experiment": "attack-matrix", "results": results})
            return 0
        print(harness.format_matrix(results))
        return 0
    if args.name == "table4":
        results = table4.run_table4(quick=args.quick)
        fw, icm = table4.average_overheads(results)
        if args.json:
            emit_json({"experiment": "table4", "results": results,
                       "average_overheads": {"framework": fw,
                                             "framework_icm": icm}})
            return 0
        print(table4.format_table4(results))
        print("\naverage overheads: framework %.2f%%  framework+ICM %.2f%%"
              % (fw, icm))
    elif args.name == "table5":
        results = table5.run_table5(quick=args.quick)
        penalty = table5.measure_pi_rand_penalty()
        if args.json:
            emit_json({"experiment": "table5", "results": results,
                       "pi_rand_penalty_cycles": penalty})
            return 0
        print(table5.format_table5(results))
        print("\nposition-independent penalty: %d cycles (paper: 56)"
              % penalty)
    elif args.name == "fig9":
        results = fig9.run_fig9(quick=args.quick)
        if args.json:
            emit_json({"experiment": "fig9", "results": results})
            return 0
        print(fig9.format_fig9(results))
        print()
        print(fig9.chart_fig9(results))
    else:
        sizes = (32, 256) if args.quick else (32, 64, 128, 256, 512)
        arbiter = ablations.run_arbiter_placement(quick=args.quick)
        sweep = ablations.run_icm_cache_sweep(sizes=sizes, quick=args.quick)
        lag = ablations.run_ddt_lag()
        if args.json:
            emit_json({"experiment": "ablations",
                       "arbiter_placement": arbiter,
                       "icm_cache_sweep": sweep, "ddt_lag": lag})
            return 0
        print(ablations.format_arbiter_placement(arbiter))
        print()
        print(ablations.format_icm_cache_sweep(sweep))
        print()
        print(ablations.format_ddt_lag(lag))
    return 0


def _cmd_attack(args):
    if args.attack_cmd in ("stack", "got"):
        return _cmd_attack_demo(args)
    if args.attack_cmd == "run":
        return _cmd_attack_run(args)
    return _cmd_attack_matrix(args)


def _cmd_attack_demo(args):
    from repro.security.attacks import run_got_hijack, run_stack_smash

    if args.attack_cmd == "stack":
        result = run_stack_smash(defense=args.defense, seed=args.seed,
                                 engine=args.engine)
    else:
        if args.defense == "trr":
            raise UsageError(
                "the GOT hijack demo supports defenses: none, mlr")
        result = run_got_hijack(defense=args.defense, engine=args.engine)
    if args.json:
        emit_json({"attack": args.attack_cmd, "defense": args.defense,
                   "engine": args.engine, "outcome": result.outcome.value,
                   "reason": result.result.reason})
        return 0
    print("attack: %s   defense: %s   outcome: %s (run ended: %s)"
          % (args.attack_cmd, args.defense, result.outcome.value,
             result.result.reason))
    return 0


def _cmd_attack_run(args):
    from repro.security.attackgen import generate_variant, run_variant

    variant = generate_variant(args.attack_class, args.seed,
                               config=args.config)
    run = run_variant(variant, max_cycles=args.max_cycles,
                      engine=args.engine)
    if args.json:
        emit_json({"attack": variant.attack_class, "config": variant.config,
                   "seed": variant.seed, "engine": args.engine,
                   "outcome": run.outcome.value, "reason": run.reason,
                   "detections": run.detections, "cycles": run.cycles,
                   "meta": jsonable(variant.meta)})
        return 0
    print("attack: %s   config: %s   seed: %d   engine: %s"
          % (variant.attack_class, variant.config, variant.seed,
             args.engine))
    print("outcome: %s (run ended: %s, %d detections, %d cycles)"
          % (run.outcome.value, run.reason, run.detections, run.cycles))
    for key in sorted(variant.meta):
        print("  %s = %r" % (key, variant.meta[key]))
    return 0


def _cmd_attack_matrix(args):
    from repro.security.attackgen import ATTACK_CLASSES
    from repro.security.coverage import (DEFAULT_CONFIGS, attack_matrix,
                                         format_attack_matrix)

    classes = (tuple(t for t in args.classes.split(",") if t)
               if args.classes else ATTACK_CLASSES)
    configs = (tuple(t for t in args.configs.split(",") if t)
               if args.configs else DEFAULT_CONFIGS)
    options = None
    if args.workers > 1 or args.shards or args.store:
        from repro.campaign import ExecutionOptions

        options = ExecutionOptions(workers=args.workers,
                                   shards=args.shards, store=args.store)

    def progress(done, total):
        if not args.json:
            sys.stderr.write("\r%d/%d cells" % (done, total))
            sys.stderr.flush()
            if done == total:
                sys.stderr.write("\n")

    doc = attack_matrix(classes=classes, configs=configs,
                        variants=args.variants, seed=args.seed,
                        max_cycles=args.max_cycles, options=options,
                        progress=progress)
    if args.json:
        emit_json(doc)
        return 0
    print(format_attack_matrix(doc))
    return 0


def _campaign_options(args):
    """The one place CLI flags become an ExecutionOptions."""
    from repro.campaign import ExecutionOptions

    return ExecutionOptions(workers=args.workers,
                            fork=args.fork, batch=args.batch,
                            shards=args.shards, store=args.store)


def _cmd_campaign(args):
    from repro.campaign import (DEMO_WORKLOAD, CampaignSpec, MODELS,
                                ResultStore, format_campaign_report,
                                format_comparison, replay, resume_spec,
                                run_campaign)

    if args.file:
        source = _read_input(args.file)
    else:
        source = DEMO_WORKLOAD

    model_options = {}
    if args.bits is not None:
        if args.model not in ("instr-flip", "cf-corrupt"):
            raise UsageError("--bits only applies to instr-flip / cf-corrupt")
        model_options["bits"] = args.bits

    spec = CampaignSpec(source=source, model=args.model,
                        model_options=model_options,
                        protected=not args.unprotected,
                        injections=args.injections, seed=args.seed,
                        max_cycles=args.max_cycles,
                        assertions=args.with_assertions)

    if args.replay is not None:
        stored = None
        if args.store and os.path.exists(args.store):
            spec = resume_spec(args.store)
            stored = ResultStore(args.store).record_for(args.replay)
            if stored is not None and not args.json:
                print("stored record: %s" % stored)
        record = replay(spec, args.replay, batch=args.batch)
        if args.json:
            emit_json({"replayed": record, "stored": stored})
            return 0
        print("replayed:      %s" % record)
        return 0

    def progress(done, total):
        stream = sys.stdout
        stream.write("\r  %d/%d injections" % (done, total))
        if done >= total:
            stream.write("\n")
        stream.flush()

    if args.json:
        progress = None          # keep stdout pure JSON

    options = _campaign_options(args)

    if args.compare:
        runs = {}
        for protected in (True, False):
            side = CampaignSpec(source=source, model=args.model,
                                model_options=model_options,
                                protected=protected,
                                injections=args.injections, seed=args.seed,
                                max_cycles=args.max_cycles,
                                assertions=args.with_assertions)
            if not args.json:
                print("%s campaign (%s, %d injections):"
                      % ("protected" if protected else "unprotected",
                         args.model, args.injections))
            # One store cannot hold two specs (the fingerprints differ),
            # so comparison runs are always store-less.
            runs[protected] = run_campaign(side,
                                           options=options.replace(store=None),
                                           progress=progress)
        if args.json:
            emit_json({"model": args.model, "seed": args.seed,
                       "compare": {
                           "protected": _campaign_summary(runs[True].records),
                           "unprotected": _campaign_summary(
                               runs[False].records)}})
            return 0
        print()
        print(format_comparison(runs[True].records, runs[False].records,
                                title="%s campaign" % args.model))
        return 0

    if not args.json:
        shard_note = (" shards=%d" % args.shards) if args.shards else ""
        print("campaign: model=%s injections=%d workers=%d%s %s"
              % (args.model, args.injections, args.workers, shard_note,
                 "protected" if spec.protected else "unprotected"))
    run = run_campaign(spec, options=options, progress=progress)
    if args.json:
        summary = _campaign_summary(run.records)
        summary.update({"model": args.model, "seed": args.seed,
                        "protected": spec.protected, "store": args.store,
                        "options": run.options.to_dict()})
        emit_json(summary)
        return 0
    print()
    print(format_campaign_report(
        run.records, title="%s campaign (seed %d)" % (args.model, args.seed)))
    if args.store:
        print()
        print("results stored in %s (resume by re-running the same "
              "command)" % args.store)
    return 0


def _campaign_summary(records):
    """Machine-readable digest of one campaign's records."""
    from repro.campaign.report import (damage_count, detection_stats,
                                       outcome_counts)

    detected, injected, det_rate, (low, high) = detection_stats(records)
    counts = outcome_counts(records)
    return {"runs": len(records), "outcomes": counts,
            "detection": {"detected": detected, "injected": injected,
                          "rate": det_rate, "ci95": [low, high]},
            "not_triggered": counts["not_triggered"],
            "damaging_runs": damage_count(records)}


def _cmd_campaign_serve(args):
    """Live aggregation over campaign stores (``repro campaign serve``).

    Tails the given stores (or everything beside a merged-store path)
    and serves live outcome counts and Wilson-CI detection matrices;
    ``--watch`` keeps polling until the campaign is complete (or
    ``--timeout`` expires), emitting one view per interval — text
    tables, or one JSON snapshot document per poll under ``--json``.
    """
    import time

    from repro.campaign.aggregate import CampaignAggregator, discover_stores

    if len(args.paths) == 1:
        paths = discover_stores(args.paths[0])
    else:
        paths = list(args.paths)
    aggregator = CampaignAggregator(paths, expected=args.expect)
    deadline = (time.monotonic() + args.timeout
                if args.timeout is not None else None)
    while True:
        aggregator.poll()
        if not args.watch or aggregator.complete():
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        if args.json:
            emit_json(aggregator.snapshot())
        else:
            print(aggregator.render())
            print()
        time.sleep(args.interval)

    snapshot = aggregator.snapshot()
    if args.out:
        with open(args.out, "w") as handle:
            emit_json(snapshot, stream=handle)
    if args.json:
        emit_json(snapshot)
        return 0 if aggregator.complete() else 1
    print(aggregator.render())
    if aggregator.complete():
        print()
        print(aggregator.final_report(
            title="campaign %s" % (aggregator.fingerprint or "?")))
    else:
        print("campaign incomplete: %d/%s records aggregated"
              % (aggregator.done, aggregator.total
                 if aggregator.total is not None else "?"))
    if args.out:
        print("snapshot written to %s" % args.out)
    return 0 if aggregator.complete() else 1


def _parse_strike(text):
    """``MODEL@NODE:CYCLE[:SEED]`` -> strike dict."""
    try:
        model, rest = text.split("@", 1)
        parts = rest.split(":")
        strike = {"model": model, "node": int(parts[0]),
                  "cycle": int(parts[1])}
        if len(parts) > 2:
            strike["seed"] = int(parts[2])
        if len(parts) > 3:
            raise ValueError
        return strike
    except (ValueError, IndexError):
        raise UsageError("bad --inject %r (want MODEL@NODE:CYCLE[:SEED])"
                         % text)


def _parse_kill(text):
    """``NODE:CYCLE`` -> (node, cycle)."""
    try:
        node, cycle = text.split(":")
        return int(node), int(cycle)
    except ValueError:
        raise UsageError("bad --kill %r (want NODE:CYCLE)" % text)


def _cmd_fleet(args):
    """Co-simulate a fleet of machines (``repro fleet run``)."""
    from repro.analysis.tables import format_table
    from repro.fleet import FleetSpec, run_fleet

    spec = FleetSpec(
        nodes=args.nodes, requests=args.requests, workers=args.workers,
        seed=args.seed, protected=args.protected,
        mean_gap=args.mean_gap, burst_percent=args.burst_percent,
        fanout=args.fanout,
        link_latency=args.link_latency, link_jitter=args.link_jitter,
        link_drop_permille=args.link_drop_permille,
        checkpoint_interval=args.checkpoint_interval,
        restore_cost=args.restore_cost, max_cycles=args.max_cycles,
        strikes=tuple(_parse_strike(text) for text in args.inject),
        kills=tuple(_parse_kill(text) for text in args.kill))
    run = run_fleet(spec)
    document = run.to_dict()
    if args.out:
        with open(args.out, "w") as handle:
            emit_json(document, stream=handle)
    complete = document["served"] == spec.requests
    if args.json:
        emit_json(document)
        return 0 if complete else 1
    rows = []
    for node in document["nodes"]:
        rows.append([node["node"], node["status"], node["cycle"],
                     node["responses"], len(node["failovers"]),
                     node["snapshot"]["kernel"]["net"]["sent"],
                     node["snapshot"]["kernel"]["net"]["delivered"]])
    print(format_table(
        ["Node", "Status", "Cycle", "Responses", "Failovers",
         "Net sent", "Net rcvd"],
        rows,
        title="fleet: %d nodes, %d/%d requests served (seed %d)"
              % (spec.nodes, document["served"], spec.requests, spec.seed)))
    for strike in document["strikes"]:
        print("strike %s on node %d @%d -> %s"
              % (strike["model"], strike["node"], strike["cycle"],
                 strike["outcome"]))
    for node in document["nodes"]:
        for event in node["failovers"]:
            print("failover node %d @%d (%s): checkpoint @%d, resumed @%d, "
                  "%d request(s) re-served"
                  % (event["node"], event["death_cycle"], event["reason"],
                     event["checkpoint_cycle"], event["resume_cycle"],
                     event["rewound_requests"]))
    print("digest %s" % document["digest"])
    if args.out:
        print("report written to %s" % args.out)
    return 0 if complete else 1


def _cmd_difftest(args):
    """Differential fuzz: interp vs predecode vs pipeline commit stream."""
    from repro.difftest import fuzz

    def progress(index, count, result):
        stream = sys.stdout
        stream.write("\r  %d/%d programs%s" % (
            index + 1, count, "" if result.ok else "  (DIVERGENCE)"))
        if index + 1 >= count:
            stream.write("\n")
        stream.flush()

    if args.json:
        progress = None          # keep stdout pure JSON
    elif not sys.stdout.isatty():
        progress = None

    kwargs = {}
    if args.max_steps is not None:
        kwargs["max_steps"] = args.max_steps
    report = fuzz(seed=args.seed, count=args.count, mode=args.mode,
                  shrink_diverging=not args.no_shrink,
                  corpus_dir=args.corpus, store=args.store,
                  progress=progress, assertions=args.with_assertions,
                  jit=args.jit, **kwargs)
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w") as handle:
            emit_json(payload, stream=handle)
    if args.json:
        emit_json(payload)
        return 0 if report.ok else 1
    print("difftest: seed=%d mode=%s  %d programs executed"
          % (report.seed, report.mode, report.executed)
          + (", %d resumed from store" % report.resumed
             if report.resumed else "")
          + (", assertions on" if args.with_assertions else "")
          + (", trace-JIT engine on" if args.jit else ""))
    if report.limited:
        print("  %d programs hit the step limit on every engine"
              % report.limited)
    if report.ok:
        engines = ("interp, predecode, jit and pipeline" if args.jit
                   else "interp, predecode and pipeline")
        print("  no divergences: %s agree" % engines)
        if args.with_assertions:
            print("  no assertion violations on any engine")
        return 0
    if report.divergences:
        print("  %d DIVERGENCES:" % len(report.divergences))
        for entry in report.divergences:
            print("  program %d (seed %d):"
                  % (entry["index"], entry["seed"]))
            divergence = entry["divergence"]
            print("    [%s] %s" % (divergence["kind"], divergence["detail"]))
            if entry.get("corpus_file"):
                print("    shrunk repro: %s" % entry["corpus_file"])
    for entry in report.violations:
        print("  program %d (seed %d): symmetric assertion violations:"
              % (entry["index"], entry["seed"]))
        for engine, records in sorted(entry["violations"].items()):
            for record in records:
                print("    [%s] %s: %s" % (record["property"], engine,
                                           record["detail"]))
    return 1


def _cmd_assertions(args):
    """List the portable invariant catalog."""
    from repro.assertions import catalog

    entries = catalog()
    if args.json:
        emit_json({"properties": [
            {"id": pid, "description": description, "engines": list(engines)}
            for pid, description, engines in entries]})
        return 0
    rows = [[pid, ", ".join(engines), description]
            for pid, description, engines in entries]
    print(format_table(["Property", "Engines", "Invariant"], rows,
                       title="Assertion catalog (%d properties)"
                             % len(entries)))
    return 0


def _cmd_report(args):
    """Concatenate the benchmark result tables into one report."""
    import glob

    results_dir = args.results_dir
    paths = sorted(glob.glob(os.path.join(results_dir, "*.txt")))
    if not paths:
        print("no results in %s - run: pytest benchmarks/ --benchmark-only"
              % results_dir)
        return 1
    sections = [_read_input(path).rstrip() for path in paths]
    if args.json:
        emit_json({"results_dir": results_dir,
                   "sections": [{"path": path, "text": text}
                                for path, text in zip(paths, sections)]})
        return 0
    report = ("# Reproduction results\n\n"
              + "\n\n".join("```\n%s\n```" % text for text in sections)
              + "\n")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print("wrote %s (%d sections)" % (args.output, len(sections)))
    else:
        print(report)
    return 0


def _cmd_disasm(args):
    from repro.isa.disasm import disassemble_image
    from repro.program.layout import MemoryLayout
    from repro.workloads.asmlib import build_workload_image

    source = _read_input(args.file)
    image, __ = build_workload_image(source, MemoryLayout())
    print(disassemble_image(image))
    return 0


def _cmd_trace(args):
    from repro.obs.tracer import trace_functional
    from repro.isa.assembler import assemble
    from repro.memory.mainmem import MainMemory
    from repro.workloads.asmlib import std_constants

    source = _read_input(args.file)
    asm = assemble(source, constants=std_constants())
    memory = MainMemory()
    memory.store_bytes(asm.text_base, asm.text)
    memory.store_bytes(asm.data_base, asm.data)
    entries, sim = trace_functional(memory, asm.entry,
                                    max_steps=args.max_steps)
    for entry in entries:
        print(entry.render())
    if sim.fault:
        print("fault: pc=0x%08x %s" % sim.fault)
    return 0


def _cmd_stats(args):
    """Pretty-print or diff telemetry files (snapshots, campaign stores)."""
    doc = _load_stats_file(args.file)
    if args.diff is not None:
        other = _load_stats_file(args.diff)
        if not (isinstance(doc, dict) and "schema" in doc
                and isinstance(other, dict) and "schema" in other):
            raise UsageError("--diff requires two snapshot documents")
        left = dict(flatten_doc(doc))
        right = dict(flatten_doc(other))
        diffs = []
        for key in sorted(set(left) | set(right)):
            a, b = left.get(key), right.get(key)
            if a != b:
                diffs.append({"key": key, "a": a, "b": b})
        if args.json:
            emit_json({"a": args.file, "b": args.diff, "diff": diffs})
            return 0
        if not diffs:
            print("snapshots are identical")
            return 0
        print("%-44s %16s %16s" % ("key", "a", "b"))
        for entry in diffs:
            print("%-44s %16s %16s"
                  % (entry["key"], _stats_cell(entry["a"]),
                     _stats_cell(entry["b"])))
        return 0

    if isinstance(doc, dict) and "schema" in doc:
        if args.json:
            emit_json(doc)
            return 0
        print("snapshot %s (cycle %s)" % (doc.get("schema"),
                                          doc.get("cycle")))
        for key, value in flatten_doc(doc):
            if key in ("schema", "cycle"):
                continue
            print("  %-42s %s" % (key, _stats_cell(value)))
        return 0

    # Campaign JSONL store: regenerate the campaign report from records.
    header, records = doc
    if args.json:
        summary = _campaign_summary(records)
        summary["spec"] = header.get("spec")
        emit_json(summary)
        return 0
    from repro.campaign.report import format_campaign_report

    spec = header.get("spec", {})
    title = "campaign store %s (%s, seed %s)" % (
        os.path.basename(args.file), spec.get("model", "?"),
        spec.get("seed", "?"))
    print(format_campaign_report(records, title=title))
    return 0


def _load_stats_file(path):
    """Detect and load a telemetry file.

    Returns the parsed snapshot dict for ``Machine.snapshot()`` JSON, or
    ``(header, records)`` for a campaign JSONL store.
    """
    text = _read_input(path)
    try:
        doc = json.loads(text)          # one pretty-printed document
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        return doc
    first_line = text.split("\n", 1)[0] if text else ""
    try:
        record = json.loads(first_line)
    except ValueError:
        record = None
    if isinstance(record, dict) and record.get("kind") == "campaign":
        from repro.campaign.store import ResultStore

        header, records = ResultStore(path).load()
        return header, records
    raise SystemExit("unrecognized stats file: %s" % path)


def _stats_cell(value):
    if isinstance(value, float):
        return "%.4f" % value
    return str(value)


def _trace_jit_metrics():
    """Trace-cache gauges, published through the metrics registry.

    ``repro info`` has no long-lived machine to inspect, so it warms a
    trace cache on the built-in campaign workload (a few thousand
    instructions) and reports what :meth:`TraceCache.publish` mirrors
    into a :class:`~repro.obs.metrics.MetricsRegistry` — the same
    gauges a monitoring hook would scrape off a real run.
    """
    from repro.campaign import DEMO_WORKLOAD
    from repro.funcsim import FuncSim
    from repro.isa.assembler import assemble
    from repro.memory.mainmem import MainMemory
    from repro.obs.metrics import MetricsRegistry

    asm = assemble(DEMO_WORKLOAD)
    memory = MainMemory()
    memory.store_bytes(asm.text_base, asm.text)
    memory.store_bytes(asm.data_base, asm.data)
    sim = FuncSim(memory, entry=asm.entry, sp=0x7FFF0000,
                  jit_enabled=True)
    sim.run(max_steps=100_000)
    registry = MetricsRegistry()
    sim.trace_cache.publish(registry)
    return registry


def _cmd_info(args):
    from repro.isa import traces
    from repro.pipeline.config import PipelineConfig

    config = PipelineConfig()
    registry = _trace_jit_metrics()
    jit_params = {"heat_threshold": traces.HEAT_THRESHOLD,
                  "min_trace_len": traces.MIN_TRACE_LEN,
                  "max_trace_len": traces.MAX_TRACE_LEN,
                  "max_inline_depth": traces.MAX_INLINE_DEPTH,
                  "rebuild_limit": traces.REBUILD_LIMIT,
                  "max_traces": traces.MAX_TRACES}
    if args.json:
        emit_json({"pipeline_config": config,
                   "trace_jit": {"params": jit_params,
                                 "metrics": registry.snapshot()},
                   "framework_input_cost": framework_input_cost(),
                   "mlr_hardware_cost": mlr_hardware_cost()})
        return 0
    rows = [
        ["fetch/dispatch/issue width", "%d / %d / %d" % (
            config.fetch_width, config.dispatch_width, config.issue_width)],
        ["ROB (RUU) / LSQ entries", "%d / %d" % (config.rob_entries,
                                                 config.lsq_entries)],
        ["il1 / dl1", "8 KB 1-way / 8 KB 1-way"],
        ["il2 / dl2", "64 KB 2-way / 128 KB 2-way"],
        ["memory timing (baseline)", "18 + 2/chunk"],
        ["memory timing (with RSE)", "19 + 3/chunk"],
    ]
    print(format_table(["Parameter", "Value"], rows,
                       title="Simulated machine (paper Figure 1)"))
    print()
    jit_rows = [[name, str(value)] for name, value in jit_params.items()]
    print(format_table(["Parameter", "Value"], jit_rows,
                       title="Funcsim trace JIT (repro.isa.traces)"))
    gauges = ", ".join("%s=%d" % (name.split(".", 1)[1], doc["value"])
                       for name, doc in sorted(registry.snapshot().items()))
    print("warm-up trace-cache gauges (built-in campaign workload):")
    print("  " + gauges)
    print()
    cost = framework_input_cost()
    print("RSE input interface: %d flip-flops, %d gates (Section 3.1)"
          % (cost["flip_flops"], cost["gates"]))
    mlr = mlr_hardware_cost()
    print("MLR module: %d registers, %d adders, %d KB of buffers"
          % (mlr["total_registers"], mlr["total_adders"],
             mlr["total_buffer_bytes"] // 1024))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the DSN 2004 Reliability and "
                    "Security Engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(subparser):
        subparser.add_argument("--json", action="store_true",
                               help="emit machine-readable JSON on stdout")

    def add_assert_flags(subparser):
        # dest is explicit: "assert" is a Python keyword, so the default
        # attribute name argparse would derive is unusable.
        subparser.add_argument("--assert", dest="with_assertions",
                               action="store_true",
                               help="run under the microarchitectural "
                                    "invariant suite (violations fail "
                                    "the run)")
        subparser.add_argument("--no-assert", dest="with_assertions",
                               action="store_false",
                               help="disable the invariant suite "
                                    "(the default)")
        subparser.set_defaults(with_assertions=False)

    run_parser = sub.add_parser("run", help="assemble and run a program")
    run_parser.add_argument("file")
    run_parser.add_argument("--engine", default=None,
                            choices=["interp", "predecode", "jit",
                                     "pipeline"],
                            help="execution engine (default: pipeline; "
                                 "the others use the functional "
                                 "simulator)")
    run_parser.add_argument("--func", action="store_true",
                            help="use the functional simulator "
                                 "(alias for --engine predecode)")
    run_parser.add_argument("--no-jit", action="store_true",
                            help="escape hatch: force the reference "
                                 "execution paths (per-instruction "
                                 "closures / one-step()-per-cycle "
                                 "pipeline loop)")
    run_parser.add_argument("--icm", action="store_true",
                            help="attach the RSE with the ICM enabled")
    run_parser.add_argument("--max-cycles", type=int, default=50_000_000)
    run_parser.add_argument("--stats-json", default=None, metavar="PATH",
                            help="write the Machine.snapshot() document "
                                 "to PATH")
    add_assert_flags(run_parser)
    add_json_flag(run_parser)
    run_parser.set_defaults(func_impl=_cmd_run)

    exp_parser = sub.add_parser("experiment", help="run a paper experiment")
    exp_parser.add_argument("name", choices=["table4", "table5", "fig9",
                                             "ablations", "attack-matrix"])
    exp_parser.add_argument("--quick", action="store_true")
    add_json_flag(exp_parser)
    exp_parser.set_defaults(func_impl=_cmd_experiment)

    campaign_root = sub.add_parser(
        "campaign", help="fault-injection campaigns (run, serve)")
    campaign_sub = campaign_root.add_subparsers(dest="campaign_command",
                                                required=True)
    campaign_parser = campaign_sub.add_parser(
        "run", help="run (or resume) a fault-injection campaign")
    campaign_parser.add_argument(
        "file", nargs="?", default=None,
        help="assembly workload (default: built-in demo loop)")
    campaign_parser.add_argument(
        "--model", default="instr-flip",
        choices=["instr-flip", "reg-flip", "mem-flip", "cf-corrupt"],
        help="fault model to inject")
    campaign_parser.add_argument("--injections", type=int, default=200,
                                 help="number of injections in the space")
    campaign_parser.add_argument("--workers", type=int, default=1,
                                 help="worker processes (>1 = parallel)")
    campaign_parser.add_argument("--seed", type=int, default=99)
    campaign_parser.add_argument("--max-cycles", type=int, default=200_000,
                                 help="per-run cycle budget (hang timeout)")
    campaign_parser.add_argument("--bits", type=int, default=None,
                                 help="bits flipped per injection "
                                      "(instr-flip / cf-corrupt)")
    campaign_parser.add_argument("--store", default=None,
                                 help="JSONL result store; an existing "
                                      "store resumes the campaign")
    campaign_parser.add_argument("--shards", type=int, default=0,
                                 help="split the campaign into N seed-range "
                                      "shards with work-stealing workers "
                                      "and per-shard resumable stores")
    campaign_parser.add_argument("--fork", dest="fork", action="store_true",
                                 help="checkpoint each trigger prefix once "
                                      "and restore-and-strike per injection "
                                      "(identical records, less wall-clock; "
                                      "reg-flip / mem-flip)")
    campaign_parser.add_argument("--no-fork", dest="fork",
                                 action="store_false",
                                 help="always re-simulate the warmup prefix "
                                      "(the default)")
    campaign_parser.set_defaults(fork=False)
    campaign_parser.add_argument("--no-jit", dest="batch",
                                 action="store_false",
                                 help="escape hatch: run every injection "
                                      "on the pipeline's "
                                      "one-step()-per-cycle reference "
                                      "loop (records are identical)")
    campaign_parser.set_defaults(batch=True)
    campaign_parser.add_argument("--unprotected", action="store_true",
                                 help="run without the RSE/ICM (baseline)")
    campaign_parser.add_argument("--compare", action="store_true",
                                 help="run protected AND unprotected, "
                                      "print the comparison")
    campaign_parser.add_argument("--replay", type=int, default=None,
                                 metavar="ID",
                                 help="re-execute one injection by id")
    add_assert_flags(campaign_parser)
    add_json_flag(campaign_parser)
    campaign_parser.set_defaults(func_impl=_cmd_campaign)

    serve_parser = campaign_sub.add_parser(
        "serve", help="aggregate live (or finished) campaign stores")
    serve_parser.add_argument(
        "paths", nargs="+",
        help="campaign store path(s); a single merged-store path also "
             "picks up its sibling .shardNNN stores")
    serve_parser.add_argument("--watch", action="store_true",
                              help="keep polling until the campaign "
                                   "completes (or --timeout expires)")
    serve_parser.add_argument("--interval", type=float, default=1.0,
                              help="seconds between polls under --watch")
    serve_parser.add_argument("--expect", type=int, default=None,
                              metavar="N",
                              help="treat the campaign as N injections "
                                   "(default: the stored spec's count)")
    serve_parser.add_argument("--timeout", type=float, default=None,
                              help="give up watching after this many "
                                   "seconds")
    serve_parser.add_argument("--out", default=None, metavar="PATH",
                              help="also write the final snapshot "
                                   "document to PATH")
    add_json_flag(serve_parser)
    serve_parser.set_defaults(func_impl=_cmd_campaign_serve)

    fleet_root = sub.add_parser(
        "fleet", help="co-simulate a fleet of networked machines")
    fleet_sub = fleet_root.add_subparsers(dest="fleet_command",
                                          required=True)
    fleet_parser = fleet_sub.add_parser(
        "run", help="run a fleet under generated load")
    fleet_parser.add_argument("--nodes", type=int, default=3)
    fleet_parser.add_argument("--requests", type=int, default=120,
                              help="total requests across the fleet")
    fleet_parser.add_argument("--workers", type=int, default=2,
                              help="server worker threads per node")
    fleet_parser.add_argument("--seed", type=int, default=1)
    fleet_parser.add_argument("--mean-gap", type=int, default=300,
                              help="mean cycles between request arrivals")
    fleet_parser.add_argument("--burst-percent", type=int, default=25,
                              help="chance an arrival starts a burst")
    fleet_parser.add_argument("--fanout", default="roundrobin",
                              choices=["roundrobin", "random"],
                              help="how requests spread across nodes")
    fleet_parser.add_argument("--link-latency", type=int, default=40)
    fleet_parser.add_argument("--link-jitter", type=int, default=0)
    fleet_parser.add_argument("--link-drop-permille", type=int, default=0,
                              help="per-1000 datagram drop rate")
    fleet_parser.add_argument("--protected", action="store_true",
                              help="attach the RSE with DDT + recovery "
                                   "on every node")
    fleet_parser.add_argument("--checkpoint-interval", type=int,
                              default=50_000,
                              help="cycles between failover checkpoints")
    fleet_parser.add_argument("--restore-cost", type=int, default=20_000,
                              help="modelled downtime of a failover")
    fleet_parser.add_argument("--max-cycles", type=int, default=20_000_000)
    fleet_parser.add_argument(
        "--inject", action="append", default=[], metavar="MODEL@NODE:CYCLE",
        help="strike NODE with fault MODEL (reg-flip / mem-flip) at "
             "CYCLE; repeatable, optional :SEED suffix")
    fleet_parser.add_argument(
        "--kill", action="append", default=[], metavar="NODE:CYCLE",
        help="SIGKILL-style node death at CYCLE (checkpoint failover); "
             "repeatable")
    fleet_parser.add_argument("--out", default=None, metavar="PATH",
                              help="also write the JSON fleet report "
                                   "to PATH")
    add_json_flag(fleet_parser)
    fleet_parser.set_defaults(func_impl=_cmd_fleet)

    difftest_parser = sub.add_parser(
        "difftest", help="differential fuzz of the three execution engines")
    difftest_parser.add_argument("--seed", type=int, default=1234)
    difftest_parser.add_argument("--count", type=int, default=100,
                                 help="number of generated programs")
    difftest_parser.add_argument(
        "--mode", default="all", choices=["basic", "check", "smc", "all"],
        help="instruction mix: basic ISA, +CHECKs, +self-modifying code")
    difftest_parser.add_argument("--max-steps", type=int, default=None,
                                 help="per-engine retired-instruction "
                                      "budget per program")
    difftest_parser.add_argument("--store", default=None,
                                 help="JSONL progress store; an existing "
                                      "store resumes the run")
    difftest_parser.add_argument("--corpus", default=None, metavar="DIR",
                                 help="write shrunk diverging programs "
                                      "as .s files under DIR")
    difftest_parser.add_argument("--jit", dest="jit", action="store_true",
                                 help="run the trace-JIT funcsim as a "
                                      "fourth engine in the oracle")
    difftest_parser.add_argument("--no-jit", dest="jit",
                                 action="store_false",
                                 help="three-engine oracle (the default)")
    difftest_parser.set_defaults(jit=False)
    difftest_parser.add_argument("--no-shrink", action="store_true",
                                 help="report divergences without "
                                      "minimizing them")
    difftest_parser.add_argument("--out", default=None, metavar="PATH",
                                 help="also write the JSON report to PATH")
    add_assert_flags(difftest_parser)
    add_json_flag(difftest_parser)
    difftest_parser.set_defaults(func_impl=_cmd_difftest)

    assertions_parser = sub.add_parser(
        "assertions", help="the portable microarchitectural invariant "
                           "catalog")
    assertions_parser.add_argument(
        "action", choices=["list"],
        help="list: show every property, its invariant and the engines "
             "it runs on")
    add_json_flag(assertions_parser)
    assertions_parser.set_defaults(func_impl=_cmd_assertions)

    attack_root = sub.add_parser(
        "attack", help="exploit demos and the generated attack corpus")
    attack_sub = attack_root.add_subparsers(dest="attack_cmd",
                                            required=True)
    engine_choices = ["pipeline", "interp", "predecode", "jit"]
    for kind in ("stack", "got"):
        demo_parser = attack_sub.add_parser(
            kind, help="hand-written %s exploit demo"
            % ("stack-smash" if kind == "stack" else "GOT-hijack"))
        demo_parser.add_argument("--defense", default="none",
                                 choices=["none", "trr", "mlr"])
        demo_parser.add_argument("--seed", type=int, default=1234)
        demo_parser.add_argument("--engine", default="pipeline",
                                 choices=engine_choices,
                                 help="execution engine; classification "
                                      "is engine-independent")
        add_json_flag(demo_parser)
        demo_parser.set_defaults(func_impl=_cmd_attack)
    attack_run = attack_sub.add_parser(
        "run", help="generate and run one attack variant")
    attack_run.add_argument("--class", dest="attack_class",
                            default="stack-smash",
                            help="attack class (stack-smash, got-hijack, "
                                 "smc-patch, thread-smash, race-got)")
    attack_run.add_argument("--config", default="none",
                            help="RSE module configuration, '+'-joined "
                                 "(e.g. none, trr, mlr+icm)")
    attack_run.add_argument("--seed", type=int, default=1234,
                            help="variant seed (same seed = same attack)")
    attack_run.add_argument("--engine", default="pipeline",
                            choices=engine_choices)
    attack_run.add_argument("--max-cycles", type=int, default=300_000)
    add_json_flag(attack_run)
    attack_run.set_defaults(func_impl=_cmd_attack)
    attack_matrix_parser = attack_sub.add_parser(
        "matrix", help="module x attack-class detection-coverage matrix")
    attack_matrix_parser.add_argument(
        "--classes", default=None,
        help="comma-separated attack classes (default: all)")
    attack_matrix_parser.add_argument(
        "--configs", default=None,
        help="comma-separated module configs (default: none,trr,icm,mlr,"
             "cfc,mlr+icm)")
    attack_matrix_parser.add_argument("--variants", type=int, default=40,
                                      help="corpus size per cell")
    attack_matrix_parser.add_argument("--seed", type=int, default=2004)
    attack_matrix_parser.add_argument("--max-cycles", type=int,
                                      default=300_000)
    attack_matrix_parser.add_argument("--workers", type=int, default=1)
    attack_matrix_parser.add_argument(
        "--shards", type=int, default=0,
        help="route each cell through the sharded campaign service")
    attack_matrix_parser.add_argument(
        "--store", default=None,
        help="directory of per-cell resumable result stores")
    add_json_flag(attack_matrix_parser)
    attack_matrix_parser.set_defaults(func_impl=_cmd_attack)

    disasm_parser = sub.add_parser("disasm",
                                   help="disassemble an assembled program")
    disasm_parser.add_argument("file")
    disasm_parser.set_defaults(func_impl=_cmd_disasm)

    trace_parser = sub.add_parser(
        "trace", help="functional instruction trace of a program")
    trace_parser.add_argument("file")
    trace_parser.add_argument("--max-steps", type=int, default=200)
    trace_parser.set_defaults(func_impl=_cmd_trace)

    report_parser = sub.add_parser(
        "report", help="collect benchmark result tables into one report")
    report_parser.add_argument("--results-dir",
                               default=os.path.join("benchmarks", "results"))
    report_parser.add_argument("--output", default=None)
    add_json_flag(report_parser)
    report_parser.set_defaults(func_impl=_cmd_report)

    stats_parser = sub.add_parser(
        "stats", help="pretty-print or diff telemetry files")
    stats_parser.add_argument(
        "file", help="a 'repro run --stats-json' snapshot or a campaign "
                     "JSONL store")
    stats_parser.add_argument("--diff", default=None, metavar="OTHER",
                              help="second snapshot to compare against")
    add_json_flag(stats_parser)
    stats_parser.set_defaults(func_impl=_cmd_stats)

    info_parser = sub.add_parser("info", help="machine configuration")
    add_json_flag(info_parser)
    info_parser.set_defaults(func_impl=_cmd_info)

    args = parser.parse_args(_normalize_argv(argv))
    from repro.campaign.store import StoreMismatch
    from repro.checkpoint import CheckpointError
    from repro.isa.assembler import AssemblyError

    try:
        return args.func_impl(args)
    except (AssemblyError, StoreMismatch, CheckpointError,
            UsageError) as exc:
        # Bad input is the user's to fix: one line, no traceback.  Any
        # other exception is a bug and keeps its traceback.
        print("repro: error: %s" % exc, file=sys.stderr)
        return 2


def _normalize_argv(argv):
    """Map the pre-redesign ``repro campaign <flags>`` onto ``campaign run``.

    ``campaign`` grew subcommands (``run``, ``serve``); every historical
    invocation — scripts, CI jobs, the README's own examples — spelled
    the run implicitly (``repro campaign --model reg-flip``).  Inserting
    ``run`` when the token after ``campaign`` is not a subcommand keeps
    all of them working verbatim.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        index = argv.index("campaign")
    except ValueError:
        return argv
    if any(not token.startswith("-") for token in argv[:index]):
        return argv              # "campaign" is an operand, not the command
    following = argv[index + 1] if index + 1 < len(argv) else None
    if following not in ("run", "serve", "-h", "--help"):
        argv.insert(index + 1, "run")
    return argv


if __name__ == "__main__":
    sys.exit(main())
