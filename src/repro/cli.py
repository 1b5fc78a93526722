"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``map`` — compile an OpenQASM 2.0 file for a device and write the
  hardware-compliant QASM (the end-user workflow).
- ``serve`` — run the compilation service (:mod:`repro.service`): an
  HTTP JSON API with a persistent result store and request coalescing.
- ``submit`` — POST a QASM file to a running service and print/write
  the routed output.
- ``devices`` — list built-in devices with their key properties (the
  same catalog the service's ``GET /devices`` returns).
- ``store scrub`` — verify a persistent result store's checksums and
  report (or, with ``--repair``, quarantine) corrupt entries.
- ``draw`` — render a QASM circuit as ASCII art.
- ``table2`` / ``fig8`` / ``scaling`` — forward to the experiment
  harnesses (same flags as their ``python -m repro.analysis.*`` entry
  points).

Example::

    python -m repro map circuit.qasm --device ibm_q20_tokyo -o mapped.qasm

``map`` fronts the pass-pipeline compiler (:mod:`repro.pipeline`) and
the multi-trial engine (:mod:`repro.engine`): ``--pipeline`` selects a
named preset, ``--noise-aware`` / ``--bridge`` /
``--legalize-directions`` compose extension passes onto it,
``--trials`` sets the best-of-K seed pool, ``--jobs`` shards the seeds
across that many worker processes (``--executor parallel``; ``serial``
keeps them in process, same result either way), ``--objective`` picks
the winner metric, and ``--verbose`` prints the executor-decision
report and the per-pass timing breakdown recorded in the result's
property set.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import compare as compare_mod
from repro.analysis import scaling as scaling_mod
from repro.analysis import table2 as table2_mod
from repro.analysis import tradeoff as tradeoff_mod
from repro.circuits.depth import circuit_depth
from repro.circuits.transforms import optimize_circuit
from repro.circuits.visualization import draw_circuit, draw_coupling
from repro.core.heuristic import HeuristicConfig
from repro.exceptions import ReproError
from repro.hardware.devices import DEVICE_BUILDERS, device_catalog, get_device
from repro.hardware.noise import IBM_Q20_TOKYO_NOISE, NoiseModel
from repro.pipeline import (
    NoiseAwareDistance,
    Pipeline,
    compose_pipeline,
    preset_names,
)
from repro.qasm import parse_qasm_file, write_qasm_file


def load_noise_profile(path: str) -> NoiseModel:
    """Build a :class:`NoiseModel` from a JSON profile.

    Format: any :class:`NoiseModel` field, with ``edge_errors`` keyed
    by ``"a,b"`` qubit-pair strings::

        {"two_qubit_error": 0.03, "edge_errors": {"0,1": 0.12, "5,6": 0.08}}
    """
    import json

    with open(path) as handle:
        raw = json.load(handle)
    edge_errors = {}
    for key, rate in raw.pop("edge_errors", {}).items():
        a, b = (int(q) for q in key.split(","))
        edge_errors[(min(a, b), max(a, b))] = float(rate)
    return NoiseModel(edge_errors=edge_errors, **raw)


def _cmd_map(args: argparse.Namespace) -> int:
    circuit = parse_qasm_file(args.input)
    device = get_device(args.device)
    config = HeuristicConfig(
        mode=args.heuristic,
        decay_delta=args.delta,
        extended_set_size=args.extended_set,
        extended_set_weight=args.weight,
    )
    # Extension flags compose passes onto the chosen preset; a bare
    # --pipeline <preset> runs the preset verbatim.
    if args.noise_aware or args.bridge or args.legalize_directions:
        pipeline = compose_pipeline(
            args.pipeline,
            noise_aware=args.noise_aware,
            bridge=args.bridge,
            legalize_directions=args.legalize_directions,
        )
    else:
        pipeline = Pipeline(args.pipeline)
    # Any pipeline containing the noise-aware pass (composed via
    # --noise-aware or baked into the preset) needs a model: the
    # profile file when given, else the chip-average defaults.
    noise = None
    if any(isinstance(p, NoiseAwareDistance) for p in pipeline.passes):
        noise = (
            load_noise_profile(args.noise_profile)
            if args.noise_profile
            else IBM_Q20_TOKYO_NOISE
        )
    # The pipeline upgrades executor=None to the serial engine when a
    # non-default objective needs it; --executor auto hands sweeps with
    # --jobs > 1 to the engine chooser and otherwise lets the pipeline
    # search in process.
    if args.executor == "auto":
        executor = "auto" if args.jobs > 1 else None
    else:
        executor = args.executor
    def _run():
        return pipeline.run(
            circuit,
            device,
            config=config,
            seed=args.seed,
            num_trials=args.trials,
            num_traversals=args.traversals,
            objective=args.objective,
            executor=executor,
            jobs=args.jobs,
            noise=noise,
        )

    trace_tree = None
    if args.trace:
        import time as time_mod

        from repro.telemetry.profile import profiled_routing
        from repro.telemetry.trace import Tracer, render_span_tree, tracing

        tracer = Tracer()
        with tracing(tracer):
            with profiled_routing() as profiler:
                result = _run()
            if not profiler.empty:
                tracer.add_raw(
                    "router.profile",
                    None,
                    start=time_mod.time(),
                    wall_seconds=profiler.scoring_seconds,
                    attrs=profiler.to_dict(),
                )
        trace_tree = render_span_tree(tracer.export())
    else:
        result = _run()
    physical = result.physical_circuit(decompose_swaps=not args.keep_swaps)
    if args.optimize:
        physical = optimize_circuit(physical)
    print(result.summary(), file=sys.stderr)
    if trace_tree is not None:
        print(trace_tree, file=sys.stderr)
    if args.verbose:
        print(f"pipeline     : {pipeline.name}", file=sys.stderr)
        props = result.properties
        if "engine.executor" in props:
            # Executor-decision report: what the trial engine actually
            # ran (after auto resolution or a downgrade) and how the
            # parallel executor sharded the seeds.
            effective = props["engine.executor"]
            requested = props.get("engine.requested_executor", effective)
            line = f"executor     : {effective}"
            if requested != effective:
                line += f" (requested {requested})"
            shard_plan = props.get("engine.shard_plan")
            if shard_plan:
                sizes = "+".join(str(len(shard)) for shard in shard_plan)
                line += f", shards {sizes} across {len(shard_plan)} workers"
            print(line, file=sys.stderr)
            reason = props.get("engine.downgrade_reason")
            if reason:
                print(f"  downgrade  : {reason}", file=sys.stderr)
        else:
            print(
                "executor     : direct search (no trial engine)",
                file=sys.stderr,
            )
        print(result.properties.timing_report(), file=sys.stderr)
    if args.optimize:
        print(
            f"post-optimize  : {physical.count_gates()} gates, depth "
            f"{circuit_depth(physical)}",
            file=sys.stderr,
        )
    if args.output:
        write_qasm_file(physical, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        from repro.qasm import emit_qasm

        sys.stdout.write(emit_qasm(physical))
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    # Same code path as the service's GET /devices (device_catalog), so
    # the CLI listing and the HTTP listing can never disagree.
    catalog = device_catalog()
    if getattr(args, "json", False):
        import json

        print(json.dumps(catalog, indent=1))
        return 0
    for row in catalog:
        direction = "directed" if row["directed"] else "symmetric"
        print(
            f"{row['name']:16s} {row['qubits']:3d} qubits  "
            f"{row['edges']:3d} couplings  diameter "
            f"{row['diameter']}  {direction}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import signal
    import threading
    import time

    from repro.service import build_server, serve_url, shutdown_service
    from repro.service.faults import FaultPlan, activate
    from repro.service.store import ShardedResultStore

    def log(message: str, **fields: object) -> None:
        """Operator log line; one JSON object per line under --log-json."""
        if args.log_json:
            record = {
                "ts": round(time.time(), 6),
                "level": "info",
                "logger": "repro.serve",
                "message": message,
            }
            record.update(fields)
            print(json.dumps(record), file=sys.stderr, flush=True)
        else:
            print(message, file=sys.stderr, flush=True)

    # Chaos runs export REPRO_FAULT_PLAN; activating it eagerly (rather
    # than on the first seam hit) surfaces a malformed plan at startup
    # and prints the seed so the run is attributable.
    plan = FaultPlan.from_env()
    if plan is not None:
        activate(plan)
        log(
            f"FAULT INJECTION ACTIVE: seed={plan.seed} "
            f"rules={len(plan.rules)} (from $REPRO_FAULT_PLAN)",
            seed=plan.seed,
            rules=len(plan.rules),
        )
    store = ShardedResultStore(
        root=args.store_dir or None,
        max_memory_entries=args.memory_entries,
        num_shards=args.store_shards,
    )
    if store.last_recovery and any(store.last_recovery.values()):
        log(
            f"store recovery: {store.last_recovery}",
            recovery=store.last_recovery,
        )
    server = build_server(
        host=args.host,
        port=args.port,
        store=store,
        workers=args.workers,
        verbose=args.verbose,
        execution=args.execution,
        mp_start_method=args.mp_start_method,
        max_queue_depth=args.queue_limit or None,  # 0 -> unbounded
        default_timeout=args.timeout,
        degrade=not args.no_degrade,
        trial_jobs=args.trial_jobs or None,  # 0 -> serial sweeps
        log_json=args.log_json,
    )
    tier = args.store_dir if args.store_dir else "memory-only"
    log(
        f"repro service on {serve_url(server)} "
        f"(workers={args.workers} [{args.execution}], store={tier}, "
        f"queue-limit={args.queue_limit}, "
        f"trial-jobs={args.trial_jobs or 'serial'})",
        url=serve_url(server),
        workers=args.workers,
        execution=args.execution,
    )

    def on_sigterm(signum, frame) -> None:
        # SIGTERM (what process supervisors and ``Popen.terminate``
        # send) takes the Ctrl-C path below, so the worker processes
        # are drained instead of orphaned.  A second SIGTERM during
        # that drain kills at once.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        raise KeyboardInterrupt

    # Signal handlers can only be installed from the main thread.
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, on_sigterm) if on_main else None
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        if args.verbose or args.log_json:
            # Same snapshot function as GET /stats and /metrics — the
            # shutdown report can never drift from the live endpoints.
            snapshot = server.state.snapshot()
            if args.log_json:
                log("shutdown stats", stats=snapshot)
            else:
                for section in ("store", "scheduler", "engine_cache", "faults"):
                    if section in snapshot:
                        print(
                            f"{section:12s} : {snapshot[section]}",
                            file=sys.stderr,
                        )
        shutdown_service(server)
        if on_main:
            signal.signal(signal.SIGTERM, previous)
    return 0


def _cmd_store_scrub(args: argparse.Namespace) -> int:
    import os

    from repro.service.store import ResultStore

    if not os.path.isdir(args.store_dir):
        print(f"no store at {args.store_dir}", file=sys.stderr)
        return 2
    # recover=False: scrub IS the audit — don't mutate anything before
    # it unless --repair asked for it.
    store = ResultStore(root=args.store_dir, recover=False)
    report = store.scrub(repair=args.repair)
    if args.json:
        import json

        print(json.dumps(report, indent=1))
    else:
        print(
            f"scrub {report['root']}: {report['scanned']} scanned, "
            f"{report['ok']} ok, {report['corrupt']} corrupt, "
            f"{report['quarantined']} quarantined, "
            f"{report['version_mismatch']} version-mismatch, "
            f"{report['orphaned_artifacts']} orphaned artifacts, "
            f"{report['tmp_files']} tmp files"
        )
        for problem in report["problems"]:
            print(f"  {problem['key'][:16]}: {problem['problem']}")
    # Report-only mode exits non-zero when it found corruption so CI
    # and cron wrappers can alert; --repair already acted on it.
    if report["corrupt"] and not args.repair:
        return 1
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    with open(args.input) as handle:
        qasm = handle.read()
    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        reply = client.compile(
            qasm,
            device=args.device,
            pipeline=args.pipeline,
            seed=args.seed,
            trials=args.trials,
            traversals=args.traversals,
            objective=args.objective,
        )
    except ServiceClientError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    result = reply["result"]
    metrics = result["metrics"]
    source = "store" if reply.get("cached") else "compiled"
    print(
        f"job {reply['id']} [{source}]  g_ori={metrics['g_ori']} "
        f"g_add={metrics['g_add']} d_out={metrics['d_out']} "
        f"t={result['compile_seconds']:.4f}s",
        file=sys.stderr,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(result["routed_qasm"])
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(result["routed_qasm"])
    return 0


def _cmd_draw(args: argparse.Namespace) -> int:
    if args.device:
        print(draw_coupling(get_device(args.device)))
        return 0
    if not args.input:
        print("draw needs a QASM file or --device", file=sys.stderr)
        return 2
    circuit = parse_qasm_file(args.input)
    print(draw_circuit(circuit, max_columns=args.max_columns))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SABRE qubit mapping (ASPLOS 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    map_p = sub.add_parser("map", help="compile a QASM file for a device")
    map_p.add_argument("input", help="input OpenQASM 2.0 file")
    map_p.add_argument(
        "--device", default="ibm_q20_tokyo", choices=sorted(DEVICE_BUILDERS)
    )
    map_p.add_argument("-o", "--output", help="output QASM path (default stdout)")
    map_p.add_argument("--seed", type=int, default=0)
    map_p.add_argument(
        "--pipeline",
        default="paper_default",
        choices=preset_names(),
        help="pass-pipeline preset to execute (default: the paper's flow)",
    )
    map_p.add_argument(
        "--noise-aware",
        action="store_true",
        help="compose the noise-weighted distance pass onto the pipeline "
        "(supply --noise-profile for per-edge rates; without one the "
        "chip-average model normalises back to hop counts and only the "
        "SWAP-cost penalty changes)",
    )
    map_p.add_argument(
        "--noise-profile",
        help="JSON noise profile, e.g. "
        '{"two_qubit_error": 0.03, "edge_errors": {"0,1": 0.12}}',
    )
    map_p.add_argument(
        "--bridge",
        action="store_true",
        help="compose the post-routing SWAP+CNOT -> bridge peephole",
    )
    map_p.add_argument(
        "--legalize-directions",
        action="store_true",
        help="compose CNOT-direction legalisation (directed devices)",
    )
    map_p.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print the per-pass timing breakdown to stderr",
    )
    map_p.add_argument(
        "--trials",
        type=int,
        default=None,
        help="independently seeded compilation trials; best kept "
        "(default: the pipeline preset's, paper: 5)",
    )
    map_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the trials (>1 shards the seeds "
        "across a worker pool, see --executor)",
    )
    map_p.add_argument(
        "--objective",
        default="g_add",
        choices=("g_add", "depth", "weighted"),
        help="trial-winner selection metric (default: paper's g_add)",
    )
    map_p.add_argument("--traversals", type=int, default=None)
    map_p.add_argument(
        "--heuristic", default="decay", choices=("basic", "lookahead", "decay")
    )
    map_p.add_argument(
        "--executor",
        default="auto",
        choices=("auto", "serial", "parallel"),
        help="where the trials run: serial (in process) or parallel "
        "(contiguous seed shards across --jobs worker processes); both "
        "pick the same winner.  auto runs parallel when --jobs > 1 and "
        "there is more than one trial, else serial",
    )
    map_p.add_argument("--delta", type=float, default=0.001)
    map_p.add_argument("--extended-set", type=int, default=20)
    map_p.add_argument("--weight", type=float, default=0.5)
    map_p.add_argument(
        "--keep-swaps",
        action="store_true",
        help="emit swap gates instead of 3-CNOT decompositions",
    )
    map_p.add_argument(
        "--optimize",
        action="store_true",
        help="run peephole optimization on the routed circuit",
    )
    map_p.add_argument(
        "--trace",
        action="store_true",
        help="print the per-pass span tree (wall + cpu time per "
        "pipeline pass, router scoring/step aggregates) to stderr",
    )
    map_p.set_defaults(handler=_cmd_map)

    dev_p = sub.add_parser("devices", help="list built-in devices")
    dev_p.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as JSON (same payload as GET /devices)",
    )
    dev_p.set_defaults(handler=_cmd_devices)

    serve_p = sub.add_parser(
        "serve", help="run the compilation service (HTTP JSON API)"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port",
        type=int,
        default=8711,
        help="TCP port (0 binds a free ephemeral port, printed at startup)",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="compilation workers (request-level concurrency; one "
        "worker process each under --execution process)",
    )
    serve_p.add_argument(
        "--execution",
        choices=("process", "thread"),
        default="process",
        help="worker tier: 'process' (default) compiles outside the "
        "GIL, one process per worker; 'thread' stays in-process",
    )
    serve_p.add_argument(
        "--mp-start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for the process tier "
        "(default: $REPRO_MP_START_METHOD, then platform default)",
    )
    serve_p.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission bound on queued compiles; a full queue answers "
        "429 + Retry-After (pass 0 for unbounded)",
    )
    serve_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-request deadline in seconds, queue wait + "
        "execution (requests may carry their own 'timeout')",
    )
    serve_p.add_argument(
        "--trial-jobs",
        type=int,
        default=0,
        help="cores granted to each compile's best-of-K trial sweep "
        "(seed shards across that many worker processes when > 1; 0 "
        "keeps the in-worker sweep).  The routed output is the same "
        "either way",
    )
    serve_p.add_argument(
        "--store-dir",
        default=".repro-store",
        help="persistent result-store directory; pass '' for memory-only",
    )
    serve_p.add_argument(
        "--memory-entries",
        type=int,
        default=128,
        help="LRU bound of the in-memory store tier",
    )
    serve_p.add_argument(
        "--store-shards",
        type=int,
        default=8,
        help="result-store shard count (fingerprint-prefix sharding)",
    )
    serve_p.add_argument(
        "--no-degrade",
        action="store_true",
        help="disable graceful degradation (by default the server falls "
        "back to the 'fast' preset under queue pressure or repeated "
        "worker loss, stamping degraded=true on affected results)",
    )
    serve_p.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="log requests and print the service stats snapshot "
        "(same payload as GET /stats) on shutdown",
    )
    serve_p.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON object per log line (request logs and the "
        "shutdown stats snapshot) for log pipelines",
    )
    serve_p.set_defaults(handler=_cmd_serve)

    store_p = sub.add_parser(
        "store", help="inspect/repair a persistent result store"
    )
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    scrub_p = store_sub.add_parser(
        "scrub",
        help="verify every stored entry's checksums; optionally "
        "quarantine corrupt entries",
    )
    scrub_p.add_argument(
        "store_dir",
        nargs="?",
        default=".repro-store",
        help="result-store directory (default: .repro-store)",
    )
    scrub_p.add_argument(
        "--repair",
        action="store_true",
        help="move corrupt entries into the store's quarantine/ subtree "
        "and clean tmp droppings (default: report only)",
    )
    scrub_p.add_argument(
        "--json",
        action="store_true",
        help="emit the scrub report as JSON",
    )
    scrub_p.set_defaults(handler=_cmd_store_scrub)

    submit_p = sub.add_parser(
        "submit", help="POST a QASM file to a running repro service"
    )
    submit_p.add_argument("input", help="input OpenQASM 2.0 file")
    submit_p.add_argument(
        "--url", default="http://127.0.0.1:8711", help="service base URL"
    )
    submit_p.add_argument(
        "--device", default="ibm_q20_tokyo", choices=sorted(DEVICE_BUILDERS)
    )
    submit_p.add_argument(
        "--pipeline", default="paper_default", choices=preset_names()
    )
    submit_p.add_argument("--seed", type=int, default=0)
    submit_p.add_argument("--trials", type=int, default=None)
    submit_p.add_argument("--traversals", type=int, default=None)
    submit_p.add_argument(
        "--objective",
        default="g_add",
        choices=("g_add", "depth", "weighted"),
    )
    submit_p.add_argument(
        "-o", "--output", help="routed QASM path (default stdout)"
    )
    submit_p.add_argument("--timeout", type=float, default=120.0)
    submit_p.set_defaults(handler=_cmd_submit)

    draw_p = sub.add_parser("draw", help="draw a circuit or device")
    draw_p.add_argument("input", nargs="?", help="QASM file to draw")
    draw_p.add_argument("--device", help="draw a device instead")
    draw_p.add_argument("--max-columns", type=int, default=0)
    draw_p.set_defaults(handler=_cmd_draw)

    for name, module in (
        ("table2", table2_mod),
        ("fig8", tradeoff_mod),
        ("scaling", scaling_mod),
        ("compare", compare_mod),
    ):
        exp_p = sub.add_parser(
            name, help=f"run the {name} experiment harness", add_help=False
        )
        exp_p.set_defaults(handler=None, forward_to=module)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # Forwarded experiment commands pass their remaining args through.
    if argv and argv[0] in ("table2", "fig8", "scaling", "compare"):
        module = {
            "table2": table2_mod,
            "fig8": tradeoff_mod,
            "scaling": scaling_mod,
            "compare": compare_mod,
        }[argv[0]]
        return module.main(argv[1:])
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as exc:
        # Bad input (malformed QASM, a missing file, a circuit too wide
        # for the device) is the user's to fix: one line, and argparse's
        # exit status for input errors, instead of a traceback.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
