"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library's showcase objects:

* ``figure1`` — test words against the paper's Figure 1 automaton;
* ``universal`` — build the Theorem 2.1 graph for a stock language and
  sample its no-wait language;
* ``extract`` — compute the wait-language DFA of a trace/periodic graph;
* ``broadcast`` — run the store-carry-forward comparison on a random
  network;
* ``reach`` — reachability ratios and the waiting gap of a trace or
  random network, via the compiled engine or the interpretive oracle;
* ``growth`` — the reachability growth curves ``r_wait``/``r_nowait``
  and the integrated value of waiting, via one batched arrival sweep
  per semantics (or the interpretive oracle);
* ``serve`` — run the long-lived JSON-lines query service over a trace
  or generated network (queries and mutations over one socket, results
  cached per graph version);
* ``worker`` — run a long-lived arrival-sweep worker; ``reach``,
  ``growth``, and ``serve`` ship sweep blocks to a fleet of these via
  ``--workers host:port,...`` (failed blocks re-swept locally, so
  answers are always exact);
* ``render`` — print the ASCII schedule of a contact trace;
* ``lint`` — run the project's own AST invariant checks (layering,
  version-bump completeness, plan purity, boundary errors, async
  hygiene, wire completeness) over ``src/repro``.

All subcommands print plain text and exit non-zero on verification
failure, so they compose with shell pipelines and CI.
"""

from __future__ import annotations

import argparse
import sys

from repro import NO_WAIT, WAIT, figure1_automaton, nowait_automaton_for
from repro.core.semantics import WaitingSemantics, parse_semantics
from repro.errors import ReproError, SemanticsError


def _semantics(text: str) -> WaitingSemantics:
    """Argparse adapter over the one shared semantics grammar
    (:func:`repro.core.semantics.parse_semantics`): malformed strings —
    including a negative bound like ``wait[-1]`` — become a clean
    argparse usage error instead of a traceback."""
    try:
        return parse_semantics(text)
    except SemanticsError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _number(kind: type, low: float, inclusive: bool = False):
    """An argparse type for ``kind`` values above ``low`` (or equal to
    it when ``inclusive``): an out-of-range number is a usage error at
    launch, not a library traceback or a silently odd run later."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not (value >= low if inclusive else value > low):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if inclusive else '>'} {low}, got {text}"
            )
        return value

    return parse


def _workers(text: str) -> list[str]:
    """A comma-separated ``host:port`` list, validated up front so a
    typo is a usage error at launch, not a per-sweep fallback."""
    from repro.errors import ServiceError
    from repro.service.cluster import parse_worker_address

    addresses = [part.strip() for part in text.split(",") if part.strip()]
    if not addresses:
        raise argparse.ArgumentTypeError("at least one host:port is required")
    for address in addresses:
        try:
            parse_worker_address(address)
        except ServiceError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return addresses


def _executor(args: argparse.Namespace):
    """The sweep executor ``--workers`` or ``--shards`` asks for (or
    None: sweep in-process)."""
    if args.workers:
        from repro.service.cluster import ClusterExecutor

        return ClusterExecutor(
            args.workers, timeout=args.worker_timeout, oversplit=args.oversplit
        )
    if args.shards:
        from repro.core.parallel import ProcessShards

        return ProcessShards(args.shards)
    return None


def _engine(args: argparse.Namespace, graph):
    """The engine ``reach``/``growth`` query through: compiled, on the
    requested executor, or None for ``--engine interpretive``."""
    from repro.core.engine import TemporalEngine

    executor = _executor(args)
    if args.engine == "compiled":
        return TemporalEngine(graph, executor=executor)
    if executor is not None:
        raise ReproError("--shards and --workers need --engine compiled")
    return None


def cmd_figure1(args: argparse.Namespace) -> int:
    automaton = figure1_automaton(p=args.p, q=args.q)
    failures = 0
    for word in args.words:
        accepted = automaton.accepts(word, args.semantics, horizon=args.horizon)
        print(f"{word!r}: {'accept' if accepted else 'reject'}")
        if args.expect is not None and accepted != (args.expect == "accept"):
            failures += 1
    return 1 if failures else 0


def cmd_universal(args: argparse.Namespace) -> int:
    from repro.machines.programs import standard_deciders

    deciders = standard_deciders()
    if args.language not in deciders:
        print(f"unknown language {args.language!r}; choose from "
              f"{', '.join(sorted(deciders))}", file=sys.stderr)
        return 2
    decider = deciders[args.language]
    automaton = nowait_automaton_for(decider)
    built = automaton.language(args.depth, NO_WAIT)
    expected = decider.language_upto(args.depth)
    for word in sorted(built, key=lambda w: (len(w), w)):
        print(repr(word))
    ok = built == expected
    print(f"# L_nowait(G) == L({args.language}) up to {args.depth}: {ok}")
    return 0 if ok else 1


def cmd_extract(args: argparse.Namespace) -> int:
    from repro.automata.language_compute import wait_language_automaton
    from repro.automata.operations import minimize
    from repro.automata.tvg_automaton import TVGAutomaton
    from repro.dynamics.traces import load_trace

    graph = load_trace(args.trace)
    labeled = _label_all(graph, args.label)
    automaton = TVGAutomaton(
        labeled,
        initial=args.initial,
        accepting=args.accepting or list(labeled.nodes),
        start_time=0,
    )
    dfa = minimize(wait_language_automaton(automaton).to_dfa())
    print(f"minimal wait-language DFA: {len(dfa.states)} states, "
          f"{len(dfa.accepting)} accepting")
    return 0


def _label_all(graph, label: str):
    from repro.core.transforms import graph_like

    labeled = graph_like(graph)
    labeled.add_nodes(graph.nodes)
    for edge in graph.edges:
        labeled.add_edge_object(edge.relabeled(label))
    return labeled


def cmd_broadcast(args: argparse.Namespace) -> int:
    from repro.core.generators import edge_markovian_tvg
    from repro.dynamics.protocols.broadcast import simulate_broadcast

    graph = edge_markovian_tvg(
        args.nodes,
        horizon=args.horizon,
        birth=args.birth,
        death=args.death,
        seed=args.seed,
    )
    for buffering in (False, True):
        outcome = simulate_broadcast(graph, 0, buffering)
        mode = "buffered  " if buffering else "bufferless"
        done = outcome.completion_time
        print(
            f"{mode}: delivery {outcome.delivery_ratio:.2f}, "
            f"transmissions {outcome.transmissions}, "
            f"completed at {done if done is not None else '-'}"
        )
    return 0


def cmd_reach(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.reachability import reachability_matrix

    graph, start, horizon = _load_or_generate(args)
    engine = _engine(args, graph)
    began = time.perf_counter()
    # The gap needs the WAIT and NO_WAIT matrices anyway; reuse whichever
    # also answers the requested ratio instead of sweeping a third time.
    _nodes, with_wait = reachability_matrix(graph, start, WAIT, horizon, engine)
    _same, without = reachability_matrix(graph, start, NO_WAIT, horizon, engine)
    gap = with_wait & ~without
    if args.semantics == WAIT:
        matrix = with_wait
    elif args.semantics == NO_WAIT:
        matrix = without
    else:
        _also, matrix = reachability_matrix(
            graph, start, args.semantics, horizon, engine
        )
    n = graph.node_count
    ratio = 1.0 if n <= 1 else (int(matrix.sum()) - n) / (n * (n - 1))
    elapsed = time.perf_counter() - began
    print(graph)
    print(f"engine:             {args.engine}")
    print(f"window:             [{start}, {horizon})")
    print(f"{args.semantics} ratio:         {ratio:.4f}")
    print(f"waiting-gap pairs:  {int(gap.sum())}")
    print(f"elapsed:            {elapsed * 1e3:.1f} ms")
    return 0


def _load_or_generate(args: argparse.Namespace):
    """The TVG and [start, horizon) window shared by reach/growth."""
    from repro.core.generators import periodic_random_tvg

    if args.trace is not None:
        from repro.dynamics.traces import load_trace

        graph = load_trace(args.trace)
    else:
        graph = periodic_random_tvg(
            args.nodes, period=args.period, density=args.density, seed=args.seed
        )
    horizon = args.horizon
    if horizon is None:
        if not graph.lifetime.bounded:
            horizon = graph.lifetime.start + 3 * (graph.period or 8)
        else:
            horizon = int(graph.lifetime.end)
    return graph, graph.lifetime.start, horizon


def cmd_growth(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.evolution import value_of_waiting

    graph, start, horizon = _load_or_generate(args)
    engine = _engine(args, graph)
    began = time.perf_counter()
    value = value_of_waiting(graph, start, horizon, engine=engine)
    elapsed = time.perf_counter() - began
    saturation = value.wait_saturation_time
    print(graph)
    print(f"engine:             {args.engine}")
    print(f"window:             [{start}, {horizon})")
    print(f"r_wait(end):        {value.wait_curve[-1][1]:.4f}")
    print(f"r_nowait(end):      {value.nowait_curve[-1][1]:.4f}")
    print(f"waiting area:       {value.area:.4f}")
    print(f"wait saturation:    {saturation if saturation is not None else '-'}")
    if args.curve:
        for (t, wait_value), (_t, nowait_value) in zip(
            value.wait_curve, value.nowait_curve
        ):
            print(f"  t={t:4d}  r_wait {wait_value:.4f}  r_nowait {nowait_value:.4f}")
    print(f"elapsed:            {elapsed * 1e3:.1f} ms")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.limits import AdmissionGate, RateLimiter
    from repro.service.server import run_service
    from repro.service.service import TVGService
    from repro.service.tasks import DEFAULT_MAX_TASKS

    graph, start, horizon = _load_or_generate(args)
    max_tasks = DEFAULT_MAX_TASKS if args.max_tasks is None else args.max_tasks
    service = TVGService(
        graph, window=(start, horizon), cache_size=args.cache_size,
        executor=_executor(args), max_tasks=max_tasks,
    )
    limiter = None
    if args.rate_limit is not None:
        limiter = RateLimiter(args.rate_limit, window=args.rate_window)
        print(
            f"rate limit:         {limiter.limit} requests / "
            f"{args.rate_window}s per client"
        )
    gate = None
    if args.max_inflight is not None:
        gate = AdmissionGate(args.max_inflight)
        print(f"max in flight:      {args.max_inflight}")
    print(graph)
    print(f"window:             [{start}, {horizon})")
    try:
        asyncio.run(
            run_service(
                service, host=args.host, port=args.port,
                limiter=limiter, gate=gate,
            )
        )
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.cluster import run_worker

    try:
        asyncio.run(run_worker(host=args.host, port=args.port))
    except KeyboardInterrupt:
        print("worker shutting down")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from repro.core.render import render_schedule
    from repro.dynamics.traces import load_trace

    graph = load_trace(args.trace)
    print(render_schedule(graph, args.start, args.end))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.devtools import all_rules, run_lint

    rules = all_rules()
    if args.rule:
        wanted = set(args.rule)
        known = {rl.code for rl in rules}
        unknown = wanted - known
        if unknown:
            raise SystemExit(f"unknown rule(s): {', '.join(sorted(unknown))}")
        rules = tuple(rl for rl in rules if rl.code in wanted)
    root = Path(args.root) if args.root else None
    report = run_lint(root=root, rules=rules)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render())
    return 1 if report.findings else 0


def build_parser() -> argparse.ArgumentParser:
    from repro.service.cluster import DEFAULT_OVERSPLIT, DEFAULT_TIMEOUT

    parser = argparse.ArgumentParser(
        prog="repro", description="Waiting in Dynamic Networks — reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure1", help="test words on the Figure 1 automaton")
    fig.add_argument("words", nargs="+")
    fig.add_argument("--semantics", type=_semantics, default=NO_WAIT)
    fig.add_argument("--horizon", type=int, default=None)
    fig.add_argument("-p", type=int, default=2)
    fig.add_argument("-q", type=int, default=3)
    fig.add_argument("--expect", choices=["accept", "reject"], default=None)
    fig.set_defaults(handler=cmd_figure1)

    uni = sub.add_parser("universal", help="Theorem 2.1 graph for a stock language")
    uni.add_argument("language")
    uni.add_argument("--depth", type=int, default=6)
    uni.set_defaults(handler=cmd_universal)

    ext = sub.add_parser("extract", help="wait-language DFA of a contact trace")
    ext.add_argument("trace")
    ext.add_argument("--initial", default=None, required=True)
    ext.add_argument("--accepting", nargs="*", default=None)
    ext.add_argument("--label", default="c")
    ext.set_defaults(handler=cmd_extract)

    bro = sub.add_parser("broadcast", help="buffered vs bufferless flooding")
    bro.add_argument("--nodes", type=int, default=12)
    bro.add_argument("--horizon", type=int, default=60)
    bro.add_argument("--birth", type=float, default=0.05)
    bro.add_argument("--death", type=float, default=0.5)
    bro.add_argument("--seed", type=int, default=0)
    bro.set_defaults(handler=cmd_broadcast)

    def add_network_options(
        command: argparse.ArgumentParser, engine_choice: bool = True
    ) -> None:
        command.add_argument(
            "--trace", default=None, help="trace file (else a random TVG)"
        )
        command.add_argument("--nodes", type=int, default=32)
        command.add_argument("--period", type=int, default=8)
        command.add_argument("--density", type=float, default=0.1)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--horizon", type=int, default=None)
        route = command.add_mutually_exclusive_group()
        route.add_argument(
            "--shards", type=_number(int, 0), default=None, metavar="N",
            help="shard the arrival sweep across N local worker processes "
            "(compiled engine only; tiny graphs stay in-process)",
        )
        route.add_argument(
            "--workers", type=_workers, default=None, metavar="HOST:PORT,...",
            help="ship arrival-sweep blocks to these remote sweep workers "
            "(`repro worker` processes); any failed block is re-swept "
            "locally, so answers never change",
        )
        command.add_argument(
            "--worker-timeout", type=_number(float, 0), default=DEFAULT_TIMEOUT,
            metavar="SECONDS",
            help="seconds to wait per remote sweep job before re-running "
            "its block locally (default %(default)s; raise it for sweeps "
            "whose blocks legitimately run long)",
        )
        command.add_argument(
            "--oversplit", type=_number(int, 0), default=DEFAULT_OVERSPLIT,
            metavar="N",
            help="sweep blocks per worker on the shared work-stealing "
            "queue (default %(default)s; higher smooths stragglers, 1 "
            "disables stealing)",
        )
        if engine_choice:
            command.add_argument(
                "--engine",
                choices=["compiled", "interpretive"],
                default="compiled",
                help="compiled contact-sequence engine (default) or the legacy scans",
            )

    rea = sub.add_parser(
        "reach", help="reachability ratios and the waiting gap of a network"
    )
    add_network_options(rea)
    rea.add_argument("--semantics", type=_semantics, default=WAIT)
    rea.set_defaults(handler=cmd_reach)

    gro = sub.add_parser(
        "growth", help="reachability growth curves and the value of waiting"
    )
    add_network_options(gro)
    gro.add_argument(
        "--curve", action="store_true", help="print the per-date curve values"
    )
    gro.set_defaults(handler=cmd_growth)

    srv = sub.add_parser(
        "serve", help="run the JSON-lines query service over a network"
    )
    # The service always queries through the engine, so no --engine flag.
    add_network_options(srv, engine_choice=False)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7712)
    srv.add_argument(
        "--cache-size", type=_number(int, 0), default=256,
        help="max memoized query results at the current graph version; "
        "the service also keeps, outside the cache and across mutations, "
        "the newest arrival matrix of each of its last few windows",
    )
    srv.add_argument(
        "--rate-limit", type=_number(int, 0), default=None,
        help="per-client requests admitted per --rate-window (default: "
        "no rate limiting)",
    )
    srv.add_argument(
        "--rate-window", type=_number(float, 0), default=1.0,
        help="sliding rate-limit window in seconds",
    )
    srv.add_argument(
        "--max-inflight", type=_number(int, 0), default=None,
        help="server-wide cap on concurrently dispatching requests "
        "(default: unbounded)",
    )
    srv.add_argument(
        "--max-tasks", type=_number(int, 0), default=None,
        help="bound on live background tasks in the submit/status/result "
        "table (default: 64)",
    )
    srv.set_defaults(handler=cmd_serve)

    wrk = sub.add_parser(
        "worker", help="run a long-lived arrival-sweep worker for --workers"
    )
    wrk.add_argument("--host", default="127.0.0.1")
    wrk.add_argument(
        "--port", type=int, default=7713,
        help="port to listen on (0 picks a free one, printed at startup)",
    )
    wrk.set_defaults(handler=cmd_worker)

    ren = sub.add_parser("render", help="ASCII schedule of a contact trace")
    ren.add_argument("trace")
    ren.add_argument("--start", type=int, default=None)
    ren.add_argument("--end", type=int, default=None)
    ren.set_defaults(handler=cmd_render)

    lnt = sub.add_parser(
        "lint", help="run the architecture invariant checks over src/repro"
    )
    lnt.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report style (json includes per-rule counts)",
    )
    lnt.add_argument(
        "--root", default=None,
        help="repo root to lint (default: the installed checkout)",
    )
    lnt.add_argument(
        "--rule", action="append", metavar="RLxxx",
        help="restrict to one rule code (repeatable)",
    )
    lnt.set_defaults(handler=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ReproError) as exc:
        # A missing or malformed trace file, a port in use: one line,
        # not a traceback.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
