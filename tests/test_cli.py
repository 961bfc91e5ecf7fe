"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestFigure1Command:
    def test_accept_and_reject(self, capsys):
        assert main(["figure1", "aabb", "aab"]) == 0
        out = capsys.readouterr().out
        assert "'aabb': accept" in out
        assert "'aab': reject" in out

    def test_expectation_enforced(self, capsys):
        assert main(["figure1", "aabb", "--expect", "accept"]) == 0
        assert main(["figure1", "aab", "--expect", "accept"]) == 1

    def test_wait_semantics(self, capsys):
        code = main(["figure1", "b", "--semantics", "wait", "--horizon", "64"])
        assert code == 0
        assert "'b': accept" in capsys.readouterr().out

    def test_bounded_semantics_parse(self, capsys):
        code = main(["figure1", "b", "--semantics", "wait[1]", "--horizon", "64"])
        assert code == 0
        assert "'b': accept" in capsys.readouterr().out

    def test_bad_semantics_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "x", "--semantics", "maybe"])

    def test_alternate_primes(self, capsys):
        assert main(["figure1", "ab", "-p", "3", "-q", "5"]) == 0
        assert "'ab': accept" in capsys.readouterr().out


class TestUniversalCommand:
    def test_stock_language(self, capsys):
        assert main(["universal", "anbn", "--depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "'ab'" in out and "'aabb'" in out
        assert "True" in out

    def test_unknown_language(self, capsys):
        assert main(["universal", "nosuch"]) == 2


class TestBroadcastCommand:
    def test_runs_and_reports(self, capsys):
        code = main(
            ["broadcast", "--nodes", "6", "--horizon", "20", "--birth", "0.2",
             "--death", "0.3", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bufferless" in out and "buffered" in out


class TestReachCommand:
    def test_compiled_and_interpretive_agree(self, capsys):
        args = ["reach", "--nodes", "8", "--period", "4", "--density", "0.2",
                "--seed", "2", "--horizon", "12"]
        assert main(args + ["--engine", "compiled"]) == 0
        compiled = capsys.readouterr().out
        assert main(args + ["--engine", "interpretive"]) == 0
        interpretive = capsys.readouterr().out

        def facts(text):
            return [
                line for line in text.splitlines()
                if "ratio" in line or "gap" in line or "window" in line
            ]

        assert facts(compiled) == facts(interpretive)
        assert "wait ratio" in compiled

    def test_trace_input(self, tmp_path, capsys):
        path = tmp_path / "contacts.trace"
        path.write_text("a b 0 3\nb c 4 6\n", encoding="utf-8")
        assert main(["reach", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "waiting-gap pairs" in out


class TestGrowthCommand:
    def test_compiled_and_interpretive_agree(self, capsys):
        args = ["growth", "--nodes", "8", "--period", "4", "--density", "0.2",
                "--seed", "2", "--horizon", "12"]
        assert main(args + ["--engine", "compiled"]) == 0
        compiled = capsys.readouterr().out
        assert main(args + ["--engine", "interpretive"]) == 0
        interpretive = capsys.readouterr().out

        def facts(text):
            return [
                line for line in text.splitlines()
                if "r_wait" in line or "r_nowait" in line or "area" in line
                or "saturation" in line or "window" in line
            ]

        assert facts(compiled) == facts(interpretive)
        assert "r_wait(end)" in compiled
        assert "waiting area" in compiled

    def test_curve_flag_prints_per_date_values(self, capsys):
        assert main(["growth", "--nodes", "6", "--period", "4", "--density",
                     "0.25", "--seed", "1", "--horizon", "8", "--curve"]) == 0
        out = capsys.readouterr().out
        assert "t=   0" in out and "t=   7" in out

    def test_trace_input(self, tmp_path, capsys):
        path = tmp_path / "contacts.trace"
        path.write_text("a b 0 3\nb c 4 6\n", encoding="utf-8")
        assert main(["growth", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wait saturation" in out


class TestTraceCommands:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "contacts.trace"
        path.write_text("a b 0 3\nb c 4 6\n", encoding="utf-8")
        return str(path)

    def test_render(self, trace_file, capsys):
        assert main(["render", trace_file]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "a->b" in out

    def test_extract(self, trace_file, capsys):
        code = main(["extract", trace_file, "--initial", "a"])
        assert code == 0
        assert "minimal wait-language DFA" in capsys.readouterr().out


class TestServeCommand:
    def test_parser_wires_the_service_options(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--nodes", "6", "--cache-size", "32"]
        )
        from repro.cli import cmd_serve

        assert args.handler is cmd_serve
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.cache_size == 32
        # Admission control defaults: off unless asked for.
        assert args.rate_limit is None
        assert args.rate_window == 1.0
        assert args.max_inflight is None
        assert args.max_tasks is None

    def test_parser_wires_the_admission_flags(self):
        args = build_parser().parse_args(
            ["serve", "--nodes", "6", "--rate-limit", "100",
             "--rate-window", "0.5",
             "--max-inflight", "64", "--max-tasks", "32"]
        )
        assert args.rate_limit == 100
        assert args.rate_window == 0.5
        assert args.max_inflight == 64
        assert args.max_tasks == 32

    @pytest.mark.service
    def test_serves_a_client_end_to_end(self):
        """Boot the CLI's service in a thread on an ephemeral port and
        drive one query through a real client."""
        import asyncio
        import threading

        from repro.service.client import ServiceClient
        from repro.service.service import TVGService

        # Reuse the CLI's own graph construction, then run its coroutine.
        args = build_parser().parse_args(
            ["serve", "--nodes", "6", "--period", "4", "--density", "0.3",
             "--seed", "1", "--horizon", "12", "--port", "0"]
        )
        from repro.cli import _load_or_generate

        graph, start, horizon = _load_or_generate(args)
        service = TVGService(graph, window=(start, horizon))
        started = threading.Event()
        captured = {}

        def serve_in_thread():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)

            async def boot():
                from repro.service.server import serve_service

                server = await serve_service(service, port=0)
                captured["port"] = server.sockets[0].getsockname()[1]
                captured["loop"] = loop
                started.set()
                async with server:
                    try:
                        await server.serve_forever()
                    except asyncio.CancelledError:
                        pass

            try:
                loop.run_until_complete(boot())
            finally:
                loop.close()

        thread = threading.Thread(target=serve_in_thread, daemon=True)
        thread.start()
        try:
            assert started.wait(timeout=10), "server failed to start"

            async def query():
                client = await ServiceClient.connect(port=captured["port"])
                try:
                    assert await client.ping() == "pong"
                    stats = await client.stats()
                    assert stats["graph"]["nodes"] == 6
                finally:
                    await client.close()

            asyncio.run(query())
        finally:
            if "loop" in captured:
                captured["loop"].call_soon_threadsafe(
                    lambda: [t.cancel() for t in asyncio.all_tasks(captured["loop"])]
                )
            thread.join(timeout=10)


class TestSemanticsBoundary:
    """Malformed --semantics values must die as clean argparse usage
    errors (exit code 2), never raw SemanticsError tracebacks — the CLI
    wraps the one shared grammar in core/semantics.py."""

    @pytest.mark.parametrize("text", ["wait[-1]", "wait[]", "wait[x]", "maybe"])
    def test_malformed_semantics_exit_cleanly(self, text, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["reach", "--semantics", text])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--semantics" in err  # argparse diagnostics, not a traceback

    @pytest.mark.parametrize("text", ["wait[-1]", "wait[]"])
    def test_figure1_rejects_them_too(self, text, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["figure1", "ab", "--semantics", text])
        assert excinfo.value.code == 2

    def test_well_formed_bound_still_parses(self):
        args = build_parser().parse_args(["reach", "--semantics", "wait[5]"])
        assert args.semantics.max_wait == 5


class TestTraceFileErrors:
    """A missing or malformed trace file ends in one line on stderr and
    exit code 2, never a traceback."""

    COMMANDS = {
        "reach": ["reach", "--trace"],
        "render": ["render"],
        "extract": ["extract", "--initial", "a"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("content", [None, "a b zero 3\n"], ids=["missing", "malformed"])
    def test_one_line_and_exit_2(self, command, content, tmp_path, capsys):
        path = tmp_path / "input.trace"
        if content is not None:
            path.write_text(content)
        assert main(self.COMMANDS[command] + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {command}: error: ")


class TestNumberBoundaries:
    """Out-of-range numbers and contradictory route flags end in exit
    code 2 without a traceback: argparse usage errors for single
    values, one ``repro <cmd>: error: ...`` line for combinations."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--cache-size", "0"],
            ["serve", "--cache-size", "-3"],
            ["serve", "--max-inflight", "0"],
            ["serve", "--rate-limit", "0"],
            ["serve", "--max-tasks", "0"],
            ["serve", "--rate-window", "0"],
            ["serve", "--rate-window", "nan"],
            ["reach", "--shards", "0"],
            ["reach", "--shards", "-3"],
            ["growth", "--shards", "0"],
            ["serve", "--shards", "-3"],
            ["reach", "--worker-timeout", "-1"],
            ["growth", "--worker-timeout", "-1"],
            ["serve", "--worker-timeout", "-1"],
            ["reach", "--oversplit", "0"],
            ["reach", "--shards", "2", "--workers", "127.0.0.1:7713"],
            ["serve", "--shards", "2", "--workers", "127.0.0.1:7713"],
            ["reach", "--kernel", "bitset"],
        ],
        ids=" ".join,
    )
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["reach", "--engine", "interpretive", "--shards", "2"],
            ["reach", "--engine", "interpretive", "--workers", "127.0.0.1:1"],
            ["growth", "--engine", "interpretive", "--shards", "2"],
        ],
        ids=" ".join,
    )
    def test_one_line_and_exit_2(self, argv, capsys):
        assert main(argv + ["--nodes", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: error: ")


@pytest.mark.slow
class TestShardsFlag:
    """--shards runs the process-sharded sweep; results are identical
    to the serial engine (slow: spawns worker processes)."""

    def test_reach_with_shards_matches_serial(self, capsys):
        args = ["reach", "--nodes", "10", "--period", "4", "--density", "0.2",
                "--seed", "2", "--horizon", "12"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--shards", "2"]) == 0
        sharded = capsys.readouterr().out

        def facts(text):
            return [
                line for line in text.splitlines()
                if "ratio" in line or "gap" in line
            ]

        assert facts(serial) == facts(sharded)

    def test_growth_with_shards_matches_serial(self, capsys):
        args = ["growth", "--nodes", "10", "--period", "4", "--density", "0.2",
                "--seed", "3", "--horizon", "10"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--shards", "3"]) == 0
        sharded = capsys.readouterr().out

        def facts(text):
            return [
                line for line in text.splitlines()
                if "r_wait" in line or "r_nowait" in line or "area" in line
            ]

        assert facts(serial) == facts(sharded)


class TestWorkersFlag:
    """--workers ships sweep blocks to remote workers; results are
    identical to the serial engine, even when a worker is dead."""

    def test_malformed_worker_lists_are_usage_errors(self):
        for bad in ("nonsense", "host:", "host:x", ",", "h:0"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["reach", "--workers", bad])

    def test_worker_subcommand_is_wired(self):
        args = build_parser().parse_args(["worker", "--port", "0"])
        assert args.port == 0 and args.host == "127.0.0.1"

    @pytest.mark.cluster
    @pytest.mark.service
    def test_reach_with_workers_matches_serial(self, capsys):
        from repro.service.cluster import LoopbackWorkerPool

        args = ["reach", "--nodes", "10", "--period", "4", "--density", "0.2",
                "--seed", "2", "--horizon", "12"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        try:
            with LoopbackWorkerPool(2) as pool:
                workers = ",".join(pool.addresses)
                assert main(args + ["--workers", workers]) == 0
        except OSError as exc:  # pragma: no cover — sandbox
            pytest.skip(f"loopback sockets unavailable: {exc}")
        clustered = capsys.readouterr().out

        def facts(text):
            return [
                line for line in text.splitlines()
                if "ratio" in line or "gap" in line
            ]

        assert facts(serial) == facts(clustered)

    @pytest.mark.cluster
    @pytest.mark.service
    def test_growth_with_a_dead_worker_still_matches_serial(self, capsys):
        args = ["growth", "--nodes", "10", "--period", "4", "--density", "0.2",
                "--seed", "3", "--horizon", "10"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        # Nothing listens on port 1: every block falls back locally.
        assert main(args + ["--workers", "127.0.0.1:1"]) == 0
        clustered = capsys.readouterr().out

        def facts(text):
            return [
                line for line in text.splitlines()
                if "r_wait" in line or "r_nowait" in line or "area" in line
            ]

        assert facts(serial) == facts(clustered)
