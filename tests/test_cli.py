"""Tests for the CLI front-end (paper §3's dashboard/CLI layer)."""

import numpy as np
import pytest

from repro.daemon import CliError, LoomCli, MonitoringDaemon, parse_duration
from repro.workloads import events, latency_stream


@pytest.fixture(scope="module")
def cli():
    daemon = MonitoringDaemon()
    daemon.enable_source("syscall", events.SRC_SYSCALL)
    daemon.add_index(
        "syscall", "latency", events.latency_value, [5.0, 20.0, 80.0, 320.0]
    )
    daemon.replay(latency_stream(2000, 10.0, seed=3))
    return LoomCli(daemon), daemon


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("10s", 10 * 10**9),
            ("250ms", 250 * 10**6),
            ("5m", 300 * 10**9),
            ("1.5s", 1_500_000_000),
            ("100us", 100_000),
            ("7ns", 7),
            ("2h", 7200 * 10**9),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("text", ["10", "s", "ten-seconds", "-5s", ""])
    def test_invalid(self, text):
        with pytest.raises(CliError):
            parse_duration(text)


class TestCommands:
    def test_sources(self, cli):
        c, daemon = cli
        result = c.execute("sources")
        assert "syscall" in result.text
        assert "latency" in result.text

    def test_count(self, cli):
        c, daemon = cli
        result = c.execute("count syscall last 10s")
        assert result.value == 20_000

    def test_count_partial_window(self, cli):
        c, daemon = cli
        result = c.execute("count syscall last 1s")
        assert 1800 <= result.value <= 2200

    def test_agg_max(self, cli):
        c, daemon = cli
        result = c.execute("agg syscall latency max last 10s")
        records = daemon.loom.scan(events.SRC_SYSCALL, (0, daemon.clock.now())).records
        expected = max(events.latency_value(r.payload) for r in records)
        assert result.value == pytest.approx(expected)

    def test_pct_matches_numpy(self, cli):
        c, daemon = cli
        result = c.execute("pct syscall latency 99 last 10s")
        records = daemon.loom.scan(events.SRC_SYSCALL, (0, daemon.clock.now())).records
        values = [events.latency_value(r.payload) for r in records]
        assert result.value == float(
            np.percentile(values, 99, method="inverted_cdf")
        )

    def test_scan_with_limit(self, cli):
        c, daemon = cli
        result = c.execute("scan syscall last 10s limit 5")
        assert len(result.value) == 5

    def test_where_range(self, cli):
        c, daemon = cli
        result = c.execute("where syscall latency 20..80 last 10s")
        records = daemon.loom.scan(events.SRC_SYSCALL, (0, daemon.clock.now())).records
        expected = sum(
            1 for r in records if 20.0 <= events.latency_value(r.payload) <= 80.0
        )
        assert len(result.value) == expected

    def test_where_open_upper_bound(self, cli):
        c, daemon = cli
        result = c.execute("where syscall latency 320..inf last 10s")
        assert all(
            events.latency_value(r.payload) >= 320.0 for r in result.value
        )


class TestHealthExitCode:
    """``loom health`` composes with shell conditionals: exit 0 while
    serving, 1 once any component is FAILED, 2 when unreachable."""

    def test_healthy_daemon_exits_zero(self, cli):
        c, _ = cli
        result = c.execute("health")
        assert result.exit_code == 0
        assert "health: healthy" in result.text

    def test_failed_daemon_exits_one(self):
        import struct

        from repro.core.clock import VirtualClock
        from repro.core.config import LoomConfig
        from repro.core.faults import FaultInjectingStorage

        daemon = MonitoringDaemon(
            config=LoomConfig(chunk_size=256, record_block_size=512),
            clock=VirtualClock(1),
        )
        daemon.enable_source("cpu")
        log = daemon.loom.record_log.log
        fault = FaultInjectingStorage(inner=log._storage)
        log._storage = fault
        fault.fail_next_appends(10**6)
        with pytest.raises(Exception):
            for _ in range(500):
                daemon.clock.advance(10)
                daemon.receive("cpu", struct.pack("<d", 1.0))
        result = LoomCli(daemon).execute("health")
        assert result.exit_code == 1
        assert "health: failed" in result.text
        fault.make_reliable()

    def test_main_health_verb_against_live_server(self, capsys):
        from repro.daemon import LoomServer
        from repro.daemon.cli import main

        with LoomServer(port=0) as srv:
            code = main(["health", "--port", str(srv.port)])
        assert code == 0
        out = capsys.readouterr().out
        assert "health: healthy" in out
        assert "shard 0" in out

    def test_main_health_verb_unreachable_exits_two(self, capsys):
        import socket

        from repro.daemon.cli import main

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        code = main(["health", "--port", str(free_port), "--deadline", "0.2"])
        assert code == 2
        assert "unreachable" in capsys.readouterr().out


class TestErrors:
    def test_empty(self, cli):
        c, _ = cli
        with pytest.raises(CliError):
            c.execute("")

    def test_unknown_verb(self, cli):
        c, _ = cli
        with pytest.raises(CliError):
            c.execute("frobnicate syscall")

    def test_bad_method(self, cli):
        c, _ = cli
        with pytest.raises(CliError):
            c.execute("agg syscall latency median last 10s")

    def test_missing_last(self, cli):
        c, _ = cli
        with pytest.raises(CliError):
            c.execute("count syscall 10s")

    def test_bad_percentile(self, cli):
        c, _ = cli
        with pytest.raises(CliError):
            c.execute("pct syscall latency banana last 10s")

    def test_bad_range(self, cli):
        c, _ = cli
        with pytest.raises(CliError):
            c.execute("where syscall latency 20-80 last 10s")

    def test_unknown_source_propagates(self, cli):
        c, _ = cli
        from repro.core.errors import LoomError

        with pytest.raises(LoomError):
            c.execute("count nosuch last 10s")
