"""Unit tests for the CLI entry point."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.config import QUICK


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "MinID-LDP" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "IDUE" in out and "RAPPOR" in out

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_quick_presets_are_smaller(self):
        assert QUICK.fig3.n < 100_000
        assert QUICK.fig4a.m < 41_270

    def test_csv_export(self, tmp_path, capsys, monkeypatch):
        """--csv writes the figure series next to printing it."""
        from dataclasses import replace

        import repro.cli as cli_module
        from repro.experiments.export import read_series_csv

        tiny = replace(
            QUICK,
            fig3=replace(
                QUICK.fig3, n=2000, m_power_law=20, epsilons=(1.0,), trials=1
            ),
        )
        monkeypatch.setattr(cli_module, "QUICK", tiny)
        path = str(tmp_path / "fig3.csv")
        assert main(["fig3", "--quick", "--csv", path]) == 0
        restored = read_series_csv(path)
        assert restored["x"] == [1.0]
        assert "IDUE-opt0 empirical" in restored["series"]

    def test_fig3_quick_smoke(self, capsys, monkeypatch):
        """End-to-end CLI run at a tiny scale (patch the quick preset)."""
        from dataclasses import replace

        import repro.cli as cli_module

        tiny = replace(
            QUICK, fig3=replace(QUICK.fig3, n=2000, m_power_law=20, epsilons=(1.0,), trials=1)
        )
        monkeypatch.setattr(cli_module, "QUICK", tiny)
        assert main(["fig3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig3-power-law" in out
        assert "IDUE-opt0 empirical" in out


class TestPipelineCLI:
    def test_pipeline_smoke(self, capsys):
        """Streamed-exact collection end to end at a tiny scale."""
        assert (
            main(
                [
                    "pipeline",
                    "--n", "2000",
                    "--m", "40",
                    "--shards", "2",
                    "--chunk-size", "256",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "streamed-exact" in out and "reports/s" in out
        assert "fast baseline" in out

    def test_pipeline_idue_packed(self, capsys):
        assert (
            main(
                [
                    "pipeline",
                    "--n", "1000",
                    "--m", "30",
                    "--mechanism", "idue",
                    "--packed",
                    "--shards", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mechanism=idue" in out and "packed=True" in out

    def test_pipeline_fast_sampler(self, capsys):
        """--sampler fast streams through the packed bit-plane kernel."""
        assert (
            main(
                [
                    "pipeline",
                    "--n", "2000",
                    "--m", "40",
                    "--sampler", "fast",
                    "--packed",
                    "--shards", "2",
                    "--chunk-size", "256",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sampler=fast" in out
        assert "streamed-exact" in out and "MSE vs truth" in out

    def test_pipeline_topk(self, capsys):
        """--topk runs heavy-hitter identification on streamed estimates."""
        assert (
            main(
                [
                    "pipeline",
                    "--n", "3000",
                    "--m", "50",
                    "--sampler", "fast",
                    "--topk", "5",
                    "--shards", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "top-5 heavy hitters" in out
        assert "precision=" in out and "ncr=" in out
        assert "estimated:" in out and "true:" in out

    def test_pipeline_rejects_unknown_sampler(self):
        with pytest.raises(SystemExit):
            main(["pipeline", "--n", "100", "--m", "10", "--sampler", "sloppy"])


class TestServiceCLI:
    @pytest.mark.parametrize(
        "key_args, key_mode",
        [
            ([], "a fresh random key"),
            (["--auth-key", "00112233445566778899aabbccddeeff"], "a shared key"),
        ],
        ids=["no-key", "auth-key"],
    )
    def test_collect_with_auth_key_uses_service(
        self, capsys, tmp_path, key_args, key_mode
    ):
        """--collect routes through the exactly-once service, including
        the blind-resend duplicate verification, with or without a key."""
        assert (
            main(
                [
                    "pipeline",
                    "--n", "600",
                    "--m", "24",
                    "--shards", "2",
                    "--chunk-size", "128",
                    "--sampler", "fast",
                    "--packed",
                    "--collect",
                    "--spill-dir", str(tmp_path / "round"),
                    *key_args,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "service collect:" in out
        assert key_mode in out
        assert "merged exactly once" in out
        assert "deduplicated" in out

    def test_serve_requires_auth_key(self, tmp_path):
        with pytest.raises(SystemExit, match="auth-key"):
            main(["serve", "--m", "8", "--spill-dir", str(tmp_path / "r")])

    def test_serve_requires_spill_dir(self):
        with pytest.raises(SystemExit, match="spill-dir"):
            main(["serve", "--m", "8", "--auth-key", "deadbeefcafebabe"])

    def test_serve_exit_after_round_trip(self, capsys, tmp_path):
        """Run the serve loop in a thread, feed it one record, and let
        --exit-after bring it down cleanly."""
        import asyncio
        import socket
        import threading
        import time

        import numpy as np

        from repro.pipeline import send_records
        from repro.pipeline.collect import wire

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        key = "deadbeefcafebabe"
        argv = [
            "serve",
            "--m", "8",
            "--auth-key", key,
            "--spill-dir", str(tmp_path / "round"),
            "--port", str(port),
            "--exit-after", "1",
        ]
        server = threading.Thread(target=main, args=(argv,))
        server.start()
        try:
            frame = wire.dump_chunk(
                np.packbits(np.ones((2, 8), dtype=np.uint8), axis=1), 8
            )
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    acks = asyncio.run(
                        send_records(
                            "127.0.0.1",
                            port,
                            [frame],
                            key=key,
                            producer_id="cli-test",
                            m=8,
                        )
                    )
                    break
                except (ConnectionError, OSError):
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            assert [a.status for a in acks] == [wire.ACK_MERGED]
        finally:
            server.join(timeout=10.0)
        assert not server.is_alive()
        out = capsys.readouterr().out
        assert "collection service listening" in out
        assert "1 merged" in out and "n=2" in out
