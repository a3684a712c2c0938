"""CLI surface: every subcommand runs end to end at tiny scale."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "--events", "1"])
        assert args.command == "generate"
        for cmd in ("train", "evaluate", "throughput", "compare"):
            assert parser.parse_args([cmd] + (
                ["--checkpoint", "x", "--data", "y"] if cmd == "evaluate" else []
            )).command == cmd

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [
        ["serve"],
        ["decompress", "--archive", "codes.npz"],
        ["analyze"],
    ])
    def test_no_precision_flag(self, argv, capsys):
        """There is one numerics contract, so no tier flag to pick one."""

        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--precision", "bit"])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err


class TestCommands:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "w.npz"
        rc = main(["generate", "--events", "1", "--scale", "tiny", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "occupancy" in capsys.readouterr().out

    def test_train_evaluate_cycle(self, tmp_path, capsys):
        data = tmp_path / "w.npz"
        ckpt = tmp_path / "ckpt.npz"
        main(["generate", "--events", "1", "--scale", "tiny", "--out", str(data)])
        rc = main([
            "train", "--data", str(data), "--epochs", "1", "--m", "1", "--n", "1",
            "--checkpoint", str(ckpt),
        ])
        assert rc == 0
        assert ckpt.exists()
        rc = main([
            "evaluate", "--data", str(data), "--checkpoint", str(ckpt),
            "--m", "1", "--n", "1", "--half",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MAE=" in out

    def test_throughput(self, capsys):
        rc = main(["throughput", "--model", "bcae_ht", "--batches", "1,8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TC-eligible" in out
        assert "speedup" in out

    def test_compare(self, tmp_path, capsys):
        data = tmp_path / "w.npz"
        main(["generate", "--events", "1", "--scale", "tiny", "--out", str(data)])
        rc = main(["compare", "--data", str(data), "--wedges", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sz_like" in out and "zfp_like" in out and "mgard_like" in out


class TestExtensionCommands:
    def test_search(self, capsys):
        rc = main(["search", "--ms", "3,4", "--ns", "3,8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pareto frontier" in out
        assert "BCAE-2D(m=3" in out

    def test_daq(self, capsys):
        rc = main(["daq", "--rate", "6900", "--frames", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "M wedges/s" in out
        assert "GPUs" in out

    def test_serve(self, capsys):
        rc = main([
            "serve", "--wedges", "12", "--batch", "4",
            "--m", "2", "--n", "2", "--d", "2", "--baseline",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput=" in out
        assert "payload parity with serial path: OK" in out

    def test_serve_workers(self, capsys):
        rc = main([
            "serve", "--wedges", "8", "--batch", "4", "--workers", "2",
            "--m", "1", "--n", "1", "--d", "1",
        ])
        assert rc == 0
        assert "workers=2" in capsys.readouterr().out

    def test_serve_archive_then_decompress(self, tmp_path, capsys):
        """The round-trip CLI story: serve → archive → decompress --verify."""

        archive = tmp_path / "codes.npz"
        out = tmp_path / "recon.npz"
        rc = main([
            "serve", "--wedges", "6", "--batch", "3",
            "--m", "2", "--n", "2", "--d", "2", "--archive", str(archive),
        ])
        assert rc == 0
        assert archive.exists()
        rc = main([
            "decompress", "--archive", str(archive), "--out", str(out),
            "--m", "2", "--n", "2", "--d", "2", "--verify", "--adc",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "parity with module-graph decompress: OK" in text
        data = np.load(out)
        assert data["recon_log"].shape[0] == 6
        assert data["recon_adc"].dtype == np.uint16
