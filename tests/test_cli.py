"""CLI surface: exit codes, CSV shapes, manifests, byte-identical reruns."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import maxnet
from maxnet import AffineLayer, FeedForwardNet, cli, load, save, stats
from maxnet.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def figure_net(path):
    weights = np.array([[0, 0, 1, -1], [0, -1, 0, 1], [0, 1, 0, -1]], dtype=float)
    net = FeedForwardNet(
        input_dim=4,
        layers=(
            AffineLayer(weights, np.zeros(3)),
            AffineLayer(np.ones((1, 3)), np.zeros(1), apply_activation=False),
        ),
    )
    save(net, path)
    return net


# sha256 of `maxnet construct` outputs. The nets whose layers are all dense
# are written as maxnet-ffn/1, and their files must not change; deep at
# d = 256 and 512 and depth3 at d = 64 hold sparse layers and are written as
# maxnet-ffn/2, whose files load to the arrays of their /1 files
CONSTRUCT_SHA256 = [
    (['depth3', '--d', '2', '--alpha', '0.5'],
     "65a63e4719f2f9858c4b59575cad9ed8c2edee07430159b605ed2998f4a4d076"),
    (['depth3', '--d', '8', '--alpha', '0.5'],
     "5e42b90d53d307f596128db62f2e172b822a80f9da92a432c6107bee23faa028"),
    (['depth3', '--d', '32', '--alpha', '0.5'],
     "9a28dd86e0ab9df42c8bcffdc245c7c627696518aa9d4b5d9279a70d294674bc"),
    (['depth3', '--d', '64', '--alpha', '0.5'],
     "7df9d4c81cebbd5070a49432115dbc00a1c4810cf39c8137b9ad6c0024f2eda6"),
    (['deep', '--d', '16', '--k', '2', '--alpha', '0.5'],
     "b1fc96d12a34bae079dee6203fd947c58bb17d5312dd292e5e3de47fddb8e0d2"),
    (['deep', '--d', '58', '--k', '3', '--alpha', '0.5'],
     "9d146e0ca13370aaf2cd170e47b874ce1de50faec2cabc959c17e7e7c7377383"),
    (['deep', '--d', '256', '--k', '2', '--alpha', '0.5'],
     "9267d308f4709e143619afbbc0bbb9fd57a0cffb69cfe7f0a409d645cedf3b26"),
    (['deep', '--d', '512', '--k', '3', '--alpha', '0.5'],
     "56ef4d5fc23553fb1ba3f94fe5b7d8fc855590eabb7897c3754fbd6b9376c744"),
    (['depth3', '--d', '2', '--alpha', '7'],
     "bf441fe0128dd3b1320faac3289807695e38fcb32c1fab27704117e0b22b223f"),
    (['depth3', '--d', '8', '--alpha', '7'],
     "96e0f0d6fc826605ffde15e8b75d08a4bb9ec08dcb1268a733a00bfbfccf92c5"),
    (['depth3', '--d', '32', '--alpha', '7'],
     "ec2d1126c1958dbee4e4e41cd0da391a0e82ed6f82f5ab313ed4fa549dc18ac0"),
    (['depth3', '--d', '64', '--alpha', '7'],
     "4ec0aeafb8dca374e97400c79c1de0f61b1b5aa0b3e7ce5b919ce54df6bd523e"),
    (['deep', '--d', '16', '--k', '2', '--alpha', '7'],
     "7f3813f518c54a588133387fae5390fbd82481bf2614bb555f0600760e491160"),
    (['deep', '--d', '58', '--k', '3', '--alpha', '7'],
     "c39252a5e47479d60d292a43029e3d57941cdba160467f1317b0c88e29561c00"),
    (['deep', '--d', '256', '--k', '2', '--alpha', '7'],
     "e125b5c81c0186ad49c010c3ccb53e43831fb348683388efe63137c3641e5f9b"),
    (['deep', '--d', '512', '--k', '3', '--alpha', '7'],
     "d27e0017ad296aa419499a45ca8e17a3ef21c1de414798eef4a7143c9ffd3670"),
    (['depth3', '--d', '2', '--alpha', '1e6'],
     "0b12ad4efe254ae6d3988ee1cf77d97c7416ab06ff5c90dcb798bc4bf0cca56a"),
    (['depth3', '--d', '8', '--alpha', '1e6'],
     "4fd45cf7bdd97eb52c90db5b5a1f37b1280a6097e1b5910d64df4bc02455c9ed"),
    (['depth3', '--d', '32', '--alpha', '1e6'],
     "9d70aa01b7751f02cc1d40e192125a7e36ed0a2cde0380a5ee034dc053340c2f"),
    (['depth3', '--d', '64', '--alpha', '1e6'],
     "56bcba728c3fcd5cf229befbb909c312cd885a3b2113569661d095ce871780f9"),
    (['deep', '--d', '16', '--k', '2', '--alpha', '1e6'],
     "b571273e08e33fc17d3bf0e652202bd6cb9b5ad16d8b3ffa94882c46f13aa85f"),
    (['deep', '--d', '58', '--k', '3', '--alpha', '1e6'],
     "9400e83be47e8758813e3094ceee86bffef5183f30f086b60e979716c2dc9415"),
    (['deep', '--d', '256', '--k', '2', '--alpha', '1e6'],
     "5613fc019f361fb503c216b84206b4c64984231612356ff936a1472e22052d00"),
    (['deep', '--d', '512', '--k', '3', '--alpha', '1e6'],
     "516902b1d2141cf571b162dad485cc7ac8cf6d9bbeb296d0419a4efc86e722c8"),
    (['exact-tree', '--d', '1'],
     "f79dd78d727ea35621215394c6c3ac511f92d91142ff81f12b61fd623f0e8b8d"),
    (['exact-tree', '--d', '7'],
     "2c15715e3c543bbc717a6f4843f46c005fbb8f0954323818c55a355d55eeb61b"),
    (['exact-tree', '--d', '64'],
     "c98f0396ebf9990b7f80fca7d629a4de1ef7c86657a69a7b89589e80928e3f0f"),
]


class TestConstruct:
    @pytest.mark.parametrize("argv,digest", CONSTRUCT_SHA256,
                             ids=[" ".join(a) for a, _ in CONSTRUCT_SHA256])
    def test_output_bytes_unchanged(self, tmp_path, capsys, argv, digest):
        out = tmp_path / "net.json"
        code, _, _ = run(["construct", *argv, "--out", str(out)], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_depth3_stats_line(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code, stdout, _ = run(
            ["construct", "depth3", "--d", "4", "--alpha", "1e4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "depth=3 width=20" in stdout
        assert stats(load(out)).width == 20

    def test_deep_width_bound(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code, stdout, _ = run(
            ["construct", "deep", "--d", "256", "--k", "2", "--alpha", "1e6",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        width = stats(load(out)).width
        assert width <= 20 * 256 ** (4 / 3) + 1

    def test_exact_tree_depth(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code, _, _ = run(["construct", "exact-tree", "--d", "7", "--out", str(out)], capsys)
        assert code == 0
        assert stats(load(out)).depth == math.ceil(math.log2(7)) + 1 == 4

    def test_epsilon_picks_alpha(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code, _, _ = run(
            ["construct", "depth3", "--d", "2", "--epsilon", "0.01", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert stats(load(out)).max_abs_weight == pytest.approx(7200.0)

    def test_manifest_written(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "3", "--out", str(out)], capsys)
        manifest = json.loads((tmp_path / "net.json.manifest.json").read_text())
        assert manifest["command"] == "construct"
        assert manifest["outputs"] == [str(out)]
        assert "timestamp" in manifest and "tool_version" in manifest


class TestError:
    def test_exact_tree_near_zero(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "3", "--out", str(net_file)], capsys)
        csv_file = tmp_path / "err.csv"
        code, stdout, _ = run(
            ["error", "--net", str(net_file), "--d", "3", "--n", "20000",
             "--seed", "5", "--out", str(csv_file)],
            capsys,
        )
        assert code == 0
        lines = csv_file.read_text().strip().splitlines()
        assert lines[0].startswith("d,depth,width,alpha,dist,n,mse")
        assert float(lines[1].split(",")[6]) <= 1e-20

    def test_append_mode(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "2", "--out", str(net_file)], capsys)
        csv_file = tmp_path / "err.csv"
        for seed in ("1", "2"):
            run(["error", "--net", str(net_file), "--d", "2", "--n", "1000",
                 "--seed", seed, "--out", str(csv_file)], capsys)
        assert len(csv_file.read_text().strip().splitlines()) == 3

    def test_run_appending_while_another_samples_keeps_both_rows(
        self, tmp_path, capsys, monkeypatch
    ):
        # The second run starts and finishes while the first one samples.
        net_file = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "2", "--out", str(net_file)], capsys)
        csv_file = tmp_path / "err.csv"
        argv = ["error", "--net", str(net_file), "--d", "2", "--n", "1000",
                "--out", str(csv_file), "--seed"]
        estimate, nested = cli.mc_l2_error, []

        def estimate_and_run_another(*args, **kwargs):
            if not nested:
                nested.append(None)
                nested[0] = main([*argv, "2"])
            return estimate(*args, **kwargs)

        monkeypatch.setattr(cli, "mc_l2_error", estimate_and_run_another)
        assert main([*argv, "1"]) == 0 and nested == [0]
        lines = csv_file.read_text().splitlines()
        assert [line.split(",")[-1] for line in lines] == ["seed", "2", "1"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "err.csv", "err.csv.manifest.json", "net.json", "net.json.manifest.json"]

    def test_concurrent_runs_keep_every_row(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "2", "--out", str(net_file)], capsys)
        csv_file = tmp_path / "err.csv"
        src = os.path.dirname(os.path.dirname(maxnet.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", "import sys, maxnet.cli; sys.exit(maxnet.cli.main())",
                 "error", "--net", str(net_file), "--d", "2", "--n", "2000",
                 "--seed", str(seed), "--out", str(csv_file)],
                env=env, stdout=subprocess.DEVNULL,
            )
            for seed in range(4)
        ]
        assert [p.wait(timeout=120) for p in procs] == [0] * 4
        seeds = sorted(line.split(",")[-1] for line in csv_file.read_text().splitlines()[1:])
        assert seeds == ["0", "1", "2", "3"]

    def test_foreign_header_exits_2_and_leaves_file(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "2", "--out", str(net_file)], capsys)
        csv_file = tmp_path / "err.csv"
        csv_file.write_bytes(b"x,y\n1,2\n")
        code, _, err = run(
            ["error", "--net", str(net_file), "--d", "2", "--n", "1000",
             "--seed", "1", "--out", str(csv_file)],
            capsys,
        )
        assert code == 2 and "header" in err
        assert csv_file.read_bytes() == b"x,y\n1,2\n"
        assert not (tmp_path / "err.csv.manifest.json").exists()

    def test_non_relu_activation_exits_2(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "2", "--out", str(net_file)], capsys)
        doc = json.loads(net_file.read_text())
        doc["activation"] = "softplus"
        net_file.write_text(json.dumps(doc))
        code, _, err = run(
            ["error", "--net", str(net_file), "--d", "2", "--n", "100",
             "--seed", "1", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2 and "softplus" in err
        assert not (tmp_path / "x.csv").exists()

    def test_non_string_activation_exits_2(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "2", "--out", str(net_file)], capsys)
        doc = json.loads(net_file.read_text())
        doc["activation"] = 5
        net_file.write_text(json.dumps(doc))
        code, _, err = run(
            ["error", "--net", str(net_file), "--d", "2", "--n", "100",
             "--seed", "1", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2 and "(at activation)" in err
        assert not (tmp_path / "x.csv").exists()

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "3", "--out", str(net_file)], capsys)
        code, _, err = run(
            ["error", "--net", str(net_file), "--d", "2", "--n", "100",
             "--seed", "1", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2 and "d=" in err

    def test_unknown_format_tag_exits_2(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "2", "--out", str(net_file)], capsys)
        doc = json.loads(net_file.read_text())
        doc["format"] = "maxnet-ffn/0"
        net_file.write_text(json.dumps(doc))
        code, _, err = run(
            ["error", "--net", str(net_file), "--d", "2", "--n", "100",
             "--seed", "1", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2 and "format" in err

    def test_string_weight_exits_2(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "2", "--out", str(net_file)], capsys)
        doc = json.loads(net_file.read_text())
        doc["layers"][0]["weights"][0][0] = "1e3"
        net_file.write_text(json.dumps(doc))
        csv = tmp_path / "x.csv"
        code, _, err = run(
            ["error", "--net", str(net_file), "--d", "2", "--n", "100",
             "--seed", "1", "--out", str(csv)],
            capsys,
        )
        assert code == 2 and "layers[0].weights" in err
        assert not csv.exists()

    def test_missing_net_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(
            ["error", "--net", str(tmp_path / "nope.json"), "--d", "2",
             "--n", "100", "--seed", "1", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2


class TestUsageErrors:
    def test_missing_required_flag_exits_64(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["error", "--d", "2", "--n", "100", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 64

    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64


class TestInternalErrors:
    @pytest.mark.parametrize("exc, detail", [
        (MemoryError(), "MemoryError"),
        (RuntimeError("boom"), "RuntimeError: boom"),
    ])
    def test_message_names_the_exception_type(self, tmp_path, capsys, monkeypatch,
                                             exc, detail):
        # a MemoryError has an empty message, which alone says nothing
        def fail(args):
            raise exc
        monkeypatch.setattr(cli, "cmd_construct", fail)
        code, _, err = run(["construct", "exact-tree", "--d", "2",
                            "--out", str(tmp_path / "net.json")], capsys)
        assert code == 1
        assert err == f"maxnet: internal error: {detail}\n"


class TestAnalyze:
    def test_weight_graph_three_neuron_example(self, tmp_path, capsys):
        net_file = tmp_path / "fig.json"
        figure_net(net_file)
        out = tmp_path / "report.json"
        code, _, _ = run(
            ["analyze", "--net", str(net_file), "--analysis", "weight-graph",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report["removed_edges"]) == {"2,3", "1,3"}
        assert report["n_edges"] == 4

    def test_stdout_is_the_whole_report(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", "depth3", "--d", "5", "--alpha", "10", "--out", str(net_file)], capsys)
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            ["analyze", "--net", str(net_file), "--analysis", "weight-graph",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert len(stdout.splitlines()) == 1 and len(stdout) > 200
        assert json.loads(stdout) == json.loads(out.read_text())

    def test_kernel_floor_single_neuron(self, tmp_path, capsys):
        net_file = tmp_path / "one.json"
        net = FeedForwardNet(
            input_dim=3,
            layers=(
                AffineLayer(np.array([[1.0, 2.0, 3.0]]), np.zeros(1)),
                AffineLayer(np.array([[0.5]]), np.zeros(1), apply_activation=False),
            ),
        )
        save(net, net_file)
        out = tmp_path / "report.json"
        code, _, _ = run(
            ["analyze", "--net", str(net_file), "--analysis", "kernel-floor",
             "--n", "20000", "--seed", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["floor"] == pytest.approx(1.0 / (120 * 3**4.5))
        assert report["floor_respected"] is True

    def test_precondition_failure_exits_2(self, tmp_path, capsys):
        net_file = tmp_path / "wide.json"
        run(["construct", "depth3", "--d", "3", "--alpha", "10", "--out", str(net_file)], capsys)
        code, _, _ = run(
            ["analyze", "--net", str(net_file), "--analysis", "kernel-floor",
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2


class TestSpectral:
    def test_grid_row_count_and_bound(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, _, _ = run(
            ["spectral", "--d", "2", "--grid", "0:20:0.5", "--out", str(out)], capsys
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 41 * 41 == 1682
        bound = 2 * math.sqrt(math.pi) * (1 + 1e-12)
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[4]) <= bound

    def test_floor_column_present_above_threshold(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        run(["spectral", "--d", "1", "--grid", "6:10:1", "--out", str(out)], capsys)
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        by_xi = {float(r[0]): r[4] for r in rows}
        assert by_xi[6.0] == "" and by_xi[8.0] != ""

    def test_oversized_grid_exits_2_before_building_it(self, tmp_path, capsys):
        # 41**5 = 115856201 rows, which ran out of memory instead
        out = tmp_path / "grid.csv"
        code, _, err = run(
            ["spectral", "--d", "5", "--grid", "0:20:0.5", "--out", str(out)], capsys
        )
        assert code == 2 and "--grid" in err and "41**5" in err
        assert not out.exists()
        # the cap counts rows, so a wide grid of few rows still runs
        code, _, _ = run(["spectral", "--d", "30", "--grid", "1:1:1", "--out", str(out)], capsys)
        assert code == 0 and len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("flags, named", [
        (["--d", "0", "--grid", "0:1:1"], "--d"),
        (["--d", "1", "--grid", "nan:1:1"], "--grid"),
        (["--d", "1", "--grid", "0:inf:1"], "--grid"),
        (["--d", "1", "--grid", "0:1:inf"], "--grid"),
        (["--d", "1", "--grid", "0:1:1", "--threshold", "nan"], "--threshold"),
        (["--d", "1", "--grid", "0:1:1", "--threshold=-inf"], "--threshold"),
    ])
    def test_bad_flag_exits_2_and_is_named(self, tmp_path, capsys, flags, named):
        out = tmp_path / "grid.csv"
        code, _, err = run(["spectral", *flags, "--out", str(out)], capsys)
        assert code == 2 and named in err
        assert not out.exists()


class TestSweep:
    def test_row_count_and_byte_identical_rerun(self, tmp_path, capsys):
        args = ["sweep", "--depth", "2", "--d", "2", "--widths", "2,3",
                "--n", "2000", "--seed", "0", "--restarts", "1",
                "--steps", "60", "--out", str(tmp_path / "sweep.csv")]
        code, _, _ = run(args, capsys)
        assert code == 0
        first = (tmp_path / "sweep.csv").read_bytes()
        assert len(first.decode().strip().splitlines()) == 3
        run(args, capsys)
        assert (tmp_path / "sweep.csv").read_bytes() == first

    @pytest.mark.parametrize("flags, named", [
        (["--lr", "nan"], "lr"),
        (["--lr", "inf"], "lr"),
        (["--lr", "0"], "lr"),
        (["--restarts", "0"], "--restarts"),
    ])
    def test_bad_hyperparameter_exits_2(self, tmp_path, capsys, flags, named):
        out = tmp_path / "sweep.csv"
        code, _, err = run(["sweep", "--depth", "2", "--d", "2", "--widths", "2",
                            "--n", "200", "--seed", "0", "--steps", "5", *flags,
                            "--out", str(out)], capsys)
        assert code == 2 and named in err
        assert not out.exists()


class TestSeparation:
    def test_row_and_determinism(self, tmp_path, capsys):
        args = ["separation", "--d", "2", "--delta", "0.01", "--n", "20000",
                "--seed", "3", "--out", str(tmp_path / "sep.csv")]
        code, _, _ = run(args, capsys)
        assert code == 0
        first = (tmp_path / "sep.csv").read_bytes()
        run(args, capsys)
        assert (tmp_path / "sep.csv").read_bytes() == first
        prob = float(first.decode().strip().splitlines()[1].split(",")[4])
        assert prob <= 2 * 4 * 0.01 + 0.01

    def test_paper_scale_fits_an_address_space_limit(self, tmp_path, capsys):
        # One 65536-row shard at d = 2048 takes 1 GiB, and so do the +-1
        # corners of the noise law's shard. The child may map 900000 KiB in
        # all, interpreter and BLAS included, and must still write the row
        # of an unlimited run.
        src = os.path.dirname(os.path.dirname(maxnet.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        limit = 900_000 * 1024

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        for dist in ("uniform", "noise"):
            args = ["separation", "--dist", dist, "--d", "2048", "--delta", "1e-6",
                    "--n", "65536", "--seed", "1"]
            free, limited = tmp_path / f"{dist}-free.csv", tmp_path / f"{dist}-limited.csv"
            code, _, _ = run([*args, "--out", str(free)], capsys)
            assert code == 0
            child = subprocess.run(
                [sys.executable, "-c", "import sys, maxnet.cli; sys.exit(maxnet.cli.main())",
                 *args, "--out", str(limited)],
                env=env, capture_output=True, text=True, timeout=120,
                preexec_fn=limit_address_space,
            )
            assert child.returncode == 0, child.stderr
            assert limited.read_bytes() == free.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--delta", "nan"],
        ["--delta", "0.01", "--R", "nan"],
        ["--delta", "0.01", "--a", "inf"],
        ["--delta", "0.01", "--dist", "noise", "--noise-scale", "nan"],
        # a + R overflows to inf
        ["--d", "4", "--delta", "0.01", "--a", "1e308", "--R", "1e308"],
    ])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "sep.csv"
        code, _, err = run(["separation", "--d", "2", *flags, "--n", "1000",
                            "--seed", "3", "--out", str(out)], capsys)
        assert code == 2 and "must be" in err
        assert not out.exists()


class TestNegativeSeed:
    def test_error_separation_and_sweep_exit_2(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", "exact-tree", "--d", "3", "--out", str(net_file)], capsys)
        for command, flags in [("error", ["--net", str(net_file)]),
                               ("separation", ["--delta", "0.01"]),
                               ("sweep", ["--depth", "2", "--widths", "2", "--steps", "5"])]:
            out = tmp_path / f"{command}.csv"
            code, _, err = run([command, *flags, "--d", "3", "--n", "1000",
                                "--seed", "-1", "--out", str(out)], capsys)
            assert code == 2 and "seed must be a non-negative integer" in err
            assert not out.exists()


class TestImportCost:
    def test_import_loads_no_scipy(self):
        # scipy.special and scipy.sparse are imported where they are first
        # needed, so a command that needs neither does not pay for them
        src = os.path.dirname(os.path.dirname(maxnet.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, maxnet.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestManifestStability:
    def test_manifests_differ_only_in_timestamp(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        args = ["construct", "exact-tree", "--d", "4", "--out", str(out)]
        run(args, capsys)
        m1 = json.loads((tmp_path / "net.json.manifest.json").read_text())
        run(args, capsys)
        m2 = json.loads((tmp_path / "net.json.manifest.json").read_text())
        m1.pop("timestamp")
        m2.pop("timestamp")
        assert m1 == m2
