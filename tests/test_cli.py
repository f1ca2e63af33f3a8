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
from maxnet import (
    AffineLayer, FeedForwardNet, cli, deep_max, depth3_max, exact_max_tree, load, save, stats,
)
from maxnet.cli import main
from net_arrays import assert_same_arrays


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


# sha256 of `maxnet construct` outputs: maxnet-ffn/2 files, in which every
# layer, dense or sparse, is written as the CSR arrays of its entries, in
# compact JSON. Each file must also load to the arrays of the net built in
# memory, so a digest changes only with the bytes of the layout or of a
# construction's weights
CONSTRUCT_SHA256 = [
    (['depth3', '--d', '2', '--alpha', '0.5'],
     "c2b080e15290bb1e1a5b2a3274bde42c7f2d317f82debcc16e4f79dff67db9ec"),
    (['depth3', '--d', '8', '--alpha', '0.5'],
     "eeac95962fe4215b53b02da9c432f07f9ee58f3ac38fe51378296ea1b10116a0"),
    (['depth3', '--d', '32', '--alpha', '0.5'],
     "2a375de8212d0a4e9ab18adeccceccdb6765e6c20217f5d69c9a1d09ddd60552"),
    (['depth3', '--d', '64', '--alpha', '0.5'],
     "4e088fa869dc9a9aa8e532d45dc3fda23aadd51879d92b1357dde50e83cc81e5"),
    (['deep', '--d', '16', '--k', '2', '--alpha', '0.5'],
     "2a4e6bf8fdf44d3cd926f7fc5cc6c13b5af723cc4c9145f570e87bf3aedb31fc"),
    (['deep', '--d', '58', '--k', '3', '--alpha', '0.5'],
     "a2aeb3274a0414adf87401ca0e354be6fdb7114a1b9f6a5d137c04296f26785c"),
    (['deep', '--d', '256', '--k', '2', '--alpha', '0.5'],
     "c8087e7b983f84880601f4ff0399c3d8e8e3189213e4afb680cb3a94725ece95"),
    (['deep', '--d', '512', '--k', '3', '--alpha', '0.5'],
     "7abafedc767059f20b68c10e1151892092d49d5590b902160331cdd66637d388"),
    (['depth3', '--d', '2', '--alpha', '7'],
     "09ac553b1f871762c329d85a6e49094a92a99965bc0b42cb00481f2859a6bb34"),
    (['depth3', '--d', '8', '--alpha', '7'],
     "99c52a697c80ab566a140e9c546e45c77f9667a49178feb3ad07aaabd10b0cba"),
    (['depth3', '--d', '32', '--alpha', '7'],
     "4fe797fbb6789e0f634813d05598a4af60fe5ee9ff88c4f8b4864a485e4b62cf"),
    (['depth3', '--d', '64', '--alpha', '7'],
     "2fb8fb12df522b4bd78dd1e2f169489556e0e05c3aeef56843ded3a0b694afe0"),
    (['deep', '--d', '16', '--k', '2', '--alpha', '7'],
     "1f97cc4e2170354d0528d23fbbe2b33ef79a42e5f2d72fe771919b71ff120209"),
    (['deep', '--d', '58', '--k', '3', '--alpha', '7'],
     "2f5b344a9664c0492b3c339af55c19872d072ca7a5d8ac42c83dd0f5626ac343"),
    (['deep', '--d', '256', '--k', '2', '--alpha', '7'],
     "ea3350fdeaf41d117b27931d7aa9c1a7b89b569bc1ad5f23d7e462609dced10a"),
    (['deep', '--d', '512', '--k', '3', '--alpha', '7'],
     "b512d279dc7c18d34eb9cbe75ac1e2d3a9c1d0df02ea0ae63396dfca7f820dad"),
    (['depth3', '--d', '2', '--alpha', '1e6'],
     "43cc223ba1aa263db6eea9c95229db2c2e1b1cddae4e15f2674d5c0d30f0139c"),
    (['depth3', '--d', '8', '--alpha', '1e6'],
     "ddc344446c1d25c323d6da3ba85b3f968a242e31404aac49f16ec2482a1f5560"),
    (['depth3', '--d', '32', '--alpha', '1e6'],
     "2cf72b378907e697079d201f70988d04de377bbde18fd36c3c0116483a00c1a7"),
    (['depth3', '--d', '64', '--alpha', '1e6'],
     "83aa4d51e6add20fff88b30806b68357647e53a954e748874b6e158761f3080d"),
    (['deep', '--d', '16', '--k', '2', '--alpha', '1e6'],
     "d7c3e7f65de2e226dc79a377cb14120640e7fe4427eb9b57465ee2d71cbe8a35"),
    (['deep', '--d', '58', '--k', '3', '--alpha', '1e6'],
     "7a05480ae0447c583f91d402bf67315762ecdd82b8f99fa14372fbcd172352a4"),
    (['deep', '--d', '256', '--k', '2', '--alpha', '1e6'],
     "4030edf35d0c8d7b292764d7d1631137b6c6cd55e70e67164a0418250163e0af"),
    (['deep', '--d', '512', '--k', '3', '--alpha', '1e6'],
     "5e8a9a02cda0df003e034b46072c17698b97927204e7ec0a40634f2f3fcbd1f8"),
    (['exact-tree', '--d', '1'],
     "ff0369187a4a4999b01b82491901165a565ea28d4b5d6e2b6ee0591d665480a3"),
    (['exact-tree', '--d', '7'],
     "b89b7d30e2e0127291a238f944a446b89ddcecdd41db536fcd66e20284ffba3d"),
    (['exact-tree', '--d', '64'],
     "ff973577f4b1550c734c31a6e798a35e7ac485cc2632dc489d74a4fe63aef29e"),
]


def built(argv: list[str]) -> FeedForwardNet:
    """The net that `maxnet construct` builds for ``argv``, built in memory."""
    kind, flags = argv[0], dict(zip(argv[1::2], argv[2::2]))
    d = int(flags["--d"])
    if kind == "depth3":
        return depth3_max(d, float(flags["--alpha"]))
    if kind == "deep":
        return deep_max(d, float(flags["--alpha"]), int(flags["--k"]))
    return exact_max_tree(d)


class TestConstruct:
    @pytest.mark.parametrize("argv,digest", CONSTRUCT_SHA256,
                             ids=[" ".join(a) for a, _ in CONSTRUCT_SHA256])
    def test_output_bytes_unchanged(self, tmp_path, capsys, argv, digest):
        out = tmp_path / "net.json"
        code, _, _ = run(["construct", *argv, "--out", str(out)], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert_same_arrays(built(argv), load(out))

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

    def test_exact_tree_at_4096_is_written_sparse(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code, _, _ = run(["construct", "exact-tree", "--d", "4096", "--out", str(out)], capsys)
        assert code == 0
        assert out.stat().st_size < 4 * 10**6
        assert json.loads(out.read_text())["format"] == "maxnet-ffn/2"

    def test_deep_at_a_huge_k(self, tmp_path, capsys):
        # 2^64 - 1 is the exponent of the top split, which is 4 batches of 1
        out = tmp_path / "net.json"
        code, stdout, _ = run(["construct", "deep", "--d", "4", "--k", "64", "--alpha", "2",
                               "--out", str(out)], capsys)
        assert code == 0
        assert "depth=129" in stdout

    def test_epsilon_picks_alpha(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code, _, _ = run(
            ["construct", "depth3", "--d", "2", "--epsilon", "0.01", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert stats(load(out)).max_abs_weight == pytest.approx(7200.0)

    @pytest.mark.parametrize("kind", ["depth3", "deep", "exact-tree"])
    def test_alpha_with_epsilon_exits_2(self, tmp_path, capsys, kind):
        out = tmp_path / "net.json"
        code, _, err = run(["construct", kind, "--d", "4", "--alpha", "7",
                            "--epsilon", "1e-2", "--out", str(out)], capsys)
        assert code == 2 and "--alpha" in err and "--epsilon" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--epsilon", "inf"], ["--epsilon", "nan"],
                                       ["--epsilon", "0.01", "--R", "inf"]])
    def test_non_finite_epsilon_or_R_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "net.json"
        code, _, err = run(["construct", "depth3", "--d", "4", *flags, "--out", str(out)],
                           capsys)
        assert code == 2 and "R and epsilon must be positive and finite" in err
        assert not out.exists()

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
        doc["layers"][0]["values"][0] = "1e3"
        net_file.write_text(json.dumps(doc))
        csv = tmp_path / "x.csv"
        code, _, err = run(
            ["error", "--net", str(net_file), "--d", "2", "--n", "100",
             "--seed", "1", "--out", str(csv)],
            capsys,
        )
        assert code == 2 and "layers[0].values" in err
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


# sha256 of `maxnet analyze --analysis weight-graph` reports on constructions
# built with --alpha 1e6, as the per-neuron rule on the dense first layer
# wrote them
WEIGHT_GRAPH_SHA256 = [
    (['depth3', '--d', '32'],
     "caeb862a8f9bc736a81f9ed3c7770d0c9fc27183269160cfbd03fcc55f8adcfb"),
    (['deep', '--d', '256', '--k', '2'],
     "7336ddf697ab43600df140ceab590441ee4a1aea1fc315111e24e091dc71a370"),
    (['deep', '--d', '1024', '--k', '2'],
     "ea10c49e0d813dcbd1f69ba61e1d7810787d95d55bbe332ce4c1857eced8bb4e"),
]


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

    @pytest.mark.parametrize("spec,digest", WEIGHT_GRAPH_SHA256)
    def test_weight_graph_report_sha256(self, spec, digest, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        run(["construct", *spec, "--alpha", "1e6", "--out", str(net_file)], capsys)
        out = tmp_path / "report.json"
        code, _, _ = run(["analyze", "--net", str(net_file), "--analysis", "weight-graph",
                          "--out", str(out)], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_weight_graph_over_the_edge_cap_lists_no_edges(self, tmp_path, capsys):
        # the full list took 213.5 MB and 3356 MiB of RSS here
        net_file = tmp_path / "net.json"
        run(["construct", "deep", "--d", "4096", "--k", "4", "--alpha", "1e6",
             "--out", str(net_file)], capsys)
        out = tmp_path / "report.json"
        code, _, _ = run(["analyze", "--net", str(net_file), "--analysis", "weight-graph",
                          "--out", str(out)], capsys)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_edges"] == 8384817 > cli.REPORT_MAX_EDGES
        assert report["edges"] is None
        assert len(report["removed_edges"]) == 4096 * 4095 // 2 - 8384817
        assert report["triangle"] is not None
        assert out.stat().st_size < 10**6

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
        (["--widths", "2,x"], "--widths must be comma-separated integers"),
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


    def test_kernel_floor_exits_2(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        net = FeedForwardNet(
            input_dim=3,
            layers=(
                AffineLayer(np.array([[1.0, 2.0, 3.0]]), np.zeros(1)),
                AffineLayer(np.array([[0.5]]), np.zeros(1), apply_activation=False),
            ),
        )
        save(net, net_file)
        out = tmp_path / "report.json"
        code, _, err = run(["analyze", "--net", str(net_file), "--analysis", "kernel-floor",
                            "--n", "1000", "--seed", "-1", "--out", str(out)], capsys)
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
