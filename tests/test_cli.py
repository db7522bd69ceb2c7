import json
import os

import pytest

from cardest.cli import main
from cardest.graph import PropertyGraph, save_graph
from cardest.stats import load_catalog

from conftest import G4_EDGES, G4_VERTICES, MOVIE_QUERY_DOC, ONE_EDGE_DOC, TWO_CHAIN_DOC, random_graph
import random


@pytest.fixture
def graph_dir(tmp_path):
    g = PropertyGraph(G4_VERTICES, G4_EDGES)
    d = tmp_path / "g4"
    d.mkdir()
    save_graph(g, str(d / "vertices.jsonl"), str(d / "edges.jsonl"))
    return d


@pytest.fixture
def rich_graph_dir(tmp_path):
    rng = random.Random(20)
    g = random_graph(rng, n_vertices=12, n_edges=20)
    d = tmp_path / "rich"
    d.mkdir()
    save_graph(g, str(d / "vertices.jsonl"), str(d / "edges.jsonl"))
    return d


class TestStatsBuild:
    def test_build_and_reload(self, rich_graph_dir, tmp_path):
        out = tmp_path / "catalog.json"
        rc = main(
            [
                "stats",
                "build",
                "--graph",
                str(rich_graph_dir),
                "--out",
                str(out),
                "--synopses",
                "edge,chain2,sstar2,tstar2",
                "--sysr",
                "--cs",
                "100",
                "--sample",
                "id:0.5:3",
                "--sketch",
                "4",
                "--histogram",
                "k1:equi_depth:4",
                "--md-histogram",
                "k1,k2",
                "--prop-exact",
                "k1:=:1",
            ]
        )
        assert rc == 0
        catalog = load_catalog(str(out))
        assert catalog.basic.n_ids == 32
        assert len(catalog.synopses) == 4
        assert catalog.sysr is not None
        assert catalog.char_sets and catalog.sketches and catalog.samples
        assert catalog.histograms and catalog.md_histograms
        assert catalog.basic.prop_exact


    @pytest.mark.parametrize(
        "flag, value, bad",
        [
            ("--synopses", "edge,chainX", "chainX"),
            ("--sample", "id:abc", "id:abc"),
            ("--histogram", "k1:equi_depth:x", "k1:equi_depth:x"),
            ("--prop-exact", "k1:=", "k1:="),
        ],
    )
    def test_bad_token_rejected(self, graph_dir, tmp_path, capsys, flag, value, bad):
        out = tmp_path / "catalog.json"
        rc = main(["stats", "build", "--graph", str(graph_dir), "--out", str(out), flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cardest: error: bad {flag} token {bad!r}: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestEstimateCommand:
    def test_human_output(self, graph_dir, tmp_path, capsys):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(ONE_EDGE_DOC), encoding="utf-8")
        rc = main(["estimate", "--graph", str(graph_dir), "--query", str(qfile)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cardinality  2.0" in out

    def test_json_output(self, graph_dir, tmp_path, capsys):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(ONE_EDGE_DOC), encoding="utf-8")
        rc = main(["estimate", "--graph", str(graph_dir), "--query", str(qfile), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cardinality"] == pytest.approx(2.0)

    def test_invalid_json_query_rejected(self, graph_dir, tmp_path, capsys):
        qfile = tmp_path / "q.json"
        qfile.write_text("not json", encoding="utf-8")
        rc = main(["estimate", "--graph", str(graph_dir), "--query", str(qfile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("cardest: error: invalid query document")
        assert err.count("\n") == 1

    def test_malformed_disjunction_rejected(self, graph_dir, tmp_path, capsys):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(dict(ONE_EDGE_DOC, anyOf=[[]])), encoding="utf-8")
        rc = main(["estimate", "--graph", str(graph_dir), "--query", str(qfile)])
        assert rc == 2
        assert capsys.readouterr().err == "cardest: error: anyOf groups must be non-empty lists of objects\n"

    def test_bad_config_rejected(self, graph_dir, tmp_path, capsys):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(ONE_EDGE_DOC), encoding="utf-8")
        rc = main(["estimate", "--graph", str(graph_dir), "--query", str(qfile), "--pets", "NOPE"])
        assert rc == 2
        assert capsys.readouterr().err == "cardest: error: unknown technique tag: 'NOPE'\n"

    def test_with_stats_and_pets(self, rich_graph_dir, tmp_path, capsys):
        out = tmp_path / "catalog.json"
        main(
            [
                "stats",
                "build",
                "--graph",
                str(rich_graph_dir),
                "--out",
                str(out),
                "--synopses",
                "edge,chain2",
                "--sysr",
            ]
        )
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(TWO_CHAIN_DOC), encoding="utf-8")
        rc = main(
            [
                "estimate",
                "--graph",
                str(rich_graph_dir),
                "--stats",
                str(out),
                "--query",
                str(qfile),
                "--pets",
                "EP,c2,SysR",
                "--epests",
                "IP(id,p)",
                "--ct",
                "condIndep(NdSa)",
            ]
        )
        assert rc == 0
        assert "selectivity" in capsys.readouterr().out


class TestBenchCommand:
    def write_inputs(self, tmp_path):
        workload = tmp_path / "workload.json"
        workload.write_text(
            json.dumps(
                [
                    {"id": "one_edge", "query": ONE_EDGE_DOC},
                    {"id": "chain", "query": TWO_CHAIN_DOC},
                    {"id": "movie_query", "query": MOVIE_QUERY_DOC},
                ]
            ),
            encoding="utf-8",
        )
        configs = tmp_path / "configs.txt"
        configs.write_text(
            "# baseline\n"
            "name=bare; ct=condIndep(MoDi)\n"
            "name=rich; pets=EP,c2; ct=condIndep(NdSa)\n"
            "name=ip; pets=EP,c2,S(id,0.5); epests=IP(id,a),implied; ct=condIndep(Di)\n",
            encoding="utf-8",
        )
        return workload, configs

    def test_bench_round_trip_deterministic(self, rich_graph_dir, tmp_path, capsys):
        workload, configs = self.write_inputs(tmp_path)
        catalog = tmp_path / "catalog.json"
        main(
            [
                "stats",
                "build",
                "--graph",
                str(rich_graph_dir),
                "--out",
                str(catalog),
                "--synopses",
                "edge,chain2",
            ]
        )
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        common = [
            "bench",
            "--graph",
            str(rich_graph_dir),
            "--stats",
            str(catalog),
            "--workload",
            str(workload),
            "--configs",
            str(configs),
        ]
        assert main(common + ["--out", str(out1)]) == 0
        assert main(common + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "query_id,n_edge_ids,config,exact,estimate,qerror,est_ms,oracle_ms"
        assert len(text.splitlines()) == 1 + 9  # header + 3 queries x 3 configs

    def test_bench_deterministic_across_processes(self, rich_graph_dir, tmp_path):
        """Separate interpreter runs with different hash randomization must
        still produce byte-identical reports."""
        import subprocess
        import sys

        workload, configs = self.write_inputs(tmp_path)
        catalog = tmp_path / "catalog.json"
        main(
            [
                "stats",
                "build",
                "--graph",
                str(rich_graph_dir),
                "--out",
                str(catalog),
                "--synopses",
                "edge,chain2,sstar2",
                "--sample",
                "id:0.5:3",
            ]
        )
        outputs = []
        for hash_seed, name in (("1", "a.csv"), ("12345", "b.csv")):
            out = tmp_path / name
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "cardest.cli",
                    "bench",
                    "--graph",
                    str(rich_graph_dir),
                    "--stats",
                    str(catalog),
                    "--workload",
                    str(workload),
                    "--configs",
                    str(configs),
                    "--out",
                    str(out),
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
