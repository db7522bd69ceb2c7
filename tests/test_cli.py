import json
import math
import os

import pytest

import cardest
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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sample", "foo:0.5", "pattern_type: expected id or vertex or edge_pattern, got 'foo'"),
            ("--sample", "id:1.5", "probability: expected a probability in (0, 1], got 1.5"),
            ("--synopses", "chain9", "max_size > 4 is not supported (resource guard)"),
            ("--synopses", "chain0", "max_size: expected a size >= 1, got 0"),
            ("--cs", "0", "max_entries must be >= 1"),
            ("--sketch", "0", "n_buckets must be >= 1"),
            ("--histogram", "k1:bogus", "unknown histogram kind: 'bogus'"),
            ("--histogram", "k1:equi_width:0", "n_buckets must be >= 1"),
            ("--md-histogram", "k1", "md histogram takes 2..3 keys"),
            ("--prop-exact", "k1:IN:3", "IN predicate on 'k1' needs a list value"),
        ],
    )
    def test_builder_rejection_reported(self, rich_graph_dir, tmp_path, capsys, flag, value, message):
        # k1 holds several numbers on this graph, so a histogram builder
        # reaches its bucket split
        out = tmp_path / "catalog.json"
        rc = main(["stats", "build", "--graph", str(rich_graph_dir), "--out", str(out), flag, value])
        assert rc == 2
        assert capsys.readouterr().err == f"cardest: error: {message}\n"
        assert not out.exists()


    @pytest.mark.parametrize(
        "k, flags, message",
        [
            (10**400, ["--histogram", "k"], "a value of 'k' lies past the float range: 1000"),
            (10**400, ["--md-histogram", "j,k"], "a value of 'k' lies past the float range: 1000"),
            (math.inf, ["--histogram", "k:equi_width:3"], "the values of 'k' span 1.0 to inf, a width past"),
            (math.inf, ["--md-histogram", "j,k"], "the values of 'k' span 1.0 to inf, a width past"),
        ],
        ids=["int-histogram", "int-grid", "infinity-equi-width", "infinity-grid"],
    )
    def test_value_past_the_float_range_reported(self, tmp_path, capsys, k, flags, message):
        d = values_graph_dir(tmp_path, [1, k, 3])
        out = tmp_path / "catalog.json"
        rc = main(["stats", "build", "--graph", str(d), "--out", str(out), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cardest: error: {message}") and err.count("\n") == 1
        assert not out.exists()


def values_graph_dir(tmp_path, ks) -> str:
    """An edgeless graph whose vertices hold the given values of k, and j = 1."""
    d = tmp_path / "values"
    d.mkdir()
    lines = [json.dumps({"id": f"v{n}", "props": {"k": k, "j": 1}}) + "\n" for n, k in enumerate(ks)]
    (d / "vertices.jsonl").write_text("".join(lines))
    (d / "edges.jsonl").write_text("")
    return d


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

    def test_zero_walks_rejected(self, graph_dir, tmp_path, capsys):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(ONE_EDGE_DOC), encoding="utf-8")
        rc = main(["estimate", "--graph", str(graph_dir), "--query", str(qfile), "--pets", "WJ(0)"])
        assert rc == 2
        assert capsys.readouterr().err == "cardest: error: unknown technique tag: 'WJ(0)'\n"

    def test_partition_size_past_cap_rejected(self, graph_dir, tmp_path, capsys):
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(ONE_EDGE_DOC), encoding="utf-8")
        rc = main(["estimate", "--graph", str(graph_dir), "--query", str(qfile), "--ct", "maxEnt(mps=21)"])
        assert rc == 2
        assert capsys.readouterr().err == "cardest: error: maxEnt partition size in 'maxEnt(mps=21)' must be at most 20\n"

    def test_query_value_past_the_float_range_estimates(self, tmp_path, capsys):
        d = values_graph_dir(tmp_path, [1, 2, 3])
        main(["stats", "build", "--graph", str(d), "--out", str(tmp_path / "c.json"), "--histogram", "k:equi_width:3"])
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"vertices": [{"id": "x", "props": [{"key": "k", "op": "<", "value": 10**400}]}]}))
        capsys.readouterr()
        rc = main(["estimate", "--graph", str(d), "--stats", str(tmp_path / "c.json"), "--query", str(q), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["cardinality"] == 3

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


NOT_UTF8 = b"\xff\xfe"


def md_catalog(axes=None, grid=None) -> str:
    """A catalog holding one 2-key grid, with the given axes or cells."""
    axis = {"bounds": [0.0, 1.0, 2.0], "distincts": [1, 1]}
    mdh = {"keys": ["a", "b"], "axes": [axis, axis] if axes is None else axes,
           "grid": {"0,1": 1} if grid is None else grid, "total": 1}  # fmt: skip
    return json.dumps({"version": 1, "md_histograms": [mdh]})


def record(kind: str, **endpoints) -> dict:
    """A sample member's record of the given kind, with the given endpoints."""
    return {"kind": kind, "labels": [], "props": {}, **endpoints}


def sample_catalog(pattern_type="id", probability=1.0, members=()) -> str:
    """A catalog holding one sample of the given type, probability and members."""
    sample = {"pattern_type": pattern_type, "probability": probability, "seed": 0, "population": 1,
              "members": list(members)}  # fmt: skip
    return json.dumps({"version": 1, "samples": [sample]})


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("edges", '{"id": "e9", "src": "g1", "trg": "gone"}', "edge 'e9' references missing vertex 'gone'"),
        ("vertices", "not json", "vertices.jsonl:3: Expecting value"),
        ("stats", "{not json", "stats.json: Expecting property name"),
        ("stats", '{"version": 1, "basic": {"n_vertices": 2}}', "malformed catalog (KeyError: 'n_edges')"),
        ("stats", '{"version": 1, "synopses": [{"class": "chain"}]}', "malformed catalog (KeyError: 'max_size')"),
        ("stats", json.dumps({"version": 1, "samples": [{
            "pattern_type": "edge_pattern", "probability": 1.0, "seed": 0, "population": 1,
            "members": [{"kind": "edge", "labels": [], "props": {}, "trg": {"kind": "vertex", "labels": [], "props": {}}}],
        }]}), "stats.json: samples[0].members[0]: malformed catalog (KeyError: 'src')"),
        ("stats", json.dumps({"version": 1, "histograms": [{
            "key": "k", "kind": "equi_depth", "domain": "numeric", "total": 2,
            "buckets": [{"lo": 0.0, "hi": 1.0, "count": 1, "distinct": 1}, {"hi": 2.0, "count": 1, "distinct": 1}],
        }]}), "stats.json: histograms[0].buckets[1]: malformed catalog (KeyError: 'lo')"),
        ("stats", json.dumps({"version": 1, "samples": [{
            "pattern_type": "edge_pattern", "probability": 1.0, "seed": 0, "population": 1,
            "members": [{"kind": "edge", "labels": [], "props": {}, "src": {"kind": "vertex", "labels": [], "props": {}}}],
        }]}), "stats.json: samples[0].members[0]: malformed catalog (KeyError: 'trg')"),
        ("stats", json.dumps({"version": 1, "histograms": [{
            "key": "k", "kind": "equi_depth", "domain": "string_prefix", "total": 1,
            "buckets": [{"count": 1, "distinct": 1}],
        }]}), "stats.json: histograms[0].buckets[0]: malformed catalog (KeyError: 'prefix')"),
        ("stats", json.dumps({"version": 1, "histograms": [{
            "key": "k", "kind": "equi_depth", "domain": "foo", "total": 1,
            "buckets": [{"count": 1, "distinct": 1}],
        }]}), "stats.json: histograms[0].domain: expected numeric or string_prefix, got 'foo'"),
        ("stats", md_catalog(grid={"99,0": 1}),
         "stats.json: md_histograms[0].grid['99,0']: expected a cell within the 2 axes, got (99, 0)"),
        ("stats", md_catalog(grid={"0,0,1": 1}),
         "stats.json: md_histograms[0].grid['0,0,1']: expected a cell within the 2 axes, got (0, 0, 1)"),
        ("stats", md_catalog(axes=[{"bounds": [0.0, 1.0], "distincts": [1]}]),
         "stats.json: md_histograms[0].axes: expected 2 axes, one per key, got [{"),
        ("stats", md_catalog(axes=[{"bounds": [0.0, 1.0, 2.0], "distincts": [1]}] * 2),
         "stats.json: md_histograms[0].axes[0].distincts: expected a count per bucket, got [1]"),
        ("stats", json.dumps({"version": 1, "synopses": [{"class": "cycle", "max_size": 2, "counts": {}}]}),
         "stats.json: synopses[0].class: expected edge or chain or source_star or target_star, got 'cycle'"),
        ("stats", json.dumps({"version": 1, "synopses": [{"class": "edge", "max_size": 0, "counts": {}}]}),
         "stats.json: synopses[0].max_size: expected a size >= 1, got 0"),
        ("stats", json.dumps({"version": 1, "char_sets": [{"entries": [], "max_entries": 10, "direction": "sideways"}]}),
         "stats.json: char_sets[0].direction: expected out or in, got 'sideways'"),
        ("stats", json.dumps({"version": 1, "basic": {"n_vertices": 3, "n_edges": 2, "n_ids": 5, "key_sel": {"k": 10**400}}}),
         "stats.json: basic.key_sel['k']: expected a count in [0, 5], got 1000"),
        ("stats", sample_catalog(pattern_type="foo"),
         "stats.json: samples[0].pattern_type: expected id or vertex or edge_pattern, got 'foo'"),
        ("stats", sample_catalog(probability=1.5),
         "stats.json: samples[0].probability: expected a probability in (0, 1], got 1.5"),
        ("stats", sample_catalog(probability=0),
         "stats.json: samples[0].probability: expected a probability in (0, 1], got 0"),
        ("stats", sample_catalog(members=[record("foo")]),
         "stats.json: samples[0].members[0].kind: expected vertex or edge, got 'foo'"),
        ("stats", sample_catalog("vertex", members=[record("vertex"), record("edge")]),
         "stats.json: samples[0].members[1].kind: expected vertex, got 'edge'"),
        ("stats", sample_catalog("edge_pattern", members=[record("vertex", src=record("vertex"), trg=record("edge"))]),
         "stats.json: samples[0].members[0].kind: expected edge, got 'vertex'"),
        ("stats", sample_catalog("edge_pattern", members=[record("edge", src=record("edge"), trg=record("vertex"))]),
         "stats.json: samples[0].members[0].src.kind: expected vertex, got 'edge'"),
        ("stats", None, "No such file or directory"),
        ("workload", "[oops", "workload.json: Expecting value"),
        ("workload", json.dumps([{"query": ONE_EDGE_DOC}]), "workload must be a JSON list of {id, query} objects"),
        ("query", json.dumps({"vertices": [{"id": "x", "props": [{"key": "k", "op": "=", "value": {"a": 1}}]}]}),
         "predicate value on 'x' is not a JSON scalar: {'a': 1}"),
        ("query", json.dumps({"vertices": [{"id": "x", "props": [{"key": "k", "op": "IN", "value": [[1]]}]}]}),
         "predicate value on 'x' is not a JSON scalar: [[1]]"),
        ("query", json.dumps({"vertices": [{"id": 5}, {"id": "a"}]}), "vertex id must be a string: 5"),
        ("query", json.dumps({"vertices": [{"id": 5}, {"id": 6}]}), "vertex id must be a string: 5"),
        ("query", json.dumps({"vertices": [{"id": ["x"]}]}), "vertex id must be a string: ['x']"),
        ("query", json.dumps({"vertices": [{"id": "x"}], "edges": [{"id": "f", "src": "x", "trg": {"x": 1}}]}),
         "src and trg of edge 'f' must be strings: ('x', {'x': 1})"),
        ("query", json.dumps({"vertices": [{"id": "x"}], "anyOf": [[{"id": {"a": 1}, "labels": ["p"]}]]}),
         "anyOf alternative id must be a string: {'a': 1}"),
        ("edges", '{"id": "e9", "src": "g1", "trg": "g3", "labels": "xy"}', "edges.jsonl:3: labels: expected list"),
        ("vertices", '{"id": "g9", "labels": 5}', "vertices.jsonl:3: labels: expected list, got 5"),
        ("vertices", '{"id": "g9", "props": "x"}', "vertices.jsonl:3: props: expected object, got 'x'"),
        ("vertices", '{"id": "g9", "props": [1]}', "vertices.jsonl:3: props: expected object, got [1]"),
        ("stats", NOT_UTF8, "stats.json: 'utf-8' codec can't decode byte 0xff"),
        ("vertices", NOT_UTF8, "vertices.jsonl: 'utf-8' codec can't decode byte 0xff"),
        ("query", NOT_UTF8, "q.json: 'utf-8' codec can't decode byte 0xff"),
        ("workload", NOT_UTF8, "workload.json: 'utf-8' codec can't decode byte 0xff"),
        ("configs", NOT_UTF8, "configs.txt: 'utf-8' codec can't decode byte 0xff"),
        ("configs", "ct=bounds; ct=condIndep(MoDi)\n", "config key given twice: 'ct'"),
    ],
    ids=["edge-to-missing-vertex", "graph-line-not-json", "catalog-not-json", "basic-without-key",
         "synopsis-without-key", "sample-member-without-src", "numeric-bucket-without-lo",
         "sample-member-without-trg", "prefix-bucket-without-prefix", "histogram-domain-unknown",
         "grid-cell-outside-axes", "grid-cell-of-three-indexes", "grid-axis-dropped", "grid-distincts-short",
         "synopsis-class-unknown", "synopsis-size-zero", "cs-direction-unknown", "key-count-past-ids",
         "sample-type-unknown", "sample-probability-above-one", "sample-probability-zero",
         "id-sample-member-kind-unknown", "vertex-sample-edge-member", "edge-pattern-sample-vertex-member",
         "edge-pattern-sample-edge-source",
         "catalog-missing",
         "workload-not-json", "workload-item-without-id",
         "query-value-object", "query-in-list-of-lists",
         "query-id-number", "query-ids-all-numbers", "query-id-list", "query-trg-object", "query-anyof-id-object",
         "edge-labels-string", "vertex-labels-number", "vertex-props-string", "vertex-props-list",
         "catalog-not-utf8", "graph-not-utf8", "query-not-utf8", "workload-not-utf8", "configs-not-utf8",
         "configs-key-repeated"],  # fmt: skip
)
def test_malformed_input_file_rejected(graph_dir, tmp_path, capsys, kind, text, message):
    """A malformed graph, catalog, query, workload or configs file, or a
    missing one, ends in one `cardest: error:` line and exit code 2."""
    files = {"query": tmp_path / "q.json", "workload": tmp_path / "workload.json",
             "configs": tmp_path / "configs.txt", "stats": tmp_path / "stats.json"}  # fmt: skip
    files["query"].write_text(json.dumps(ONE_EDGE_DOC), encoding="utf-8")
    files["workload"].write_text(json.dumps([{"id": "q", "query": ONE_EDGE_DOC}]), encoding="utf-8")
    files["configs"].write_text("ct=bounds\n", encoding="utf-8")
    data = text.encode("utf-8") if isinstance(text, str) else text
    if kind in ("edges", "vertices"):
        with open(graph_dir / f"{kind}.jsonl", "ab") as fh:
            fh.write(data + b"\n")
    elif data is not None:
        files[kind].write_bytes(data)
    argv = ["estimate", "--graph", str(graph_dir), "--query", str(files["query"])]
    if kind == "stats":
        argv += ["--stats", str(files["stats"])]
    if kind in ("workload", "configs"):
        argv = ["bench", "--graph", str(graph_dir), "--workload", str(files["workload"]),
                "--configs", str(files["configs"]), "--out", str(tmp_path / "out.csv")]  # fmt: skip
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cardest: error: ") and message in err
    assert err.count("\n") == 1


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

    @pytest.mark.parametrize("n", [0, -1])
    def test_subqueries_below_one_rejected(self, graph_dir, tmp_path, capsys, n):
        workload, configs = self.write_inputs(tmp_path)
        argv = ["bench", "--graph", str(graph_dir), "--workload", str(workload), "--configs", str(configs),
                "--out", str(tmp_path / "out.csv"), "--subqueries", str(n)]  # fmt: skip
        assert main(argv) == 2
        assert capsys.readouterr().err == f"cardest: error: --subqueries must be >= 1, got {n}\n"
        assert not (tmp_path / "out.csv").exists()

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
        # the child imports the cardest this process imported, installed or not
        src = os.path.dirname(os.path.dirname(cardest.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outputs = []
        for hash_seed, name in (("1", "a.csv"), ("12345", "b.csv")):
            out = tmp_path / name
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
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
