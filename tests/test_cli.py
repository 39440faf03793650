"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.data import TrainingDatabase
from repro.data.io import database_to_text, training_database_to_json


@pytest.fixture
def training_file(tmp_path, path_database):
    training = TrainingDatabase.from_examples(
        path_database, ["a"], ["b", "d"]
    )
    path = tmp_path / "train.json"
    path.write_text(training_database_to_json(training))
    return str(path)


@pytest.fixture
def evaluation_file(tmp_path):
    from repro.data import Database

    evaluation = Database.from_tuples(
        {
            "E": [("f", "g"), ("g", "h"), ("i", "j")],
            "eta": [("f",), ("g",), ("i",)],
        }
    )
    path = tmp_path / "eval.facts"
    path.write_text(database_to_text(evaluation))
    return str(path)


class TestSeparabilityCommand:
    def test_ghw_separable(self, training_file, capsys):
        code = main(["separability", training_file, "--language", "ghw"])
        assert code == 0
        assert "separable" in capsys.readouterr().out

    def test_cqm_one_atom_fails(self, training_file, capsys):
        code = main(
            ["separability", training_file, "--language", "cqm", "--m", "1"]
        )
        assert code == 1
        assert "NOT separable" in capsys.readouterr().out

    def test_cq_language(self, training_file):
        assert main(
            ["separability", training_file, "--language", "cq"]
        ) == 0


class TestClassifyCommand:
    def test_labels_printed(self, training_file, evaluation_file, capsys):
        code = main(
            [
                "classify",
                training_file,
                evaluation_file,
                "--language",
                "ghw",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "+f" in out
        assert "-g" in out
        assert "-i" in out

    def test_cq_classify(self, training_file, evaluation_file, capsys):
        code = main(
            [
                "classify",
                training_file,
                evaluation_file,
                "--language",
                "cq",
            ]
        )
        assert code == 0
        assert "+f" in capsys.readouterr().out

    def test_cqm_classify(self, training_file, evaluation_file, capsys):
        code = main(
            [
                "classify",
                training_file,
                evaluation_file,
                "--language",
                "cqm",
                "--m",
                "2",
            ]
        )
        assert code == 0
        assert "+f" in capsys.readouterr().out


class TestFeaturesCommand:
    def test_materializes(self, training_file, capsys):
        code = main(
            ["features", training_file, "--language", "cqm", "--m", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dimension" in out
        assert "q(x)" in out


class TestQbeCommand:
    def test_explainable(self, tmp_path, capsys):
        facts = tmp_path / "db.facts"
        facts.write_text("E(0, 1)\nE(1, 2)\nE(8, 9)\n")
        code = main(
            [
                "qbe",
                str(facts),
                "--positives",
                "0",
                "--negatives",
                "8",
                "--language",
                "cqm",
                "--m",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "explainable: True" in out
        assert "explanation:" in out

    def test_not_explainable(self, tmp_path, capsys):
        facts = tmp_path / "db.facts"
        facts.write_text("E(0, 1)\nE(1, 2)\nE(8, 9)\n")
        code = main(
            [
                "qbe",
                str(facts),
                "--positives",
                "8",
                "--negatives",
                "0",
                "--language",
                "cq",
            ]
        )
        assert code == 1
        assert "explainable: False" in capsys.readouterr().out

    def test_error_handling(self, tmp_path, capsys):
        facts = tmp_path / "db.facts"
        facts.write_text("E(0, 1)\n")
        code = main(
            [
                "qbe",
                str(facts),
                "--positives",
                "99",
                "--negatives",
                "0",
                "--language",
                "cq",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestWorkersFlag:
    def test_separability_with_workers(self, training_file, capsys):
        code = main(
            [
                "separability",
                training_file,
                "--language",
                "ghw",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        assert "separable" in capsys.readouterr().out

    def test_classify_with_workers_matches_serial(
        self, training_file, evaluation_file, capsys
    ):
        assert main(
            [
                "classify",
                training_file,
                evaluation_file,
                "--language",
                "cqm",
                "--m",
                "2",
            ]
        ) == 0
        serial = capsys.readouterr().out
        assert main(
            [
                "classify",
                training_file,
                evaluation_file,
                "--language",
                "cqm",
                "--m",
                "2",
                "--workers",
                "2",
            ]
        ) == 0
        assert capsys.readouterr().out == serial


@pytest.fixture
def model_file(training_file, tmp_path, capsys):
    """A model artifact exported by the train verb (CQ[2] on the path db)."""
    out = str(tmp_path / "model.json")
    code = main(
        ["train", training_file, "--language", "cqm", "--m", "2",
         "--out", out]
    )
    assert code == 0
    capsys.readouterr()  # swallow the train report
    return out


@pytest.fixture
def requests_file(tmp_path):
    import json

    from repro.data import Database
    from repro.data.io import facts_to_json

    evaluation = Database.from_tuples(
        {
            "E": [("f", "g"), ("g", "h"), ("i", "j")],
            "eta": [("f",), ("g",), ("i",)],
        }
    )
    lines = [
        json.dumps({"id": "r1", "facts": facts_to_json(evaluation)}),
        json.dumps({"facts": facts_to_json(evaluation)}),  # id defaults
    ]
    path = tmp_path / "requests.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestTrainCommand:
    def test_writes_a_loadable_artifact(self, training_file, tmp_path, capsys):
        out = str(tmp_path / "model.json")
        code = main(
            ["train", training_file, "--language", "cqm", "--m", "2",
             "--out", out]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "wrote" in printed
        assert "sha256:" in printed

        from repro.serve import ModelArtifact

        artifact = ModelArtifact.load(out)
        assert artifact.dimension >= 1

    def test_not_separable_writes_nothing(
        self, training_file, tmp_path, capsys
    ):
        out = str(tmp_path / "model.json")
        code = main(
            ["train", training_file, "--language", "cqm", "--m", "1",
             "--out", out]
        )
        assert code == 1
        assert "no artifact written" in capsys.readouterr().err
        import os

        assert not os.path.exists(out)

    def test_missing_training_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["train", str(tmp_path / "nope.json"), "--out",
             str(tmp_path / "model.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one line, no traceback


class TestPredictCommand:
    def _labels(self, out):
        import json

        payloads = [json.loads(line) for line in out.splitlines() if line]
        return {payload["id"]: payload.get("labels") for payload in payloads}

    def test_matches_refit_classify(
        self, training_file, evaluation_file, model_file, requests_file,
        capsys,
    ):
        assert main(
            ["classify", training_file, evaluation_file,
             "--language", "cqm", "--m", "2"]
        ) == 0
        refit = capsys.readouterr().out
        expected = {
            line[1:]: 1 if line[0] == "+" else -1
            for line in refit.splitlines()
            if line
        }

        assert main(
            ["predict", requests_file, "--model", model_file]
        ) == 0
        labels = self._labels(capsys.readouterr().out)
        assert labels["r1"] == expected
        assert labels[2] == expected  # the id-less line got its lineno

    def test_metrics_flag_prints_json_on_stderr(
        self, model_file, requests_file, capsys
    ):
        import json

        assert main(
            ["predict", requests_file, "--model", model_file, "--metrics"]
        ) == 0
        captured = capsys.readouterr()
        snapshot = json.loads(captured.err)
        assert snapshot["requests"] == 2
        assert "latency_ms" in snapshot
        assert snapshot["model"]["checksum"].startswith("sha256:")

    def test_missing_model_exits_2(self, requests_file, tmp_path, capsys):
        code = main(
            ["predict", requests_file, "--model",
             str(tmp_path / "nope.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read model artifact")
        assert err.count("\n") == 1

    def test_corrupt_model_exits_2(self, requests_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ this is not json")
        code = main(["predict", requests_file, "--model", str(bad)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_tampered_model_exits_2(
        self, model_file, requests_file, tmp_path, capsys
    ):
        import json

        payload = json.loads(Path(model_file).read_text())
        payload["classifier"]["threshold"] += 1.0  # keep the old checksum
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        code = main(["predict", requests_file, "--model", str(tampered)])
        assert code == 2
        assert "checksum mismatch" in capsys.readouterr().err

    def test_malformed_request_line_exits_2(
        self, model_file, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"facts": [}\n')
        code = main(
            ["predict", str(requests), "--model", model_file]
        )
        assert code == 2
        assert "request line 1" in capsys.readouterr().err

    def test_reads_stdin(self, model_file, requests_file, capsys, monkeypatch):
        import io

        payload = Path(requests_file).read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert main(["predict", "-", "--model", model_file]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_non_string_fact_argument_exits_2(
        self, model_file, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"id": "r1", "facts": [{"relation": "E", "arguments": ["f", 5]}]}\n'
        )
        code = main(["predict", str(requests), "--model", model_file])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: request line 1: ")
        assert err.count("\n") == 1  # one line, no traceback

    def test_bare_facts_list_line(
        self, model_file, requests_file, tmp_path, capsys
    ):
        import json

        first = json.loads(Path(requests_file).read_text().splitlines()[0])
        bare = tmp_path / "bare.jsonl"
        bare.write_text("\n" + json.dumps(first["facts"]) + "\n")
        assert main(["predict", str(bare), "--model", model_file]) == 0
        labels = self._labels(capsys.readouterr().out)
        assert main(["predict", requests_file, "--model", model_file]) == 0
        # A bare facts list is a request whose id is its line number.
        assert labels == {2: self._labels(capsys.readouterr().out)["r1"]}


class TestClassifyFromModel:
    def test_model_route_matches_refit(
        self, training_file, evaluation_file, model_file, capsys
    ):
        assert main(
            ["classify", training_file, evaluation_file,
             "--language", "cqm", "--m", "2"]
        ) == 0
        refit = capsys.readouterr().out
        assert main(
            ["classify", training_file, evaluation_file,
             "--model", model_file]
        ) == 0
        assert capsys.readouterr().out == refit

    def test_model_route_ignores_language_options(
        self, training_file, evaluation_file, model_file, capsys
    ):
        # m=1 would not even be separable on a refit; the artifact wins.
        assert main(
            ["classify", training_file, evaluation_file,
             "--model", model_file, "--language", "cqm", "--m", "1"]
        ) == 0
        assert "+f" in capsys.readouterr().out

    def test_missing_model_exits_2(
        self, training_file, evaluation_file, tmp_path, capsys
    ):
        code = main(
            ["classify", training_file, evaluation_file,
             "--model", str(tmp_path / "gone.json")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture
def ops_file(tmp_path):
    """A streaming op file: init, predict, a delta, predict again."""
    import json

    from repro.data import Database
    from repro.data.io import facts_to_json

    base = Database.from_tuples(
        {
            "E": [("f", "g"), ("g", "h"), ("i", "j")],
            "eta": [("f",), ("g",), ("i",)],
        }
    )
    ops = [
        {"op": "init", "facts": facts_to_json(base)},
        {"op": "predict", "id": "v0"},
        # Give i an outgoing 2-path: its label must flip to +1.
        {"op": "delta", "add": [{"relation": "E", "arguments": ["j", "k"]}]},
        {"op": "predict", "id": "v1"},
    ]
    path = tmp_path / "ops.jsonl"
    path.write_text("\n".join(json.dumps(op) for op in ops) + "\n")
    return str(path)


class TestPredictStream:
    def _outputs(self, out):
        import json

        return [json.loads(line) for line in out.splitlines()]

    def test_labels_track_the_deltas(self, model_file, ops_file, capsys):
        assert main(
            ["predict", ops_file, "--model", model_file, "--stream"]
        ) == 0
        v0, v1 = self._outputs(capsys.readouterr().out)
        assert v0["id"] == "v0" and v1["id"] == "v1"
        assert v0["labels"]["i"] == -1  # no 2-path from i yet
        assert v1["labels"]["i"] == 1  # the delta created one
        assert v0["labels"]["f"] == v1["labels"]["f"] == 1

    def test_stream_matches_stateless_predict(
        self, model_file, ops_file, requests_file, capsys
    ):
        assert main(
            ["predict", ops_file, "--model", model_file, "--stream"]
        ) == 0
        v0 = self._outputs(capsys.readouterr().out)[0]
        assert main(["predict", requests_file, "--model", model_file]) == 0
        stateless = self._outputs(capsys.readouterr().out)[0]
        assert v0["labels"] == stateless["labels"]

    def test_is_deterministic(self, model_file, ops_file, capsys):
        assert main(
            ["predict", ops_file, "--model", model_file, "--stream"]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            ["predict", ops_file, "--model", model_file, "--stream"]
        ) == 0
        assert capsys.readouterr().out == first

    def test_metrics_report_stream_stats(self, model_file, ops_file, capsys):
        import json

        assert main(
            ["predict", ops_file, "--model", model_file, "--stream",
             "--metrics"]
        ) == 0
        snapshot = json.loads(capsys.readouterr().err)
        assert snapshot["streams"] == 1
        assert snapshot["deltas"] == 1
        assert snapshot["requests"] == 2
        assert snapshot["stream"]["version"] == 1
        assert snapshot["stream"]["cache_retained"] > 0

    def test_reads_stdin(self, model_file, ops_file, capsys, monkeypatch):
        import io

        payload = Path(ops_file).read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert main(["predict", "-", "--model", model_file, "--stream"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_predict_before_init_exits_2(self, model_file, tmp_path, capsys):
        path = tmp_path / "ops.jsonl"
        path.write_text('{"op": "predict", "id": "r1"}\n')
        assert main(
            ["predict", str(path), "--model", model_file, "--stream"]
        ) == 2
        assert "before init" in capsys.readouterr().err

    def test_duplicate_init_exits_2(self, model_file, ops_file, tmp_path, capsys):
        lines = Path(ops_file).read_text().splitlines()
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join([lines[0], lines[0]]) + "\n")
        assert main(
            ["predict", str(path), "--model", model_file, "--stream"]
        ) == 2
        assert "duplicate init" in capsys.readouterr().err

    def test_unknown_op_exits_2(self, model_file, tmp_path, capsys):
        path = tmp_path / "ops.jsonl"
        path.write_text('{"op": "frobnicate"}\n')
        assert main(
            ["predict", str(path), "--model", model_file, "--stream"]
        ) == 2
        assert "unknown op" in capsys.readouterr().err

    def test_missing_op_key_exits_2(self, model_file, tmp_path, capsys):
        path = tmp_path / "ops.jsonl"
        path.write_text('{"id": "r1", "facts": []}\n')
        assert main(
            ["predict", str(path), "--model", model_file, "--stream"]
        ) == 2
        assert "op stream" in capsys.readouterr().err


class TestServeCommand:
    """Parser and spec-parsing coverage; live-socket behavior is exercised
    end-to-end in tests/gateway/test_server_e2e.py and the CI smoke step."""

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "model.json"])
        assert args.models == ["model.json"]
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.max_batch == 16
        assert args.batch_window_ms == 2.0
        assert args.max_in_flight == 256
        assert args.max_loaded is None
        assert args.on_error == "abstain"
        assert args.metrics_interval is None
        assert args.backend == "python"

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "model.json", "--workers", "2"],
            ["predict", "requests.jsonl", "--model", "m.json",
             "--workers", "2"],
        ],
        ids=["serve", "predict"],
    )
    def test_serving_takes_no_workers_flag(self, argv, capsys):
        from repro.cli import build_parser

        # Serving runs in one process; only training commands shard.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "--workers" in capsys.readouterr().err

    def test_parser_full_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "a=x.json", "b@v2=y.json",
                "--host", "0.0.0.0", "--port", "0",
                "--backend", "numpy", "--max-batch", "64",
                "--batch-window-ms", "5", "--max-in-flight", "32",
                "--max-loaded", "1", "--on-error", "fail",
                "--metrics-interval", "2.5", "--drain-timeout", "3",
            ]
        )
        assert args.models == ["a=x.json", "b@v2=y.json"]
        assert args.port == 0
        assert args.backend == "numpy"
        assert args.max_batch == 64
        assert args.metrics_interval == 2.5

    def test_model_spec_parsing(self):
        from repro.cli import _parse_model_specs

        assert _parse_model_specs(["m.json"]) == [("default", None, "m.json")]
        assert _parse_model_specs(["retail=m.json"]) == [
            ("retail", None, "m.json")
        ]
        assert _parse_model_specs(["retail@v2=m.json"]) == [
            ("retail", "v2", "m.json")
        ]

    def test_malformed_model_spec_exits_2(self, capsys):
        assert main(["serve", "=m.json"]) == 2
        assert "model spec" in capsys.readouterr().err
        assert main(["serve", "name@=m.json"]) == 2
        assert "model spec" in capsys.readouterr().err

    def test_missing_artifact_is_lazy_but_duplicate_spec_exits_2(self, capsys):
        # Registration is lazy (no file I/O), but duplicate name@version
        # pairs are rejected before the server ever binds a socket.
        assert main(["serve", "m@v1=a.json", "m@v1=b.json"]) == 2
        assert "already registered" in capsys.readouterr().err


class TestStoreIntegration:
    def test_train_requires_out_or_publish(self, training_file, capsys):
        code = main(
            ["train", training_file, "--language", "cqm", "--m", "2"]
        )
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_publish_requires_store(self, training_file, tmp_path, capsys):
        code = main(
            ["train", training_file, "--language", "cqm", "--m", "2",
             "--publish", "retail"]
        )
        assert code == 2
        assert "--store" in capsys.readouterr().err

    def test_malformed_publish_spec_exits_2(
        self, training_file, tmp_path, capsys
    ):
        code = main(
            ["train", training_file, "--language", "cqm", "--m", "2",
             "--store", str(tmp_path / "s"), "--publish", "@v1"]
        )
        assert code == 2
        assert "publish" in capsys.readouterr().err

    def test_train_publish_predict_warm_round_trip(
        self, training_file, requests_file, tmp_path, capsys
    ):
        import json

        root = str(tmp_path / "wstore")
        code = main(
            ["train", training_file, "--language", "cqm", "--m", "2",
             "--store", root, "--publish", "pathmodel"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "published pathmodel@1" in out

        model_out = str(tmp_path / "model.json")
        assert main(
            ["train", training_file, "--language", "cqm", "--m", "2",
             "--out", model_out]
        ) == 0
        capsys.readouterr()

        # Run one fills the store's memo with every feature answer.
        assert main(
            ["predict", requests_file, "--model", model_out,
             "--store", root, "--metrics"]
        ) == 0
        first = capsys.readouterr()
        first_metrics = json.loads(first.err)
        # Run two answers from the store: memo hits and no evaluation.
        assert main(
            ["predict", requests_file, "--model", model_out,
             "--store", root, "--metrics"]
        ) == 0
        second = capsys.readouterr()
        second_metrics = json.loads(second.err)
        assert second.out == first.out  # bit-identical predictions
        engine = second_metrics["engine"]
        assert engine["store"]["memo_hits"] > 0
        assert engine["hom_checks"] == 0
        assert engine["backtrack_nodes"] == 0
        assert engine["vectorized_sweeps"] == 0
        assert main(["predict", requests_file, "--model", model_out]) == 0
        assert capsys.readouterr().out == first.out  # same as store-less
        assert not (tmp_path / "wstore" / "objects" / "plan").exists()

    def test_store_ls_gc_verify_rm(
        self, training_file, requests_file, tmp_path, capsys
    ):
        root = str(tmp_path / "wstore")
        model_out = str(tmp_path / "model.json")
        assert main(
            ["train", training_file, "--language", "cqm", "--m", "2",
             "--store", root, "--publish", "pathmodel", "--out", model_out]
        ) == 0
        # Train publishes only the model; a predict run adds the answers.
        assert main(
            ["predict", requests_file, "--model", model_out,
             "--store", root]
        ) == 0
        capsys.readouterr()

        assert main(["store", "ls", root]) == 0
        listing = capsys.readouterr().out
        assert "# model pathmodel: versions 1 (default 1)" in listing
        assert "model   " in listing
        entry_lines = [
            line for line in listing.splitlines()
            if line and not line.startswith("#")
        ]
        assert entry_lines

        assert main(["store", "verify", root]) == 0
        assert "0 quarantined" in capsys.readouterr().out

        kind, digest = entry_lines[0].split()[:2]
        assert main(["store", "rm", root, kind, digest]) == 0
        capsys.readouterr()
        assert main(["store", "rm", root, kind, digest]) == 2
        assert f"no {kind} entry" in capsys.readouterr().err

        assert main(["store", "gc", root, "--max-entries", "1"]) == 0
        report = capsys.readouterr().out
        assert "kept 1" in report
        assert main(["store", "ls", root]) == 0
        assert "# 1 entries" in capsys.readouterr().out

    def test_store_verify_flags_tampering(
        self, training_file, tmp_path, capsys
    ):
        root = str(tmp_path / "wstore")
        assert main(
            ["train", training_file, "--language", "cqm", "--m", "2",
             "--store", root, "--publish", "pathmodel"]
        ) == 0
        capsys.readouterr()
        import os

        objects = os.path.join(root, "objects", "model")
        shard = os.listdir(objects)[0]
        name = os.listdir(os.path.join(objects, shard))[0]
        with open(os.path.join(objects, shard, name), "a") as handle:
            handle.write("tamper")
        assert main(["store", "verify", root]) == 1
        out = capsys.readouterr().out
        assert "1 quarantined" in out

    def test_serve_requires_models_or_store(self, capsys):
        assert main(["serve"]) == 2
        assert "store" in capsys.readouterr().err

    def test_serve_empty_store_exits_2(self, tmp_path, capsys):
        from repro.store import ContentStore

        root = str(tmp_path / "empty")
        ContentStore(root)
        assert main(["serve", "--store", root]) == 2
        assert "no published models" in capsys.readouterr().err
