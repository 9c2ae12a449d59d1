"""CLI: the dataset -> train -> evaluate round trip."""

import numpy as np
import pytest

from repro.cli import main


def test_dataset_and_info(tmp_path, capsys):
    path = str(tmp_path / "g.npz")
    assert main(["dataset", "amazon-sim", path, "--scale", "0.15", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "n_vertices" in out
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "n_edges" in out


def test_train_and_evaluate_roundtrip(tmp_path, capsys):
    ds = str(tmp_path / "g.npz")
    emb = str(tmp_path / "emb.npz")
    main(["dataset", "amazon-sim", ds, "--scale", "0.15"])
    capsys.readouterr()
    code = main(
        ["train", "deepwalk", ds, emb, "--dim", "16", "--epochs", "1",
         "--holdout", "0.2"]
    )
    assert code == 0
    assert "16 embeddings" in capsys.readouterr().out
    code = main(["evaluate", emb, ds, "--holdout", "0.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ROC-AUC=" in out
    roc = float(out.split("ROC-AUC=")[1].split("%")[0])
    assert roc > 60.0  # trained on the same holdout split -> real signal


def test_train_unknown_model(tmp_path, capsys):
    ds = str(tmp_path / "g.npz")
    main(["dataset", "amazon-sim", ds, "--scale", "0.15"])
    assert main(["train", "bert", ds, str(tmp_path / "e.npz")]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_evaluate_shape_mismatch(tmp_path, capsys):
    ds = str(tmp_path / "g.npz")
    emb = str(tmp_path / "e.npz")
    main(["dataset", "amazon-sim", ds, "--scale", "0.15"])
    np.savez_compressed(emb, embeddings=np.zeros((3, 4)))
    assert main(["evaluate", emb, ds]) == 2


def test_dataset_error_reported(tmp_path, capsys):
    assert main(["dataset", "imaginary", str(tmp_path / "x.npz")]) == 1
    assert "error:" in capsys.readouterr().err


def test_module_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "dataset" in proc.stdout


def test_node_classification_task(small_amazon):
    from repro.errors import ReproError
    from repro.tasks import evaluate_node_classification

    # Labels = community (feature argmax); planted one-hot embeddings of the
    # community must classify perfectly.
    labels = small_amazon.vertex_features[:, :6].argmax(axis=1)
    onehot = np.zeros((small_amazon.n_vertices, 6))
    onehot[np.arange(small_amazon.n_vertices), labels] = 1.0
    micro, macro = evaluate_node_classification(onehot, labels, seed=0)
    assert micro > 95.0 and macro > 95.0
    rng = np.random.default_rng(0)
    micro_r, _ = evaluate_node_classification(
        rng.normal(size=(small_amazon.n_vertices, 6)), labels, seed=0
    )
    assert micro_r < micro


def test_node_classification_validations():
    from repro.errors import ReproError
    from repro.tasks import evaluate_node_classification

    with pytest.raises(ReproError):
        evaluate_node_classification(np.zeros((4, 2)), np.array([0, 1, 0]))
    with pytest.raises(ReproError):
        evaluate_node_classification(
            np.zeros((4, 2)), np.zeros(4, dtype=int)
        )  # single class
    with pytest.raises(ReproError):
        evaluate_node_classification(
            np.zeros((4, 2)), np.array([0, 1, 0, 1]), train_fraction=1.5
        )


def test_runtime_demo_prints_metrics_and_ledger(capsys):
    code = main(
        ["runtime-demo", "--scale", "0.1", "--steps", "2", "--workers", "3",
         "--drop-rate", "0.1", "--seed", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "runtime-demo workload" in out
    assert "runtime metrics" in out
    assert "rpc.completed" in out
    assert "pipeline.neighborhood_us" in out
    assert "cost ledger" in out
    assert "remote_rpc" in out and "TOTAL" in out


def test_fault_matrix_sweep(capsys):
    code = main(
        ["fault-matrix", "--scale", "0.1", "--workers", "3",
         "--drop-rates", "0.0", "0.2", "--failed-workers", "0",
         "--policies", "none", "lru", "--batches", "1",
         "--batch-size", "32", "--seed", "7"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fault matrix" in out
    assert "lru" in out and "none" in out
    code = main(["fault-matrix", "--scale", "0.1", "--policies", "bogus"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_trace_writes_perfetto_loadable_json(tmp_path, capsys):
    import json

    from tests.format_checkers import check_chrome_trace

    out_path = str(tmp_path / "trace.json")
    code = main(
        ["trace", "--scale", "0.1", "--steps", "2", "--workers", "3",
         "--seed", "0", "--output", out_path]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "trace events" in out and "ledger rows" in out
    assert "pipeline.sample" in out  # the rendered span tree
    with open(out_path, encoding="utf-8") as f:
        payload = json.load(f)
    assert check_chrome_trace(payload) == []
    assert payload["otherData"]["n_traces"] == 2
    names = {ev["name"] for ev in payload["traceEvents"]}
    assert {"pipeline.sample", "store.resolve_read", "rpc.execute"} <= names


def test_trace_is_deterministic_across_invocations(tmp_path):
    paths = [str(tmp_path / f"t{i}.json") for i in range(2)]
    for path in paths:
        assert main(
            ["trace", "--scale", "0.1", "--steps", "2", "--seed", "5",
             "--output", path]
        ) == 0
    with open(paths[0], encoding="utf-8") as a, open(paths[1], encoding="utf-8") as b:
        assert a.read() == b.read()


def test_metrics_report_emits_valid_prometheus_text(tmp_path, capsys):
    from tests.format_checkers import check_prometheus_text

    out_path = str(tmp_path / "metrics.prom")
    code = main(
        ["metrics-report", "--scale", "0.1", "--steps", "2", "--workers", "3",
         "--drop-rate", "0.1", "--seed", "0", "--output", out_path]
    )
    assert code == 0
    assert "samples in Prometheus text format" in capsys.readouterr().out
    with open(out_path, encoding="utf-8") as f:
        text = f.read()
    assert check_prometheus_text(text) == []
    assert "# TYPE rpc_completed counter" in text
    assert 'server_served{part=' in text
    # Without --output the exposition goes to stdout.
    assert main(["metrics-report", "--scale", "0.1", "--steps", "1"]) == 0
    stdout = capsys.readouterr().out
    assert check_prometheus_text(stdout) == []


def test_placement_bench_table_and_headline(capsys):
    code = main(
        ["placement-bench", "--phases", "1", "--requests", "400",
         "--scale", "0.2", "--seed", "7"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "placement-bench:" in out
    assert "remote RPCs" in out
    assert "vertices migrated" in out
    assert "headline:" in out


def test_placement_bench_json_contract(capsys):
    import json

    from tests.format_checkers import check_experiment_payload

    code = main(
        ["placement-bench", "--phases", "1", "--requests", "400", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert check_experiment_payload(payload) == []
    labels = [r["label"] for r in payload["records"]]
    assert "adaptive placement (controller on)" in labels
