"""In-process tests for ``python -m repro.sanitizer``."""

import json

from repro.sanitizer.cli import APPS, main
from repro.service import job


def test_cli_clean_app_exits_zero(capsys):
    assert main(["stream"]) == 0
    out = capsys.readouterr().out
    assert "stream" in out and "clean" in out


def test_cli_all_apps_listed():
    """The CLI checks what the service can run: one app list, seven apps."""
    assert APPS is job.APPS
    assert APPS == ("matmul", "stream", "perlin", "nbody", "cholesky",
                    "jacobi", "spreduce")


def test_cli_cluster_run(capsys):
    assert main(["--nodes", "2", "nbody", "cholesky"]) == 0
    out = capsys.readouterr().out
    assert "nbody: clean" in out and "cholesky: clean" in out


def test_cli_fixtures_exit_zero_when_all_expected_found(capsys):
    assert main(["--fixtures"]) == 0
    out = capsys.readouterr().out
    assert "expected findings matched" in out
    assert "MISSED" not in out


def test_cli_json_output(capsys):
    assert main(["--fixtures", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"under-declared-write", "unused-inout",
                        "missing-taskwait"}
    kinds = {f["kind"] for f in doc["under-declared-write"]}
    assert "under-declared-write" in kinds
    for findings in doc.values():
        for f in findings:
            assert {"kind", "task", "obj", "detail", "where",
                    "count", "regions", "cost"} <= set(f)


def test_cli_unknown_app_errors():
    try:
        main(["not-an-app"])
    except SystemExit as e:
        assert "unknown app" in str(e)
    else:
        raise AssertionError("expected SystemExit")
