"""Tests for the command-line front-end."""

import pytest

from repro.cli import load_tree_from_directory, main
from repro.errors import ReproError

ENTRY_S = """
.global syscall_entry
syscall_entry:
    cmpi r0, 1
    jge bad_sys
    cmpi r0, 0
    jl bad_sys
    push r3
    push r2
    push r1
    movi r4, 4
    mul r0, r4
    lea r4, sys_call_table
    add r4, r0
    loadr r4, r4, 0
    callr r4
    addi sp, 12
    ret
bad_sys:
    movi r0, -38
    ret
.section .data
sys_call_table:
    .word sys_ping
"""

PING_C = """
int ping_count;

int sys_ping(int a, int b, int c) {
    ping_count++;
    return 41;
}
"""

PATCH = """--- kernel/ping.c
+++ kernel/ping.c
@@ -3,5 +3,5 @@

 int sys_ping(int a, int b, int c) {
     ping_count++;
-    return 41;
+    return 42;
 }
"""


@pytest.fixture
def tree_dir(tmp_path):
    (tmp_path / "arch").mkdir()
    (tmp_path / "kernel").mkdir()
    (tmp_path / "arch" / "entry.s").write_text(ENTRY_S)
    (tmp_path / "kernel" / "ping.c").write_text(PING_C)
    (tmp_path / "README").write_text("not source")
    return tmp_path


def test_load_tree_from_directory(tree_dir):
    tree = load_tree_from_directory(str(tree_dir), version="v1")
    assert sorted(tree.files) == ["arch/entry.s", "kernel/ping.c"]
    assert tree.version == "v1"


def test_load_tree_empty_directory_raises(tmp_path):
    with pytest.raises(ReproError):
        load_tree_from_directory(str(tmp_path))


def test_create_and_inspect(tree_dir, tmp_path, capsys):
    patch_file = tmp_path / "fix.patch"
    patch_file.write_text(PATCH)
    out = tmp_path / "update.kspl"

    rc = main(["create", "--patch", str(patch_file),
               "--tree", str(tree_dir), "-o", str(out),
               "--version", "cli-test", "--description", "bump ping"])
    assert rc == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "update pack written" in captured.out

    rc = main(["inspect", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "cli-test" in captured.out
    assert "sys_ping" in captured.out
    assert "bump ping" in captured.out


def test_objdump_command(tree_dir, tmp_path, capsys):
    patch_file = tmp_path / "fix.patch"
    patch_file.write_text(PATCH)
    out = tmp_path / "update.kspl"
    main(["create", "--patch", str(patch_file), "--tree", str(tree_dir),
          "-o", str(out)])
    capsys.readouterr()

    rc = main(["objdump", str(out)])
    assert rc == 0
    dumped = capsys.readouterr().out
    assert "section .text.sys_ping" in dumped
    assert "movi" in dumped

    rc = main(["objdump", str(out), "--helper"])
    assert rc == 0
    helper_dump = capsys.readouterr().out
    assert "section .bss.ping_count" in helper_dump


def test_demo_applies_to_running_kernel(tree_dir, tmp_path, capsys):
    patch_file = tmp_path / "fix.patch"
    patch_file.write_text(PATCH)
    rc = main(["demo", "--patch", str(patch_file),
               "--tree", str(tree_dir), "--version", "cli-demo"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "Done!" in captured.out
    assert "stop_machine window" in captured.out


def test_evaluate_subset(capsys):
    rc = main(["evaluate", "--quick", "--limit", "2"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "2/2 updates succeeded" in captured.out


def test_analyze_safe_cve_exits_zero(capsys):
    rc = main(["analyze", "CVE-2006-2451"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: safe" in out
    assert "sys_prctl" in out


def test_analyze_needs_hooks_cve_exits_two(capsys):
    rc = main(["analyze", "CVE-2007-3851"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "verdict: needs-hooks" in out
    assert "boot path" in out


def test_analyze_unknown_cve_errors(capsys):
    rc = main(["analyze", "CVE-0000-0000"])
    assert rc == 2
    assert "unknown CVE" in capsys.readouterr().err


def test_analyze_json_is_deterministic_and_sorted(capsys):
    import json

    rc = main(["analyze", "CVE-2007-3851", "--json"])
    assert rc == 2
    first = capsys.readouterr().out
    data = json.loads(first)
    assert data["verdict"] == "needs-hooks"
    assert data["exit_code"] == 2
    assert list(data) == sorted(data)

    rc = main(["analyze", "CVE-2007-3851", "--json"])
    assert rc == 2
    assert capsys.readouterr().out == first


def test_trace_json_is_deterministic(tmp_path, monkeypatch, capsys):
    import json

    from repro.pipeline import Trace, save_run
    from repro.pipeline.store import TRACE_FILE_ENV

    monkeypatch.setenv(TRACE_FILE_ENV, str(tmp_path / "trace.json"))
    trace = Trace(label="CVE-2008-0001")
    with trace.stage("create"):
        with trace.stage("analyze") as rep:
            rep.artifacts["verdict"] = "safe"
    save_run([trace], meta={"command": "evaluate"})

    assert main(["trace", "--json", "--scrub"]) == 0
    first = capsys.readouterr().out
    assert main(["trace", "--json", "--scrub"]) == 0
    assert capsys.readouterr().out == first

    data = json.loads(first)
    assert data["meta"]["command"] == "evaluate"
    assert data["traces"][0]["label"] == "CVE-2008-0001"

    # --cve filters the JSON output as well
    assert main(["trace", "--json", "--cve", "CVE-2008-0001"]) == 0
    assert json.loads(capsys.readouterr().out)["traces"][0]["label"] == \
        "CVE-2008-0001"
    assert main(["trace", "--json", "--cve", "CVE-none"]) == 2
    capsys.readouterr()


def test_bad_patch_reports_error(tree_dir, tmp_path, capsys):
    patch_file = tmp_path / "bad.patch"
    patch_file.write_text("--- kernel/ping.c\n+++ kernel/ping.c\n"
                          "@@ -1,1 +1,1 @@\n-nonexistent line\n+other\n")
    rc = main(["create", "--patch", str(patch_file),
               "--tree", str(tree_dir)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_patch_with_octal_literal_reports_error(tree_dir, tmp_path,
                                               capsys):
    patch_file = tmp_path / "octal.patch"
    patch_file.write_text(PATCH.replace("+    return 42;",
                                        "+    return 0123;"))
    rc = main(["create", "--patch", str(patch_file),
               "--tree", str(tree_dir)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error:" in err and "0123" in err
    assert "Traceback" not in err


def test_missing_patch_file_is_user_error(tree_dir, tmp_path, capsys):
    rc = main(["create", "--patch", str(tmp_path / "no-such.patch"),
               "--tree", str(tree_dir)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == "repro %s" % __version__


def test_fleet_rollout_status_rollback_cycle(tmp_path, monkeypatch,
                                             capsys):
    import json

    from repro.fleet.model import ROLLOUT_FILE_ENV
    from repro.pipeline.store import TRACE_FILE_ENV

    monkeypatch.setenv(ROLLOUT_FILE_ENV, str(tmp_path / "rollout.json"))
    monkeypatch.setenv(TRACE_FILE_ENV, str(tmp_path / "trace.json"))

    rc = main(["fleet", "rollout", "--cve", "CVE-2006-2451",
               "--size", "2", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outcome"] == "complete"
    assert report["updated_members"] == [0, 1]

    assert main(["fleet", "status"]) == 0
    assert "complete" in capsys.readouterr().out

    assert main(["fleet", "rollback"]) == 0
    assert "rolled back 2 members (LIFO): member-1, member-0" \
        in capsys.readouterr().out

    assert main(["fleet", "status", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "rolled-back"


def test_fleet_rollout_halts_with_failure_exit_code(tmp_path,
                                                    monkeypatch, capsys):
    from repro.fleet.model import ROLLOUT_FILE_ENV
    from repro.pipeline.store import TRACE_FILE_ENV

    monkeypatch.setenv(ROLLOUT_FILE_ENV, str(tmp_path / "rollout.json"))
    monkeypatch.setenv(TRACE_FILE_ENV, str(tmp_path / "trace.json"))

    rc = main(["fleet", "rollout", "--cve", "CVE-2006-2451",
               "--size", "3", "--inject-oops", "1:1"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "halted" in out and "oops" in out


def test_fleet_bad_arguments_are_usage_errors(tmp_path, monkeypatch,
                                              capsys):
    from repro.fleet.model import ROLLOUT_FILE_ENV

    assert main(["fleet", "rollout", "--cve", "CVE-0000-0000"]) == 2
    assert "unknown CVE" in capsys.readouterr().err
    assert main(["fleet", "rollout", "--cve", "CVE-2006-2451",
                 "--size", "2", "--canary", "9"]) == 2
    assert "canary" in capsys.readouterr().err
    monkeypatch.setenv(ROLLOUT_FILE_ENV, str(tmp_path / "missing.json"))
    assert main(["fleet", "status"]) == 2
    assert "no rollout recorded" in capsys.readouterr().err


def test_fleet_status_corrupt_persistence_is_usage_error(
        tmp_path, monkeypatch, capsys):
    """A mangled persistence file must produce the friendly "no rollout
    recorded" message with exit code 2, never a traceback."""
    from repro.fleet.model import ROLLOUT_FILE_ENV

    path = tmp_path / "rollout.json"
    monkeypatch.setenv(ROLLOUT_FILE_ENV, str(path))

    path.write_text("{ this is not json")
    assert main(["fleet", "status"]) == 2
    assert "no rollout recorded" in capsys.readouterr().err

    path.write_text('{"valid": "json", "wrong": "shape"}')
    assert main(["fleet", "status"]) == 2
    err = capsys.readouterr().err
    assert "no rollout recorded" in err

    assert main(["fleet", "rollback"]) == 2
    assert "no rollout recorded" in capsys.readouterr().err


def test_worker_without_a_secret_is_a_usage_error():
    """`repro worker` with neither --secret nor KSPLICE_WORKER_SECRET
    refuses to start: exit 2 and one error line, not a traceback."""
    import os
    import subprocess
    import sys

    env = {k: v for k, v in os.environ.items()
           if k != "KSPLICE_WORKER_SECRET"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..",
                                     "src")
    child = subprocess.run(
        [sys.executable, "-m", "repro.cli", "worker", "--listen",
         "127.0.0.1:0"],
        capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 2
    assert child.stderr.startswith("error:")
    assert "--secret" in child.stderr
    assert "Traceback" not in child.stderr
