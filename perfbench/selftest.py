#!/usr/bin/env python3
"""Fast self-test of the benchmark, at toy sizes (about a minute).

    python3 perfbench/selftest.py

Checks that:

* every workload, untraced and traced, emits exactly the metrics named in
  BENCHMARK.json, each printed with its unit and direction, in a result
  line of the agreed shape;
* the correctness gate fires (exit 1, ``"correct": false``) on a forced
  bad verdict of each in-process harness and on repeats that disagree;
* a traced run whose profiler-counted function was renamed fails (exit 2)
  without printing a result, instead of reading the metric as 0;
* in a directory holding only BENCHMARK.json and the benchmark, the
  command fails without printing a result.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench_workloads as bw  # noqa: E402
import run  # noqa: E402


def toy_command(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_emission(spec):
    for workload in bw.WORKLOADS:
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            done = toy_command(workload, trace)
            lines = done.stdout.strip().splitlines()
            where = "%s trace=%d" % (workload, trace)
            assert done.returncode == 0, (where, done.stdout, done.stderr)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, where
            assert result["correct"] is True, where
            assert result["attempted"] >= 1, where
            assert set(result["metrics"]) == {m["name"] for m in metrics}, \
                where
            for metric in metrics:
                emitted = result["metrics"][metric["name"]]
                assert emitted["unit"] == metric["unit"], (where, metric)
                assert isinstance(emitted["value"], (int, float)), where
                line = next(text for text in lines
                            if text.split()[:1] == [metric["name"]])
                assert metric["unit"] in line.split(), (where, line)
                assert "(%s is better)" % metric["better"] in line, \
                    (where, line)
            assert any(text.startswith("fingerprint ") for text in lines)
            print("ok  %-15s trace=%d  %d metrics"
                  % (workload, trace, len(metrics)), flush=True)


@contextlib.contextmanager
def patched(name, replacement):
    original = getattr(bw, name)
    setattr(bw, name, replacement)
    try:
        yield
    finally:
        setattr(bw, name, original)


def gate_fires(workload):
    """main() on a toy run must exit 1 and print ``"correct": false``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seconds", "0",
                         "--trace", "0", "--scale", "toy"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    return code == 1 and result["correct"] is False


def check_gate():
    real_validation = bw.run_validation_experiment

    def bad_verdict(*args, **kwargs):
        result = real_validation(*args, **kwargs)
        result.passed = False
        result.problems = ["forced bad verdict"]
        return result

    with patched("run_validation_experiment", bad_verdict):
        assert gate_fires("validate-8n"), "validate gate did not fire"

    real_recovery = bw.run_recovery_scalability

    def lost_node(*args, **kwargs):
        report = real_recovery(*args, **kwargs)
        report.available_nodes = set(sorted(report.available_nodes)[1:])
        return report

    with patched("run_recovery_scalability", lost_node):
        assert gate_fires("recover-64n"), "recover gate did not fire"

    calls = []

    def drifting(*args, **kwargs):
        calls.append(None)
        return real_validation(*args, **kwargs, fill_fraction=0.3
                               if len(calls) % 2 else 0.6)

    with patched("run_validation_experiment", drifting):
        assert gate_fires("validate-8n"), "repeat gate did not fire"
    print("ok  correctness gate fires on bad verdicts and drifting repeats")


def check_renamed_function():
    from repro.interconnect.router import Router
    scan = Router._scan_once
    original = scan.__code__
    scan.__code__ = original.replace(co_name="_scan_renamed")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "validate-8n", "--seconds", "0",
                             "--trace", "1", "--scale", "toy"])
    finally:
        scan.__code__ = original
    assert code == 2, code
    assert '"correct"' not in out.getvalue(), out.getvalue()
    print("ok  a renamed profiler-counted function fails the traced run")


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = toy_command("validate-8n", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    print("ok  without the program the command fails and prints no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)
    check_emission(spec)
    check_gate()
    check_renamed_function()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
