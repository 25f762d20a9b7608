#!/usr/bin/env python3
"""Self-test of the benchmark harness. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that the harness catches what it claims to catch:
  1. a wrong report injected into xgcc's output, batch or daemon, makes
     ops fail, so ops_failed_ratio > 0, while the same run without the
     injection has no failures;
  2. a report the real binary makes for a function with no planted bug
     fails the ground-truth check even when the oracle agrees with it;
  3. a traced run's layer spans cover at least 95% of every traced op's
     wall time, and an op whose spans cover less is flagged.
Exits 0 when every check holds. Takes about a minute.
"""

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def fresh_run(workload, seconds, tag):
    work = os.path.abspath(os.path.join(bench.BENCH_DIR, "_work", "selftest-%s-%d" % (tag, os.getpid())))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return bench.Run(workload, 21, seconds, work)


def finish(run):
    run.close()
    shutil.rmtree(run.work, ignore_errors=True)
    return len(run.failures) / max(1, run.attempted)


def inject(diagnostics):
    """The output with one extra report naming an unplanted function."""
    reports = json.loads(diagnostics)
    fake = dict(reports[0], function="injected_fn", line=reports[0]["line"] + 1)
    return json.dumps(reports + [fake]).encode()


def check_injection():
    # control: an honest batch run has no failures
    run = fresh_run("batch_j1", 0, "control")
    bench.end_to_end(run)
    assert finish(run) == 0, run.failures

    real_run_process = bench.run_process

    def tampered(argv, cwd, env, scratch):
        p = real_run_process(argv, cwd, env, scratch)
        if p.code in (0, 1) and p.out.startswith(b"["):
            p.out = inject(p.out)
        return p

    run = fresh_run("batch_j1", 0, "batch")
    bench.run_process = tampered
    try:
        bench.end_to_end(run)
    finally:
        bench.run_process = real_run_process
    ratio = finish(run)
    assert ratio > 0, "an injected report went unnoticed (batch)"
    print("selftest: batch injection -> ops_failed_ratio %.2f" % ratio)

    real_request = bench.Daemon.request

    def tampered_request(self, obj):
        reply = real_request(self, obj)
        if reply.get("event") == "diagnostics":
            reply["diagnostics"] = inject(reply["diagnostics"].encode()).decode()
        return reply

    run = fresh_run("daemon_edits", 0, "daemon")
    bench.Daemon.request = tampered_request
    try:
        bench.end_to_end(run)
    finally:
        bench.Daemon.request = real_request
    ratio = finish(run)
    assert ratio > 0, "an injected report went unnoticed (daemon)"
    print("selftest: daemon injection -> ops_failed_ratio %.2f" % ratio)


def check_unplanted_bug():
    run = fresh_run("cache_edits", 0, "unplanted")
    c = run.corpus
    bad = c.original + b"\nint selftest_unplanted(int *p) { kfree(p); return *p; }\n"
    c.set_text(bad)
    p = bench.run_process(c.check_argv(1), c.dir, run.env, run.scratch)
    c.set_text(c.original)
    run.oracle.by_text[bad] = p.out  # the oracle agrees; ground truth must not
    assert not run.check_proc("unplanted", p, bad), "an unplanted report passed"
    assert any("selftest_unplanted" in f for f in run.failures), run.failures
    finish(run)
    print("selftest: report outside the planted set is a failure")


def check_trace_coverage():
    # a synthetic op whose one child span covers 90% of it
    path = os.path.abspath(os.path.join(bench.BENCH_DIR, "_work", "selftest-cov.json"))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    ev = lambda name, op, sid, parent, ts, dur: {
        "name": name, "ph": "X", "ts": ts, "dur": dur,
        "args": {"id": sid, "parent": parent, "op": op, "alloc_bytes": 0.0,
                 "kind": "batch_j1", "phase": "main", "digest": ""}}
    bench.write(path, json.dumps({"traceEvents": [
        ev("op:batch_j1", 1, 1, 0, 0.0, 100.0), ev("engine.run", 1, 2, 1, 5.0, 90.0)]}))
    tr = bench.Trace(path)
    os.remove(path)
    assert abs(tr.coverage(tr.ops[1]) - 0.9) < 1e-9

    run = fresh_run("cache_edits", 0, "trace")
    out = os.path.join(run.work, "trace-selftest.json")
    metrics, detail, _ = bench.per_layer(run, out)
    failures = list(run.failures)
    finish(run)
    assert not failures, failures
    cov = metrics["trace.coverage_min"][0]
    assert cov >= 0.95, "layer spans cover only %.3f of an op" % cov
    for layer in ("cfront", "cfg", "engine", "pool", "cache", "report", "serve"):
        assert layer in detail["layers"], "no %s spans" % layer
    print("selftest: traced ops covered >= %.3f by layer spans" % cov)


def main():
    bench.require_checkout()
    bench.build()
    check_trace_coverage()
    check_unplanted_bug()
    check_injection()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
