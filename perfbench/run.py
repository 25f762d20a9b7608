#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the xgcc CLI and daemon.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch_j1 --seed 21 --seconds 15 --trace 0

It builds xgcc and the two helper programs from source, generates a seeded
corpus with lib/workload, and drives the real xgcc binary as one closed-loop
client: the next op goes out only after the previous reply arrives. Every
op's output is checked against Gen's ground truth and against an uncached
`-j 1 check --format json` of the same text. The last stdout line is one JSON
object; --trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones
from an in-process traced replay (perfbench/tool.ml). perfbench/README.md
explains the workloads and how to read the numbers.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = "perfbench"
BUILD_DIR = ".bench_build"
XGCC = os.path.join(BUILD_DIR, "default", "bin", "xgcc.exe")
TOOL = os.path.join(BUILD_DIR, "default", BENCH_DIR, "tool.exe")
CALIB = os.path.join(BUILD_DIR, "default", BENCH_DIR, "calib.exe")

# All 14 built-in checkers, in the order the CLI composes them.
CHECKERS = ["free", "lock", "rlock", "null", "intr", "security", "leak", "range",
            "strictfree", "lockstat", "fmt", "secpath", "errpath", "pathkill"]

# The frozen calibration kernel (perfbench/calib.ml): ROUNDS rounds print
# CHECKSUM. CALIB_REF_S is the kernel's median wall time on the host the
# benchmark was calibrated on (2-core x86-64 container, OCaml 5.1.1); a
# normalised time is raw * CALIB_REF_S / (the kernel time measured next to
# it), i.e. the op's time on that host in the state it was in when
# calibrated. Changing any of the three orphans every recorded figure.
CALIB_ROUNDS = 20
CALIB_CHECKSUM = "16750592"
CALIB_REF_S = 0.150

BUG_RATE = 0.3
SETUP_REPS = 3

# name -> (Gen corpus kind, files, functions per file, -j, op shape,
#          files in the traced run's probe slice; None = the whole corpus)
# The probe slice keeps a traced run of the big batch corpora short: on
# them a -j 2 run, a cache cycle and a daemon session would take minutes.
WORKLOADS = {
    "batch_j1": ("files", 24, 40, 1, "batch", 4),
    "batch_j2": ("linked", 16, 30, 2, "batch", 4),
    "cache_edits": ("files", 12, 20, 1, "cache", None),
    "daemon_edits": ("files", 12, 20, 1, "serve", None),
}

EDIT_KINDS = ["summary_edit", "neutral_edit", "comment_edit", "revert"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        v = xs[0] if xs else 0.0
        return [v, v, v]
    return statistics.quantiles(xs, n=4)


def tail_percentile(xs):
    """The highest percentile with at least ten samples beyond it:
    (percentile, value, samples beyond), or None below 11 samples."""
    n = len(xs)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    s = sorted(xs)
    idx = max(0, math.ceil(pct / 100.0 * n) - 1)
    return pct, s[idx], n - 1 - idx


def read(path):
    with open(path, "rb") as f:
        return f.read()


def write(path, data):
    with open(path, "wb") as f:
        f.write(data if isinstance(data, bytes) else data.encode())


# ---------------------------------------------------------------------------
# Build and provenance


def require_checkout():
    for p in ("dune-project", os.path.join("bin", "xgcc.ml"), "lib",
              os.path.join(BENCH_DIR, "tool.ml"), os.path.join(BENCH_DIR, "calib.ml")):
        if not os.path.exists(p):
            raise BenchError("not the root of an xgcc checkout: %s is missing" % p)


def child_env(work):
    env = dict(os.environ)
    env["TMPDIR"] = work
    env.pop("OCAMLRUNPARAM", None)
    env.pop("CAMLRUNPARAM", None)
    return env


def build():
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "xdg-cache")))
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./bin/xgcc.exe", "./%s/tool.exe" % BENCH_DIR, "./%s/calib.exe" % BENCH_DIR],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout.decode(errors="replace")[-4000:])


def provenance(seed):
    sha = None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd())))
        if r.returncode == 0:
            sha = r.stdout.strip()
    except OSError:
        pass
    # a checkout exported without .git is not a repository: a digest of
    # the analysed sources identifies the code either way
    h = hashlib.sha256()
    for top in ("bin", "lib", BENCH_DIR):
        for d, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".py", "dune")):
                    p = os.path.join(d, f)
                    h.update(p.encode() + b"\0" + read(p))
    ocaml = subprocess.run(["ocamlopt", "-version"], capture_output=True, text=True)
    return {
        "git_sha": sha,
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "ocaml": ocaml.stdout.strip() or None,
        "python": platform.python_version(),
        "seed": seed,
        "calib_ref_s": CALIB_REF_S,
        "calib_kernel": {"rounds": CALIB_ROUNDS, "checksum": CALIB_CHECKSUM,
                         "source": "perfbench/calib.ml"},
    }


# ---------------------------------------------------------------------------
# Processes


class Proc:
    """One finished child: wall seconds, user+sys seconds, peak RSS (MB),
    exit code, stdout and stderr bytes."""

    def __init__(self, wall, cpu, rss_mb, code, out, err):
        self.wall, self.cpu, self.rss_mb, self.code = wall, cpu, rss_mb, code
        self.out, self.err = out, err


def run_process(argv, cwd, env, scratch):
    """Run argv to completion; rusage comes from wait4. stdout/stderr go to
    files so a large report set can never block the child on a pipe."""
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out_f, open(err_path, "wb") as err_f:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                             stdout=out_f, stderr=err_f)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, p.returncode,
                read(out_path), read(err_path))


def kernel(copies, work, env):
    """Wall time of the calibration kernel, `copies` concurrent instances
    (start to last exit)."""
    t0 = time.perf_counter()
    ps = [subprocess.Popen([os.path.abspath(CALIB), str(CALIB_ROUNDS)], cwd=work, env=env,
                           stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL) for _ in range(copies)]
    outs = [p.communicate()[0] for p in ps]
    dt = time.perf_counter() - t0
    for p, o in zip(ps, outs):
        if p.returncode != 0 or o.decode().strip() != CALIB_CHECKSUM:
            raise BenchError("calibration kernel is not the frozen one (output %r)" % o)
    return dt


def gc_exit_stats(err):
    """OCAMLRUNPARAM=v=0x400 prints `name: value` lines at exit."""
    stats = {}
    for line in err.decode(errors="replace").splitlines():
        m = re.match(r"^(\w+): ([0-9.]+)$", line.strip())
        if m:
            stats[m.group(1)] = float(m.group(2))
    return stats


# ---------------------------------------------------------------------------
# Corpus, edits and the correctness oracle


class Corpus:
    def __init__(self, workload, seed, work, env):
        kind, n_files, funcs, self.jobs, self.shape, self.slice = WORKLOADS[workload]
        self.dir = os.path.join(work, "corpus")
        os.makedirs(self.dir)
        r = subprocess.run([os.path.abspath(TOOL), "gen", kind, str(seed), str(n_files),
                            str(funcs), str(BUG_RATE), self.dir], env=env,
                           capture_output=True)
        if r.returncode != 0:
            raise BenchError("corpus generation failed: %s" % r.stderr.decode(errors="replace"))
        truth = json.loads(read(os.path.join(self.dir, "truth.json")))
        os.remove(os.path.join(self.dir, "truth.json"))
        self.files = truth["files"]
        self.planted = truth["planted"]
        self.edit_file, self.edits = self._edits(seed)
        self.original = read(os.path.join(self.dir, self.edit_file))

    def _edits(self, seed):
        """The four-op edit cycle on one seeded file: a summary-changing
        edit in a helper, a dead local in the helper's caller, a trailing
        comment, a revert. Each text builds on the previous one; the revert
        restores the original, so every cycle does the same work. Always
        editing a `Gen` release helper and its one caller keeps the work an
        edit triggers the same shape whatever the seed."""
        helper = re.compile(r"^(?:static )?void (\w+)_release\(int \*p\) \{", re.M)
        n = len(self.files)
        for k in range(n):
            name = self.files[(seed + k) % n]
            text = read(os.path.join(self.dir, name)).decode()
            m = helper.search(text)
            if m:
                break
        else:
            raise BenchError("no release helper to edit in the corpus")
        e1 = text[:m.end()] + " int *t = kmalloc(1); kfree(t);" + text[m.end():]
        # the shared helpers of a linked corpus have no single caller
        caller = re.search(r"^int %s\([^)]*\) \{$" % re.escape(m.group(1)), e1, re.M)
        at = caller.end() if caller else m.end()
        # inserted on the line of the opening brace: a new line would move
        # every later definition of the file, and locations are part of
        # each root's key
        e2 = e1[:at] + " int bench_dead = 0;" + e1[at:]
        e3 = e2 + "/* reviewed: comment-only edit */\n"
        return name, list(zip(EDIT_KINDS, [e1, e2, e3, text]))

    def probe_files(self):
        """The traced run's probe slice: the first files plus the edited one."""
        if self.slice is None:
            return self.files
        head = self.files[:self.slice]
        return head if self.edit_file in head else head + [self.edit_file]

    def set_text(self, text):
        write(os.path.join(self.dir, self.edit_file), text)

    def check_argv(self, jobs, cache_dir=None, files=None):
        argv = [os.path.abspath(XGCC), "check", "--format", "json", "-j", str(jobs)]
        if cache_dir:
            argv += ["--cache-dir", cache_dir]
        for c in CHECKERS:
            argv += ["-c", c]
        return argv + (files or self.files)

    def serve_argv(self):
        argv = [os.path.abspath(XGCC), "serve"]
        for c in CHECKERS:
            argv += ["-c", c]
        return argv + self.files


def ground_truth_errors(planted, diagnostics):
    """Every planted bug reported, and no report outside the planted set."""
    try:
        reports = json.loads(diagnostics)
    except ValueError:
        return ["output is not JSON"]
    fns = {r.get("function") for r in reports}
    planted_fns = {p["function"] for p in planted}
    errs = ["planted %s in %s not reported" % (p["kind"], p["function"])
            for p in planted if p["function"] not in fns]
    errs += ["report in %s, which has no planted bug" % r.get("function")
             for r in reports if r.get("function") not in planted_fns]
    return errs


class Oracle:
    """Uncached `-j 1 check --format json` bytes of `files`, once per
    distinct text of the edited file, computed outside the timed ops."""

    def __init__(self, corpus, files, env, scratch):
        self.by_text = {}
        self.planted = [p for p in corpus.planted if p["file"] in files]
        texts = [corpus.original] + [t.encode() for _, t in corpus.edits]
        for text in texts:
            if text in self.by_text:
                continue
            corpus.set_text(text)
            p = run_process(corpus.check_argv(1, files=files), corpus.dir, env, scratch)
            if p.code not in (0, 1):
                raise BenchError("oracle run exited %d: %s" % (p.code, p.err[-2000:]))
            self.by_text[text] = p.out
        corpus.set_text(corpus.original)

    def errors(self, text, out):
        want = self.by_text[text]
        errs = [] if out == want else ["reports differ from the uncached -j 1 oracle"]
        return errs + ground_truth_errors(self.planted, out)



# ---------------------------------------------------------------------------
# Daemon client


class Daemon:
    def __init__(self, corpus, env, extra_env=None):
        e = dict(env, **(extra_env or {}))
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(corpus.serve_argv(), cwd=corpus.dir, env=e,
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
        self.first = self.p.stderr.readline()
        self.setup_s = time.perf_counter() - self.t0
        if not self.first.startswith(b"xgcc serve:"):
            self.kill()
            raise BenchError("serve did not warm up: %r" % self.first)
        self.err = []
        self.drain = threading.Thread(target=lambda: self.err.extend(self.p.stderr), daemon=True)
        self.drain.start()

    def request(self, obj):
        self.p.stdin.write((json.dumps(obj) + "\n").encode())
        self.p.stdin.flush()
        line = self.p.stdout.readline()
        if not line:
            raise BenchError("serve closed its output")
        return json.loads(line)

    def cpu_s(self):
        fields = read("/proc/%d/stat" % self.p.pid).decode().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def hwm_mb(self):
        for line in read("/proc/%d/status" % self.p.pid).decode().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def shutdown(self):
        reply = self.request({"cmd": "shutdown"})
        self.p.stdin.close()
        self.p.wait()
        self.drain.join()
        return reply, b"".join(self.err)

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
        self.p.wait()


# ---------------------------------------------------------------------------
# The end-to-end run (--trace 0)


class Run:
    def __init__(self, workload, seed, seconds, work):
        self.workload, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.env = child_env(work)
        self.scratch = os.path.join(work, "io")
        os.makedirs(self.scratch)
        self.corpus = Corpus(workload, seed, work, self.env)
        self.copies = self.corpus.jobs  # one kernel copy per core the op uses
        self.oracle = Oracle(self.corpus, self.corpus.files, self.env, self.scratch)
        self.attempted = 0
        self.failures = []

    def kernel(self):
        return kernel(self.copies, self.work, self.env)

    def fail(self, what, errs):
        if errs:
            self.failures.append("%s: %s" % (what, "; ".join(errs[:3])))
        return not errs

    def check_proc(self, what, p, text):
        self.attempted += 1
        if p.code not in (0, 1):
            return self.fail(what, ["exit status %d: %s" % (p.code, p.err.decode(errors="replace")[-300:])])
        return self.fail(what, self.oracle.errors(text, p.out))

    def check_reply(self, what, reply, text):
        self.attempted += 1
        if not reply.get("ok"):
            return self.fail(what, ["daemon replied ok:false: %s" % reply.get("error")])
        if reply.get("event") != "diagnostics":
            return self.fail(what, ["unexpected reply event %r" % reply.get("event")])
        return self.fail(what, self.oracle.errors(text, reply["diagnostics"].encode()))

    def cache_dir(self):
        return os.path.join(self.work, "cache")

    def op_cycle(self):
        """(label, text) of the ops one cycle sends."""
        if self.corpus.shape == "batch":
            return [("check", self.corpus.original)]
        return [(k, t.encode()) for k, t in self.corpus.edits]

    # -- setup ---------------------------------------------------------

    def setup(self):
        """SETUP_REPS set-ups, each timed between two kernel runs; the last
        one stays up for the timed ops. Returns [(raw_s, calib_s)]."""
        c = self.corpus
        samples = []
        self.daemon = None
        for rep in range(SETUP_REPS):
            k0 = self.kernel()
            if c.shape == "batch":
                p = run_process(c.check_argv(c.jobs), c.dir, self.env, self.scratch)
                t = p.wall
                self.check_proc("setup %d" % rep, p, c.original)
            elif c.shape == "cache":
                shutil.rmtree(self.cache_dir(), ignore_errors=True)
                p = run_process(c.check_argv(1, self.cache_dir()), c.dir, self.env, self.scratch)
                t = p.wall
                self.check_proc("setup %d" % rep, p, c.original)
            else:
                d = Daemon(c, self.env)
                t = d.setup_s
                if rep < SETUP_REPS - 1:
                    d.shutdown()
                else:
                    self.daemon = d
            k1 = self.kernel()
            samples.append((t, (k0 + k1) / 2))
        return samples

    # -- timed ops -----------------------------------------------------

    def one_op(self, label, text):
        c = self.corpus
        if c.shape == "batch":
            p = run_process(c.check_argv(c.jobs), c.dir, self.env, self.scratch)
            self.check_proc(label, p, text)
            return p.wall, p.cpu, p.rss_mb
        if c.shape == "cache":
            c.set_text(text)
            p = run_process(c.check_argv(1, self.cache_dir()), c.dir, self.env, self.scratch)
            self.check_proc(label, p, text)
            return p.wall, p.cpu, p.rss_mb
        cpu0 = self.daemon.cpu_s()
        t0 = time.perf_counter()
        reply = self.daemon.request({"cmd": "didChange", "path": c.edit_file, "text": text.decode()})
        wall = time.perf_counter() - t0
        cpu = self.daemon.cpu_s() - cpu0
        self.check_reply(label, reply, text)
        return wall, cpu, None

    def timed_ops(self):
        """Whole cycles until --seconds have passed; a kernel run between
        consecutive ops calibrates both of its neighbours."""
        ops = []
        start = time.perf_counter()
        k_prev = self.kernel()
        cycle = 0
        while True:
            for label, text in self.op_cycle():
                wall, cpu, rss = self.one_op(label, text)
                k_next = self.kernel()
                ops.append({"op": label, "cycle": cycle, "wall": wall, "cpu": cpu,
                            "rss_mb": rss, "calib": (k_prev + k_next) / 2})
                k_prev = k_next
            cycle += 1
            if time.perf_counter() - start >= self.seconds:
                break
        if self.daemon:
            rss = self.daemon.hwm_mb()
            reply, _ = self.daemon.shutdown()
            self.daemon = None
            if not reply.get("ok"):
                self.fail("shutdown", ["daemon replied ok:false to shutdown"])
            for o in ops:
                o["rss_mb"] = rss
        self.corpus.set_text(self.corpus.original)
        return ops

    def close(self):
        if getattr(self, "daemon", None):
            self.daemon.kill()


def norm(t, calib):
    return t * CALIB_REF_S / calib


def summarise(xs):
    q = quartiles(xs)
    return {"median": median(xs), "q1": q[0], "q3": q[2], "n": len(xs)}


def per_cycle(ops, key, agg):
    cycles = {}
    for o in ops:
        cycles.setdefault(o["cycle"], []).append(o[key])
    return [agg(v) for v in cycles.values()]


def end_to_end(run):
    """Per-op times are normalised, then aggregated per cycle: the mean op
    of a cycle, median over cycles. A cycle is the unit of identical work;
    for the batch workloads it is one op. The edit cycle mixes fast and
    slow kinds, and a median over raw ops would fall in the gap between
    them. Peak RSS is averaged the same way: the largest op of a cycle
    depends on which file the seed edits, the cycle's mean much less."""
    setup = run.setup()
    ops = run.timed_ops()
    for o in ops:
        o["lat"] = norm(o["wall"], o["calib"])
        o["ncpu"] = norm(o["cpu"], o["calib"])
    setup_norm = [norm(t, k) for t, k in setup]
    lat = per_cycle(ops, "lat", statistics.fmean)
    raw = per_cycle(ops, "wall", statistics.fmean)
    cpu = per_cycle(ops, "ncpu", statistics.fmean)
    raw_cpu = per_cycle(ops, "cpu", statistics.fmean)
    rss = per_cycle(ops, "rss_mb", statistics.fmean)
    calibs = [o["calib"] for o in ops]
    metrics = {
        "setup_s": (median(setup_norm), "s"),
        "latency_p50_s": (median(lat), "s"),
        "cpu_s_per_op": (median(cpu), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    detail = {
        "setup_s": summarise(setup_norm),
        "raw.setup_s": summarise([t for t, _ in setup]),
        "latency_p50_s": summarise(lat),
        "raw.latency_p50_s": summarise(raw),
        "cpu_s_per_op": summarise(cpu),
        "raw.cpu_s_per_op": summarise(raw_cpu),
        "peak_rss_mb": summarise(rss),
        "calib_s": summarise(calibs),
    }
    op_lat = [o["lat"] for o in ops]
    tail = tail_percentile(op_lat)
    log("workload %s seed %d: %d ops in %d cycle(s), %d set-ups" % (
        run.workload, run.seed, len(ops), len(lat), SETUP_REPS))
    log("%-16s %12s %12s %12s" % ("metric", "normalised", "raw", "calib_s"))
    log("%-16s %12.4f %12.4f %12.4f" % ("setup_s", median(setup_norm),
                                          median([t for t, _ in setup]),
                                          median([k for _, k in setup])))
    log("%-16s %12.4f %12.4f %12.4f" % ("latency_p50_s", median(lat), median(raw), median(calibs)))
    log("%-16s %12.4f %12.4f %12.4f" % ("cpu_s_per_op", median(cpu), median(raw_cpu), median(calibs)))
    log("%-16s %12.1f MB" % ("peak_rss_mb", median(rss)))
    if tail:
        log("latency_p%d_s    %12.4f  (per op; %d of %d samples beyond it; not gated)" % (
            tail[0], tail[1], tail[2], len(op_lat)))
    else:
        log("latency tail: fewer than 11 ops, no percentile has 10 samples beyond it")
    by_op = {}
    for o in ops:
        by_op.setdefault(o["op"], []).append(o["lat"])
    for k, v in by_op.items():
        log("  op %-14s latency median %.4f s over %d" % (k, median(v), len(v)))
    return metrics, detail, {"ops": ops, "setup": setup, "tail": tail}


# ---------------------------------------------------------------------------
# The traced run (--trace 1)


def untraced_sample(run):
    """A few untraced ops under OCAMLRUNPARAM=v=0x400, for the GC exit
    statistics, raw latency and calibration the per-layer view needs."""
    c = run.corpus
    env = dict(run.env, OCAMLRUNPARAM="v=0x400")
    walls, calibs, gcs = [], [], []
    if c.shape == "serve":
        # exit stats cover the daemon's lifetime: difference a daemon that
        # serves one edit cycle against one that serves none
        d0 = Daemon(c, run.env, {"OCAMLRUNPARAM": "v=0x400"})
        _, err0 = d0.shutdown()
        d1 = Daemon(c, run.env, {"OCAMLRUNPARAM": "v=0x400"})
        try:
            k_prev = run.kernel()
            for label, text in run.op_cycle():
                t0 = time.perf_counter()
                reply = d1.request({"cmd": "didChange", "path": c.edit_file, "text": text.decode()})
                walls.append(time.perf_counter() - t0)
                run.check_reply(label, reply, text)
                k = run.kernel()
                calibs.append((k_prev + k) / 2)
                k_prev = k
            _, err1 = d1.shutdown()
        finally:
            d1.kill()
        g0, g1 = gc_exit_stats(err0), gc_exit_stats(err1)
        n = len(walls)
        gcs = [{
            "alloc_words": (g1.get("allocated_words", 0) - g0.get("allocated_words", 0)) / n,
            "minor": (g1.get("minor_collections", 0) - g0.get("minor_collections", 0)) / n,
            "major": (g1.get("major_collections", 0) - g0.get("major_collections", 0)) / n,
            "top_heap_words": g1.get("top_heap_words", 0),
        }]
    else:
        if c.shape == "cache":
            shutil.rmtree(run.cache_dir(), ignore_errors=True)
            run_process(c.check_argv(1, run.cache_dir()), c.dir, run.env, run.scratch)
        k_prev = run.kernel()
        for label, text in run.op_cycle() * (3 if c.shape == "batch" else 1):
            if c.shape == "cache":
                c.set_text(text)
                argv = c.check_argv(1, run.cache_dir())
            else:
                argv = c.check_argv(c.jobs)
            p = run_process(argv, c.dir, env, run.scratch)
            run.check_proc(label, p, text)
            k = run.kernel()
            walls.append(p.wall)
            calibs.append((k_prev + k) / 2)
            k_prev = k
            g = gc_exit_stats(p.err)
            gcs.append({"alloc_words": g.get("allocated_words", 0),
                        "minor": g.get("minor_collections", 0),
                        "major": g.get("major_collections", 0),
                        "top_heap_words": g.get("top_heap_words", 0)})
        c.set_text(c.original)
    word = 8 / 2**20
    return {
        "raw_latency_s": median(walls),
        "calib_s": median(calibs),
        "alloc_mb_per_op": median([g["alloc_words"] * word for g in gcs]),
        "minor_collections": median([g["minor"] for g in gcs]),
        "major_collections": median([g["major"] for g in gcs]),
        "top_heap_mb": median([g["top_heap_words"] * word for g in gcs]),
    }


class Trace:
    """Spans of one traced run, indexed by op."""

    def __init__(self, path):
        doc = json.loads(read(path))
        self.spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        self.ops = {}
        self.children = {}
        self.by_id = {s["args"]["id"]: s for s in self.spans}
        for s in self.spans:
            a = s["args"]
            self.children.setdefault(a["parent"], []).append(s)
            if s["name"].startswith("op:"):
                self.ops[a["op"]] = s
        for s in self.spans:
            s["self_us"] = s["dur"] - sum(ch["dur"] for ch in self.children.get(s["args"]["id"], []))

    def ops_of(self, kind=None, prefix=None, phase=None):
        return [o for o in self.ops.values()
                if (kind is None or o["args"]["kind"] == kind)
                and (prefix is None or o["args"]["kind"].startswith(prefix))
                and (phase is None or o["args"]["phase"] == phase)]

    def pick(self, kind=None, prefix=None):
        """Ops of a kind from the workload's own sequence if it has any,
        else from the probe slice."""
        ops = self.ops_of(kind, prefix)
        own = [o for o in ops if o["args"]["phase"] != "probe"]
        return own or ops

    def in_op(self, op, name):
        """Summed seconds of the named spans inside an op."""
        return sum(s["dur"] for s in self.spans
                   if s["args"]["op"] == op["args"]["op"] and s["name"] == name) / 1e6

    def span_time(self, name, ops):
        xs = [self.in_op(o, name) for o in ops]
        return median([x for x in xs if x > 0])

    def layer_time(self, name):
        """Per-op seconds of a span, over the workload's own ops where it
        occurs, else over every op where it occurs."""
        main = [o for o in self.ops_of(phase="main") if self.in_op(o, name) > 0]
        return self.span_time(name, main or list(self.ops.values()))

    def counter(self, ops, key, agg=median):
        xs = [o["args"][key] for o in ops if key in o["args"]]
        return agg(xs) if xs else 0

    def coverage(self, op):
        """Share of an op's wall time its layer spans cover."""
        return 1.0 - op["self_us"] / op["dur"] if op["dur"] > 0 else 1.0

    def layer_summary(self):
        layers = {}
        for s in self.spans:
            if s["name"].startswith("op:"):
                continue
            layer = s["name"].split(".")[0]
            row = layers.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "alloc_mb": 0.0})
            row["calls"] += 1
            row["self_s"] += s["self_us"] / 1e6
            row["alloc_mb"] += max(0.0, s["args"]["alloc_bytes"] - sum(
                ch["args"]["alloc_bytes"] for ch in self.children.get(s["args"]["id"], []))) / 2**20
            parent = self.by_id.get(s["args"]["parent"])
            if parent is None or parent["name"].split(".")[0] != layer:
                row["total_s"] += s["dur"] / 1e6
        return layers


def per_layer(run, out):
    c = run.corpus
    sample = untraced_sample(run)
    probe_files = c.probe_files()
    probe_oracle = run.oracle if probe_files == c.files else \
        Oracle(c, probe_files, run.env, run.scratch)
    plan = {
        "files": c.files, "checkers": CHECKERS, "jobs": c.jobs, "main": c.shape,
        "seconds": run.seconds, "store_dir": os.path.join(run.work, "trace-cache"),
        "probe_files": probe_files, "probe_store_dir": os.path.join(run.work, "probe-cache"),
        "mem_dir": os.path.join(run.work, "never-created"),
        "edit_file": c.edit_file, "edits": [[k, t] for k, t in c.edits], "out": os.path.abspath(out),
    }
    plan_path = os.path.join(run.work, "plan.json")
    write(plan_path, json.dumps(plan))
    r = subprocess.run([os.path.abspath(TOOL), "trace", plan_path], cwd=c.dir, env=run.env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise BenchError("traced run failed: %s" % r.stderr.decode(errors="replace")[-2000:])
    tr = Trace(out)

    # every traced op's rendered reports against the oracle, and the
    # span-sum check: layer spans cover >= 95% of each op
    texts = {k: t.encode() for k, t in c.edits}
    min_cov = 1.0
    for o in tr.ops.values():
        kind = o["args"]["kind"]
        text = texts[kind.split(":")[1]] if ":" in kind else c.original
        oracle = probe_oracle if o["args"]["phase"] == "probe" else run.oracle
        run.attempted += 1
        if o["args"]["digest"] != hashlib.md5(oracle.by_text[text]).hexdigest():
            run.fail("traced " + kind, ["rendered reports differ from the oracle"])
        cov = tr.coverage(o)
        min_cov = min(min_cov, cov)
        if cov < 0.95:
            run.fail("traced " + kind, ["layer spans cover only %.1f%% of the op" % (100 * cov)])

    j1 = tr.pick("batch_j1")
    j2 = tr.pick("batch_j2")
    cold = tr.pick("cache_cold")
    cache_ops = tr.pick(prefix="cache:")
    serve_ops = tr.pick(prefix="serve:")
    last_cycle = {o["args"]["kind"]: o for o in cache_ops}
    # ratios between layers compare the probe slice with itself
    pj1 = tr.ops_of("batch_j1", phase="probe")
    pj2 = tr.ops_of("batch_j2", phase="probe")
    probe_j1 = tr.span_time("engine.run", pj1)
    probe_j2 = tr.span_time("pool.run", pj2)
    probe_revert = tr.span_time("cache.run", tr.ops_of("cache:revert", phase="probe"))

    parse_spans = [s for s in tr.spans if s["name"] == "cfront.parse"]
    parse_s = sum(s["dur"] for s in parse_spans) / 1e6
    parse_mb = sum(s["args"].get("bytes", 0) for s in parse_spans) / 1e6
    j1c = lambda key: tr.counter(j1, key)
    j2c = lambda key: tr.counter(j2, key)
    fn_hits = sum(o["args"]["fn_hits"] for o in cache_ops)
    fn_all = fn_hits + sum(o["args"]["fn_stale"] + o["args"]["fn_absent"] for o in cache_ops)
    main_ops = tr.ops_of(phase="main")
    if c.shape == "serve":
        traced_main = median([tr.in_op(o, "serve.recheck") for o in serve_ops])
    else:
        traced_main = median([(o["dur"] - o["self_us"]) / 1e6 for o in main_ops
                              if o["args"]["kind"] != "cache_cold"])

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    put("cfront.parse_s", tr.layer_time("cfront.parse"), "s")
    put("cfront.parse_mb_per_s", parse_mb / parse_s if parse_s > 0 else 0, "MB/s")
    put("cfront.ast_decode_s", tr.span_time("cfront.ast_decode", cache_ops), "s")
    put("cfront.ast_encode_s", tr.span_time("cfront.ast_encode", cold), "s")
    put("cfront.ast_bytes_ratio", tr.counter(cold, "ast_bytes") / tr.counter(cold, "source_bytes"), "ratio")
    put("cfg.supergraph_s", tr.layer_time("cfg.supergraph"), "s")
    put("cfg.blocks", j1c("blocks"), "count")
    put("cfg.exprids", j1c("exprids"), "count")
    put("cfg.table_kib", j1c("table_bytes") / 1024, "KiB")
    put("engine.checkers_s", tr.layer_time("engine.checkers"), "s")
    put("engine.run_s", tr.span_time("engine.run", j1), "s")
    put("engine.nodes_visited", j1c("nodes_visited"), "count")
    put("engine.paths_explored", j1c("paths_explored"), "count")
    put("engine.match_attempts", j1c("match_attempts"), "count")
    put("engine.block_cache_hit_ratio", j1c("cache_hits") / max(1, j1c("cache_probes")), "ratio")
    put("engine.summary_hit_ratio", j1c("summary_hits") / max(1, j1c("calls_followed")), "ratio")
    put("fpp.pruned_branches", j1c("pruned_branches"), "count")
    put("pool.run_j2_s", tr.span_time("pool.run", j2), "s")
    put("pool.speedup", probe_j1 / probe_j2 if probe_j2 > 0 else 0, "ratio")
    put("pool.steals", j2c("steals"), "count")
    put("pool.waits", j2c("waits"), "count")
    put("pool.shared_published", j2c("shared_published"), "count")
    put("pool.shared_replayed", j2c("shared_replayed"), "count")
    put("pool.shared_recomputed", j2c("shared_recomputed"), "count")
    put("pool.intern_atoms", j2c("intern_atoms"), "count")
    put("cache.cold_run_s", tr.span_time("cache.run", cold), "s")
    for k in EDIT_KINDS:
        put("cache.run_s." + k, tr.span_time("cache.run", tr.pick("cache:" + k)), "s")
    put("cache.overhead_ratio", probe_revert / probe_j1 if probe_j1 > 0 else 0, "ratio")
    put("cache.store_open_s", tr.span_time("cache.store_open", cache_ops), "s")
    put("cache.entry_files", tr.counter(cold, "entry_files"), "count")
    put("cache.store_mb", tr.counter(cold, "store_bytes") / 2**20, "MB")
    put("cache.roots_replayed", tr.counter(cache_ops, "roots_replayed"), "count")
    put("cache.fn_hit_ratio", fn_hits / fn_all if fn_all else 0, "ratio")
    for k in EDIT_KINDS:
        o = last_cycle.get("cache:" + k, {"args": {}})
        for key in ("roots_recomputed", "fns_recomputed", "sums_unchanged", "roots_salvaged"):
            put("cache.%s.%s" % (key, k), o["args"].get(key, 0), "count")
    put("report.rank_s", tr.layer_time("report.rank"), "s")
    put("report.render_s", tr.layer_time("report.render"), "s")
    put("report.reports", j1c("reports"), "count")
    setup_ops = tr.pick("serve_setup")
    put("serve.create_s", tr.span_time("serve.create", setup_ops), "s")
    put("serve.warmup_s", tr.span_time("serve.warmup", setup_ops), "s")
    for k in EDIT_KINDS:
        put("serve.recheck_s." + k, tr.span_time("serve.recheck", tr.pick("serve:" + k)), "s")
    put("serve.mem_entries", tr.counter(serve_ops, "mem_entries", max), "count")
    rechecks = [s["args"]["alloc_bytes"] for s in tr.spans if s["name"] == "serve.recheck"
                and tr.ops[s["args"]["op"]] in serve_ops]
    put("serve.alloc_mb_per_recheck", median(rechecks) / 2**20, "MB")
    put("gc.alloc_mb_per_op", sample["alloc_mb_per_op"], "MB")
    put("gc.minor_collections", sample["minor_collections"], "count")
    put("gc.major_collections", sample["major_collections"], "count")
    put("gc.top_heap_mb", sample["top_heap_mb"], "MB")
    put("calib.kernel_s", sample["calib_s"], "s")
    put("raw.latency_p50_s", sample["raw_latency_s"], "s")
    put("trace.outside_s", sample["raw_latency_s"] - traced_main, "s")
    put("trace.coverage_min", min_cov, "ratio")

    layers = tr.layer_summary()
    log("traced run: %d ops (%d main), %d spans; Chrome trace %s" % (
        len(tr.ops), len(main_ops), len(tr.spans), out))
    log("%-8s %7s %10s %10s %10s" % ("layer", "calls", "total_s", "self_s", "alloc_MB"))
    for layer in ("cfront", "cfg", "engine", "pool", "cache", "report", "serve"):
        row = layers.get(layer)
        if row is None:
            run.fail("trace", ["no %s spans" % layer])
            continue
        log("%-8s %7d %10.4f %10.4f %10.1f" % (layer, row["calls"], row["total_s"],
                                               row["self_s"], row["alloc_mb"]))
    for name, (v, unit) in m.items():
        log("  %-34s %14.6g %s" % (name, v, unit))
    return m, {"layers": layers, "sample": sample}, {"trace": out}


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        require_checkout()
        build()
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    out_dir = os.path.join(BENCH_DIR, "_out")
    # the pid keeps concurrent runs apart; padding it keeps every path the
    # analyser sees the same length from run to run, and with it the
    # allocation counts
    work = os.path.abspath(os.path.join(BENCH_DIR, "_work", "%s-%d-%07d" % (
        args.workload, args.seed, os.getpid())))
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work)
    run = None
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        if args.trace:
            metrics, detail, extra = per_layer(
                run, os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed)))
        else:
            metrics, detail, extra = end_to_end(run)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        if run:
            run.close()
        shutil.rmtree(work, ignore_errors=True)
    failed = len(run.failures)
    attempted = max(1, run.attempted)
    for f in run.failures[:20]:
        log("FAILED %s" % f)
    log("ops_failed_ratio %.4f (%d of %d ops)" % (failed / attempted, failed, attempted))
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "attempted": attempted, "failed": failed, "ops_failed_ratio": failed / attempted,
        "failures": run.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail, "extra": extra,
    }
    path = os.path.join(out_dir, "result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace))
    write(path, json.dumps(record, indent=1, default=str))
    log("result record: %s" % path)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
