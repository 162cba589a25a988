"""The arithver benchmark: time to a verdict, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload {interp,witness,sweep,cli} \\
        --seed N --seconds S --trace {0,1}

A workload is a sequence of rounds, each a fixed mix of operations whose
inputs come from the seed.  One operation yields one verdict, checked
against a known answer; a completed verdict that differs from it aborts
the run with exit code 1 and no metrics.  An operation that raises, or a
CLI child that prints a traceback, is counted as failed and the run goes
on.  One caller runs the operations in a closed loop.

--trace 0 sets the workload up in three fresh processes, timing each from
process start to its first verdict.  The first of them then measures, in
three segments of whole rounds with the other two set-ups in between,
until S seconds of measuring and at least 100 verdicts are in.  --trace 1
instead runs a fixed number of rounds untraced, then twice with spans
around every traced arithver function (see tracing.py), checks that the
counts repeat exactly, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it give the same
numbers with units and sample counts, and bench/out/ keeps a result file
per run (with the input digest and the machine) and the spans of traced
runs.  See bench/NOTES.md for why each workload exists.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import OUT, ROOT, SRC, TESTS, Crashed, WrongVerdict, child_env

WORKLOADS = ("interp", "witness", "sweep", "cli")
SETUP_RUNS = 3
MIN_VERDICTS = 100   # so that at least ten verdicts lie beyond p90
MEASURE_CAP_S = 120  # stop measuring here even below MIN_VERDICTS
DEADLINE_S = 170     # the whole command, children included
DIGEST_ROUNDS = 8
IMPORT_SAMPLES = 5

END_TO_END = [("setup_s", "s"), ("verdicts_per_s", "1/s"),
              ("verdict_p50_ms", "ms"), ("verdict_p90_ms", "ms"),
              ("decided_share", "ratio"), ("peak_rss_mb", "MiB")]
PER_LAYER = [
    ("whilelang.run.calls", "count"), ("whilelang.run.self_s", "s"),
    ("whilelang.run.steps", "count"), ("whilelang.run.msteps_per_s", "Msteps/s"),
    ("whilelang.run.out_of_fuel", "count"),
    ("whilelang.run.program_reuse_share", "ratio"),
    ("coding.split.calls", "count"), ("coding.split.self_s", "s"),
    ("coding.seq_encode.calls", "count"), ("coding.seq_encode.self_s", "s"),
    ("coding.seq_encode.max_bits", "bits"),
    ("alpha.instantiate_alpha.self_s", "s"),
    ("alpha.instantiate_alpha.nodes", "count"),
    ("alpha.vc_instance.self_s", "s"),
    ("alpha.check_triple.self_s", "s"), ("alpha.check_triple.points", "count"),
    ("proofs.check_proof.self_s", "s"), ("proofs.check_proof.caveats", "count"),
    ("evaluator.eval_formula.calls", "count"),
    ("evaluator.eval_formula.self_s", "s"),
    ("evaluator.eval_formula.unknown_share", "ratio"),
    ("evaluator.find_witnesses.self_s", "s"),
    ("hierarchy.classify.self_s", "s"), ("hierarchy.prenexify.self_s", "s"),
    ("xrec.sigma1_to_program.self_s", "s"),
    ("xrec.compile_to_while.self_s", "s"), ("xrec.program_assigns", "count"),
    ("xrec.gamma_instance.self_s", "s"), ("xrec.xrec_eval.self_s", "s"),
    ("terms.substitute.self_s", "s"), ("terms.alpha_equal.self_s", "s"),
    ("syntax.parse.self_s", "s"), ("syntax.parse.bytes_per_s", "B/s"),
    ("cli.import_s", "s"), ("cli.main.self_s", "s"),
    ("trace.untraced_verdicts_per_s", "1/s"),
    ("trace.traced_verdicts_per_s", "1/s"), ("trace.slowdown", "ratio"),
]


class BenchError(Exception):
    """The benchmark itself could not run; no metrics are printed."""


# ---------------------------------------------------------------------------
# Measuring, inside a child process


class Stats:
    """Verdicts of one pass: latencies of completed ones, failures by class."""

    def __init__(self):
        self.times_ns = []
        self.attempted = self.decided = 0
        self.failures = {}
        self.busy_s = 0.0
        self.rounds = 0
        self.log = []  # traced runs only: (kind, ns, outcome, input) per verdict

    @property
    def failed(self):
        return sum(self.failures.values())

    def fail(self, cls, op):
        if cls not in self.failures:
            print(f"failed ({cls}): {op.desc[:160]}", file=sys.stderr)
        self.failures[cls] = self.failures.get(cls, 0) + 1

    def verdicts_per_s(self):
        return len(self.times_ns) / self.busy_s

    def summary(self):
        ts = sorted(self.times_ns)
        n = len(ts)
        rank = math.ceil(0.9 * n)
        return {"attempted": self.attempted, "completed": n,
                "decided": self.decided, "failures": self.failures,
                "rounds": self.rounds, "busy_s": self.busy_s,
                "verdicts_per_s": self.verdicts_per_s(),
                "verdict_p50_ms": statistics.median(ts) / 1e6,
                "verdict_p90_ms": ts[rank - 1] / 1e6,
                "beyond_p90": n - rank,
                "decided_share": self.decided / self.attempted,
                "failed_share": self.failed / self.attempted}


def run_rounds(make_ops, ctx, st, done, tracer=None):
    """Run whole rounds into st until done(st) holds after one.

    Round generation is not timed.
    """
    while True:
        ops = make_ops(ctx, st.rounds)
        start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.verdict = st.attempted
            st.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                decided = op.fn()
            except WrongVerdict:
                raise
            except Exception as e:  # a failed operation; the run goes on
                cls = e.cls if isinstance(e, Crashed) else type(e).__name__
                st.fail(cls, op)
                if tracer is not None:
                    st.log.append((op.kind, "", cls, op.desc))
                continue
            ns = time.perf_counter_ns() - t0
            st.times_ns.append(ns)
            st.decided += bool(decided)
            if tracer is not None:
                st.log.append((op.kind, ns, "decided" if decided else
                               "undecided", op.desc))
        st.busy_s += time.perf_counter() - start
        st.rounds += 1
        if done(st):
            break
    if tracer is not None:
        tracer.verdict = -1
    if not st.times_ns:
        raise BenchError("no operation completed")
    return st


def rounds_done(n):
    return lambda st: st.rounds >= n


def input_digest(wl, ctx):
    """sha256 of the set-up inputs and of rounds 0..DIGEST_ROUNDS-1."""
    h = hashlib.sha256()
    for line in ctx.describe():
        h.update(line.encode() + b"\n")
    for i in range(DIGEST_ROUNDS):
        for op in wl.round_ops(ctx, i):
            h.update(op.desc.encode() + b"\n")
    return h.hexdigest()


def _close(ctx):
    if hasattr(ctx, "close"):
        ctx.close()


def measure_child(wl, args):
    """Set up, then measure in SETUP_RUNS segments, one per GO from the
    parent, which runs the other set-ups in the pauses between them: the
    measurement then spans the whole run instead of its last seconds."""
    ctx = wl.setup(args.seed)
    print("READY", flush=True)
    try:
        if args.child == "setup":
            return None
        st = Stats()
        for k in range(1, SETUP_RUNS + 1):
            if sys.stdin.readline() != "GO\n":
                raise BenchError("the parent stopped before the run ended")
            if k < SETUP_RUNS:
                target = args.seconds * k / SETUP_RUNS
                run_rounds(wl.round_ops, ctx, st,
                           lambda st: st.busy_s >= target)
                print("PAUSED", flush=True)
            else:
                run_rounds(wl.round_ops, ctx, st, lambda st: (
                    st.busy_s >= args.seconds and len(st.times_ns) >= MIN_VERDICTS)
                    or st.busy_s >= MEASURE_CAP_S)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        out = st.summary()
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        out["input_sha256"] = input_digest(wl, ctx)
        return out
    finally:
        _close(ctx)


def trace_child(wl, args):
    from tracing import DETERMINISTIC, Tracer
    make = getattr(wl, "inprocess_round_ops", wl.round_ops)
    ctx = wl.setup(args.seed)
    try:
        digest = input_digest(wl, ctx)
        base = run_rounds(make, ctx, Stats(), rounds_done(wl.TRACE_ROUNDS))
    finally:
        _close(ctx)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        ctx = None
        try:
            ctx = wl.setup(args.seed)
            st = run_rounds(make, ctx, Stats(), rounds_done(wl.TRACE_ROUNDS),
                            tracer)
        finally:
            tracer.uninstall()
            if ctx is not None:
                _close(ctx)
        layers = tracer.layer_metrics()
        layers["decided_share"] = st.decided / st.attempted
        passes.append((tracer, st, layers))
    (tracer, st, layers), (_, _, again) = passes
    differ = [k for k in DETERMINISTIC + ("decided_share",)
              if layers[k] != again[k]]
    if differ:
        raise BenchError("counts differ between two traced runs of one seed: "
                         + ", ".join(f"{k} {layers[k]} vs {again[k]}"
                                     for k in differ))
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write_spans(spans)
    with open(OUT / f"verdicts-{args.workload}-seed{args.seed}.tsv", "w") as fh:
        fh.write("verdict\tkind\tns\toutcome\tinput\n")
        for i, (kind, ns, outcome, desc) in enumerate(st.log):
            fh.write(f"{i}\t{kind}\t{ns}\t{outcome}\t{desc[:300]}\n")
    layers["trace.untraced_verdicts_per_s"] = base.verdicts_per_s()
    layers["trace.traced_verdicts_per_s"] = st.verdicts_per_s()
    layers["trace.slowdown"] = base.verdicts_per_s() / st.verdicts_per_s()
    return {"attempted": st.attempted, "failures": st.failures,
            "decided": st.decided, "rounds": st.rounds, "layers": layers,
            "deterministic": {k: layers[k] for k in DETERMINISTIC},
            "spans": len(tracer.sp_name), "spans_file": str(spans.relative_to(ROOT)),
            "input_sha256": digest}


def child_main(args):
    # the checkout's own sources, ahead of anything installed
    sys.path[:0] = [str(SRC), str(TESTS)]
    wl = importlib.import_module("wl_" + args.workload)
    try:
        if args.child == "trace":
            out = trace_child(wl, args)
        else:
            out = measure_child(wl, args)
    except WrongVerdict as e:
        print(f"WRONG VERDICT: {str(e)[:2000]}", file=sys.stderr)
        return 1
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    if out is not None:
        print("RESULT " + json.dumps(out), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Driving the children and reporting, in the parent process


class Child:
    """A child process of this script, driven line by line."""

    def __init__(self, args, mode, deadline):
        self.mode = mode
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--child", mode]
        self.start = time.perf_counter()
        # its own process group, so that the watchdog also stops CLI
        # grandchildren
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=child_env(), start_new_session=True)
        self.watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                        os.killpg, (self.proc.pid, signal.SIGKILL))
        self.watchdog.start()

    def expect(self, word):
        """(seconds since start, rest of the line) once the child prints word."""
        line = self.proc.stdout.readline()
        if not line.startswith(word):
            raise BenchError(f"{self.mode} child: expected {word}, got "
                             f"{line[:200]!r}")
        return time.perf_counter() - self.start, line[len(word):].strip()

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        try:
            if exc_type is not None:
                os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.stdin.close()
            self.proc.wait()
        finally:
            self.watchdog.cancel()
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
            self.proc.stdout.close()
        if exc_type is None and self.proc.returncode != 0:
            raise BenchError(f"{self.mode} child exited with "
                             f"{self.proc.returncode}")


def _timed(cmd):
    start = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, timeout=60,
                   stdin=subprocess.DEVNULL, env=child_env())
    return time.perf_counter() - start


def import_cost():
    """Median start of `import arithver.cli` minus a bare interpreter's."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(_timed([sys.executable, "-c", "pass"]))
        full.append(_timed([sys.executable, "-c", "import arithver.cli"]))
    return max(0.0, statistics.median(full) - statistics.median(bare))


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "cpu": cpu_model(),
            "nproc": os.cpu_count(), "git_sha": git_sha()}


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report_untraced(args, setups, r):
    values = {"setup_s": statistics.median(setups), **r}
    names = [n for n, _ in END_TO_END] + ["failed_share"]
    units = dict(END_TO_END, failed_share="ratio")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{r['completed']} verdicts in {r['rounds']} rounds, "
          f"{r['busy_s']:.2f} s busy, one caller, closed loop")
    print("  ".join(["workload"] + [f"{n} [{units[n]}]" for n in names]))
    print("  ".join([args.workload] + [_fmt(values[n]) for n in names]))
    print(f"samples: setup_s median of {len(setups)} "
          f"({', '.join(f'{s:.3f}' for s in setups)}); "
          f"p50/p90 over {r['completed']} verdicts, {r['beyond_p90']} beyond "
          f"p90; decided {r['decided']}/{r['attempted']}; failed "
          f"{r['attempted'] - r['completed']}/{r['attempted']} "
          f"{r['failures'] or ''}")
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END}


def report_traced(args, r):
    layers = r["layers"]
    print(f"workload {args.workload}, seed {args.seed}: traced "
          f"{r['rounds']} rounds, {r['attempted']} verdicts, "
          f"{r['spans']} spans in {r['spans_file']}")
    print("determinism: repeated exactly in two traced runs: "
          + ", ".join(f"{k}={_fmt(v)}" for k, v in r["deterministic"].items())
          + f", decided_share={_fmt(layers['decided_share'])}")
    for name, unit in PER_LAYER:
        print(f"  {name:40s} {_fmt(layers[name]):>14s} {unit}")
    return {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}


def parent_main(args):
    deadline = time.monotonic() + DEADLINE_S
    for need in (SRC / "arithver" / "__init__.py", TESTS / "generators.py",
                 TESTS / "hierarchy_fixtures.py", TESTS / "test_acceptance.py"):
        if not need.is_file():
            raise BenchError(f"not a full checkout: {need.relative_to(ROOT)} "
                             "is missing")
    if args.trace:
        with Child(args, "trace", deadline) as child:
            r = json.loads(child.expect("RESULT ")[1])
        r["layers"]["cli.import_s"] = import_cost()
        metrics = report_traced(args, r)
    else:
        with Child(args, "measure", deadline) as child:
            setups = [child.expect("READY")[0]]
            for k in range(SETUP_RUNS):
                child.send("GO")
                if k < SETUP_RUNS - 1:
                    child.expect("PAUSED")
                    with Child(args, "setup", deadline) as other:
                        setups.append(other.expect("READY")[0])
            r = json.loads(child.expect("RESULT ")[1])
        r["setup_samples_s"] = setups
        metrics = report_untraced(args, setups, r)
    attempted, failures = r["attempted"], r["failures"]
    failed = sum(failures.values())
    record = {"provenance": provenance(args), "result": r, "metrics": metrics}
    print(f"inputs sha256 {r['input_sha256']}; python {record['provenance']['python']}; "
          f"cpu {record['provenance']['cpu']}; nproc {os.cpu_count()}; "
          f"git {record['provenance']['git_sha']}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "measure", "trace"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return child_main(args)
    try:
        return parent_main(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
